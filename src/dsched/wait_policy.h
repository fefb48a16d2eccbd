// WaitPolicy: the pluggable hook every blocking point in the runtime
// routes through, so a deterministic cooperative scheduler can own every
// context switch (SchedMode::kDeterministic) while the default OS mode
// stays byte-identical to the pre-hook code.
//
// The contract, kept deliberately small:
//
//   * yield(hint)    — a pure scheduling point: the caller is runnable and
//                      offers the scheduler a chance to switch lanes. Must
//                      be called with NO runtime mutex held.
//   * wait_round(..) — replaces one bounded condition-variable wait round:
//                      the caller holds exactly `lock` (released while
//                      parked, re-acquired before returning) and loops on
//                      its own predicate, exactly like cv.wait_for. The
//                      timeout is interpreted in *virtual* time by the
//                      deterministic scheduler, so wait timeouts become a
//                      function of the schedule, not the wall clock.
//   * notify(chan)   — reports that `chan` (the address of the condition
//                      variable just notified) was signalled, making lanes
//                      parked on it runnable. Callers must still notify
//                      the real condition variable first: threads that are
//                      not lanes (and lanes after release()) wait on it
//                      for real.
//   * sleep_us(..)   — replaces a plain sleep (e.g. the stable log's
//                      simulated force latency) with a virtual-time block.
//   * adopt_daemon / retire_daemon — lets a background service thread
//                      (the atomicity sentinel) join the lane pool so its
//                      activations are scheduled too; daemons do not keep
//                      the scheduler running and free-run after release.
//
// Every call site in core/, txn/ and obs/ null-checks its policy pointer
// and keeps the existing code path verbatim when it is null — that is the
// SchedMode::kOs guarantee.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>

#include "common/ids.h"
#include "common/operation.h"

namespace argus {

/// Where a lane is (about to be) blocked or yielding. The first entry is
/// the only pure scheduling point; the rest name the runtime's blocking
/// waits.
enum class WaitPoint : int {
  kObjectInvoke = 0,  // about to enter an object's monitor with one op
  kObjectWait,        // blocked in ObjectBase::await (admission/enabledness)
  kTxnBegin,          // TransactionManager::begin
  kTxnCommit,         // TransactionManager::commit entry
  kClockTurn,         // LamportClock::wait_for_turn (apply in ts order)
  kClockCovered,      // LamportClock read-only watermark coverage
  kLogLeader,         // StableLog flush leader held by hold_flushes()
  kLogFollower,       // StableLog committer waiting for its batch's force
  kLogSleep,          // StableLog simulated force latency / retry backoff
  kSentinelWindow,    // AtomicitySentinel between drain windows
  kExecutorQueue,     // TxnExecutor worker waiting for a task (or drain)
  kExecutorBackoff,   // TxnExecutor backing off before a deadlock retry
};

[[nodiscard]] std::string to_string(WaitPoint point);

/// What a lane would do next — attached to every yield and wait so a
/// schedule source can make informed choices (PCT priorities, DFS
/// sleep-set pruning over commuting invocations).
struct LaneHint {
  WaitPoint point{WaitPoint::kObjectInvoke};
  ObjectId object{};
  bool has_object{false};
  Operation op{};
  bool has_op{false};

  friend bool operator==(const LaneHint&, const LaneHint&) = default;
};

class WaitPolicy {
 public:
  virtual ~WaitPolicy() = default;

  /// Virtual time in microseconds (monotone; advances per scheduling
  /// decision, and jumps when every lane is blocked on a deadline).
  virtual std::uint64_t now_us() = 0;

  /// Pure scheduling point; no-op for non-lane threads.
  virtual void yield(const LaneHint& hint) = 0;

  /// One bounded wait round on `cv`, keyed by `channel` for notify().
  /// Releases `lock` while parked; returns with it re-acquired. timeout
  /// <= 0 means "until notified" (no deadline).
  virtual void wait_round(const LaneHint& hint, const void* channel,
                          std::unique_lock<std::mutex>& lock,
                          std::condition_variable& cv,
                          std::chrono::microseconds timeout) = 0;

  /// Makes lanes parked on `channel` runnable. Safe to call from any
  /// thread, with or without runtime locks held (never blocks).
  virtual void notify(const void* channel) = 0;

  /// Virtual-time sleep (no channel; wakes at the deadline). Must be
  /// called with no runtime mutex held.
  virtual void sleep_us(WaitPoint point, std::uint64_t us) = 0;

  /// Registers the calling (non-spawned) thread as a daemon lane and
  /// parks it until scheduled. Daemons do not keep run() alive.
  virtual void adopt_daemon(std::string name) = 0;

  /// Unregisters the calling daemon thread (it reverts to pass-through).
  virtual void retire_daemon() = 0;
};

}  // namespace argus

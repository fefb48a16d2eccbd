// AtomicitySentinel: continuous online atomicity checking over the
// flight recorder's event stream (in the spirit of Mathur &
// Viswanathan's online atomicity checkers — see PAPERS.md).
//
// The sentinel drains the recorder in windows and incrementally verifies
// that the committed projection perm(h) of the observed history is
// serializable in its *canonical order* — the order the paper's local
// atomicity properties promise:
//
//   * activities with a timestamp (static initiations, hybrid commit
//     stamps, hybrid read-only initiations) serialize at that timestamp;
//   * activities without one (dynamic / 2PL) serialize at their first
//     commit event's sequence number.
//
// Both keys are drawn from the same Lamport clock, so they are mutually
// comparable; the resulting total order is consistent with precedes(h)
// (a first-commit sequence is always preceded by the responses that
// precedes is defined over) and equals timestamp order on timestamped
// activities. A correct protocol therefore always passes, and a failure
// is a genuine atomicity violation — serializability is checked by the
// same NFA-style replay (spec/serial.h) the offline checkers use, but
// incrementally: per object the sentinel carries the set of candidate
// specification states reached by the committed prefix, and each newly
// committed activity's per-object event subsequences are replayed
// against it. The full exponential search of check_atomic is never
// needed because the canonical order is known.
//
// Each window first reads the *serialization frontier*, a key below
// which no activity can still take a serialization key
// (TransactionManager::serialization_frontier(): the in-flight commit
// timestamps, the next clock draw, and the start timestamp of every live
// transaction), and only then drains. Every path that draws a key keeps
// it in flight or registered until the activity's commit events are
// recorded, so a committed activity keyed below the frontier is in this
// drain or an earlier one. The vector-clock modes hold back commits at
// or above the frontier and fold the rest in key order, so the fast
// path's observed chain is the canonical one and each epoch seals clean;
// the exact mode checks only activities below it. Every live
// transaction's start timestamp bounds the frontier, so one long-open
// transaction holds back every later commit until it ends
// (held_commits(), the argus_sentinel_held_commits gauge).
//
// Memory is bounded by checkpointing: once the buffered committed events
// exceed `checkpoint_threshold`, activities whose key lies below the
// frontier are folded permanently into the per-object state sets and
// their buffers are dropped. An activity that commits with a key below
// an already-folded checkpoint (a key drawn outside the frontier's
// bookkeeping, such as a caller-chosen start timestamp) is skipped and
// counted as a straggler, not reported as a violation.
//
// The sentinel holds pointers to the recorder's events rather than
// copies: the unbounded recorder never moves an event, so
// FlightRecorder::clear() must not run while a sentinel is attached. A
// ring-mode recorder overwrites its slots, so its drains carry copies,
// which the sentinel keeps until no buffered activity points into them.
//
// Violations increment a metric, latch an explanation, invoke the
// optional on_violation hook (the fail-fast path: the hook may abort the
// process or fail the test), and quarantine the offending activity so
// one bad activity cannot re-fire every window.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "check/system.h"
#include "check/vc_atomicity.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"
#include "spec/spec.h"

namespace argus {

class WaitPolicy;

/// How each window certifies the committed projection.
enum class CheckMode {
  /// Re-replay every unfolded committed activity from the checkpoint
  /// each window (the original incremental checker): exact, but the
  /// per-window work grows with the buffered suffix.
  kExact,
  /// Vector-clock fast path only (check/vc_atomicity.h): each committed
  /// activity is folded once, in observed order; activities whose
  /// conflicts fold against canonical order are quarantined and counted
  /// SUSPICIOUS, never resolved. Cheapest; monitoring-only.
  kVectorClock,
  /// Vector-clock fast path, but suspicious windows escalate to an exact
  /// canonical re-replay of the window's buffer. Linear-time on
  /// conflict-clean traffic, exact verdicts everywhere.
  kEscalating,
};

[[nodiscard]] const char* to_string(CheckMode m);

struct SentinelOptions {
  /// Interval between background drain+check windows.
  std::chrono::milliseconds window{25};
  /// Buffered committed events above which the checked prefix is folded
  /// into per-object candidate states. Default: never fold (exact mode).
  std::size_t checkpoint_threshold{static_cast<std::size_t>(-1)};
  /// Certification strategy per window (see CheckMode).
  CheckMode mode{CheckMode::kExact};
  /// Invoked (from the sentinel thread, or from poll()'s caller) with an
  /// explanation for every violation found.
  std::function<void(const std::string&)> on_violation;
  /// When set (SchedMode::kDeterministic), the sentinel thread registers
  /// itself as a daemon lane of the deterministic scheduler, so its
  /// drain windows are schedule choices too. Runtime::start_sentinel
  /// fills this in automatically.
  WaitPolicy* wait_policy{nullptr};
};

/// Reads the serialization frontier: a key below which no activity can
/// still take a serialization key, with every committed activity keyed
/// below it already recorded. The sentinel folds nothing at or above it.
using FrontierFn = std::function<std::uint64_t()>;

class AtomicitySentinel {
 public:
  /// Snapshots `system` (register objects before constructing the
  /// sentinel; events of unknown objects are counted, not checked).
  /// `frontier` is read before each drain (Runtime::start_sentinel passes
  /// TransactionManager::serialization_frontier(); a recorder fed by hand
  /// can pass its clock's LamportClock::frontier() when every key is a
  /// commit timestamp or a sequence).
  AtomicitySentinel(FlightRecorder& recorder, const SystemSpec& system,
                    FrontierFn frontier, SentinelOptions options = {},
                    MetricsRegistry* metrics = nullptr);
  ~AtomicitySentinel();

  AtomicitySentinel(const AtomicitySentinel&) = delete;
  AtomicitySentinel& operator=(const AtomicitySentinel&) = delete;

  /// Starts the background window thread. stop() (or destruction) joins
  /// it and runs one final flush window.
  void start();
  void stop();

  /// Runs one drain+check window synchronously (usable without start()).
  void poll();

  /// Terminal flush: one final window, then (in the vector-clock modes)
  /// seals everything still buffered so deferred certificates land and
  /// unresolved suspicion is surfaced. stop() calls this after joining
  /// the window thread; poll()-only users call it directly. Events
  /// recorded after finalize() would be treated as stragglers.
  void finalize();

  /// Adjusts the drain interval of a running sentinel.
  void set_window(std::chrono::milliseconds window);
  /// Adjusts the checkpoint threshold of a running sentinel.
  void set_checkpoint_threshold(std::size_t threshold);

  [[nodiscard]] CheckMode mode() const { return options_.mode; }

  [[nodiscard]] std::uint64_t violations() const {
    return violations_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t windows() const {
    return windows_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t events_seen() const {
    return events_seen_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t activities_checked() const {
    return activities_checked_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t stragglers() const {
    return stragglers_.load(std::memory_order_relaxed);
  }
  /// Windows certified on the fast path alone (vector-clock modes; 0
  /// under kExact).
  [[nodiscard]] std::uint64_t fastpath_windows() const {
    return fastpath_windows_.load(std::memory_order_relaxed);
  }
  /// Exact re-replays triggered by suspicious windows (kEscalating).
  [[nodiscard]] std::uint64_t escalations() const {
    return escalations_.load(std::memory_order_relaxed);
  }
  /// Activities flagged suspicious by the fast path.
  [[nodiscard]] std::uint64_t suspicious() const {
    return suspicious_.load(std::memory_order_relaxed);
  }
  /// Conflict-relation consults + vector-clock joins performed.
  [[nodiscard]] std::uint64_t vc_ops() const {
    return vc_ops_.load(std::memory_order_relaxed);
  }
  /// Epochs sealed by adopting the fast path's chain (vector-clock
  /// modes).
  [[nodiscard]] std::uint64_t clean_seals() const {
    return clean_seals_.load(std::memory_order_relaxed);
  }
  /// Epochs sealed through an exact re-replay (vector-clock modes).
  [[nodiscard]] std::uint64_t reseals() const {
    return reseals_.load(std::memory_order_relaxed);
  }
  /// Committed activities drained but not yet checked because their key
  /// is not below the last frontier read. The oldest live transaction
  /// bounds the frontier, so a long-open one makes this grow.
  [[nodiscard]] std::uint64_t held_commits() const {
    return held_commits_.load(std::memory_order_relaxed);
  }
  /// Explanation of the most recent violation ("" if none).
  [[nodiscard]] std::string last_violation() const;

 private:
  struct ActivityBuffer {
    std::vector<const SequencedEvent*> events;  // sorted before replay
    Timestamp ts{kNoTimestamp};          // initiation / hybrid commit stamp
    std::uint64_t first_commit_seq{0};
    bool committed{false};
    bool aborted{false};
    bool quarantined{false};
    bool init_open{false};  // ts currently registered in open_initiations_
    bool checked{false};    // counted in activities_checked_
    [[nodiscard]] std::uint64_t key() const {
      return ts != kNoTimestamp ? ts : first_commit_seq;
    }
  };
  /// Ring-mode drain copies, kept while buffered activities point into
  /// them.
  struct CopyBlock {
    std::vector<SequencedEvent> events;
    std::uint64_t max_seq{0};
  };

  void run_loop();
  void ingest(const std::vector<const SequencedEvent*>& batch);
  /// Exact mode: re-checks the committed activities keyed below
  /// `frontier` from the checkpoint; returns how many it left for later.
  std::uint64_t check_window(std::uint64_t frontier);
  void maybe_checkpoint(std::uint64_t frontier);
  /// Replays one committed activity against `states`; returns false (and
  /// reports) on violation.
  bool replay_activity(ActivityId id, ActivityBuffer& act,
                       SerialFold::StateMap& states);
  /// Keeps a ring-mode drain's copies and frees those no buffered
  /// activity points into any more.
  void retain_copies(std::vector<SequencedEvent> copies);
  void report_violation(const std::string& explanation);
  void publish_held(std::uint64_t held);
  /// Publishes the fast-path checker's stats to the atomics and metric
  /// counters (callers hold mu_).
  void sync_vc_stats();

  FlightRecorder& recorder_;
  const SystemSpec system_;  // snapshot at construction
  const FrontierFn frontier_;
  SentinelOptions options_;  // window/threshold adjustable at runtime

  mutable std::mutex mu_;  // guards everything below + poll() itself
  std::unique_ptr<VectorClockChecker> vc_;  // the fast path (non-kExact)
  VcStats last_vc_;  // previously published stats, for metric deltas
  SerialFold fold_;  // exact mode's replay
  std::map<ActivityId, ActivityBuffer> activities_;
  std::multiset<Timestamp> open_initiations_;  // drawn ts of live activities
  SerialFold::StateMap checkpoint_states_;
  std::uint64_t checkpoint_key_{0};
  std::size_t buffered_committed_events_{0};
  std::vector<CopyBlock> copies_;  // ring mode only
  std::string last_violation_;
  std::vector<std::string> pending_hooks_;  // violations awaiting callbacks

  std::atomic<std::uint64_t> violations_{0};
  std::atomic<std::uint64_t> windows_{0};
  std::atomic<std::uint64_t> events_seen_{0};
  std::atomic<std::uint64_t> activities_checked_{0};
  std::atomic<std::uint64_t> stragglers_{0};
  std::atomic<std::uint64_t> fastpath_windows_{0};
  std::atomic<std::uint64_t> escalations_{0};
  std::atomic<std::uint64_t> suspicious_{0};
  std::atomic<std::uint64_t> vc_ops_{0};
  std::atomic<std::uint64_t> clean_seals_{0};
  std::atomic<std::uint64_t> reseals_{0};
  std::atomic<std::uint64_t> held_commits_{0};

  Counter* violations_metric_{nullptr};
  Counter* windows_metric_{nullptr};
  Counter* events_metric_{nullptr};
  Counter* activities_metric_{nullptr};
  Counter* stragglers_metric_{nullptr};
  Counter* fastpath_windows_metric_{nullptr};
  Counter* escalations_metric_{nullptr};
  Counter* suspicious_metric_{nullptr};
  Counter* vc_ops_metric_{nullptr};
  Counter* clean_seals_metric_{nullptr};
  Counter* reseals_metric_{nullptr};
  Gauge* held_commits_metric_{nullptr};

  std::mutex thread_mu_;  // guards thread_ / running_ transitions
  std::condition_variable stop_cv_;
  bool running_{false};
  bool stop_requested_{false};
  std::atomic<bool> loop_done_{false};  // window loop exited; join is quick
  std::thread thread_;
};

}  // namespace argus

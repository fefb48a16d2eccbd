// Lamport clock ([Lamport 78], cited in §4.3.3) used to generate the
// timestamps of the static and hybrid properties, extended with the
// commit-pipeline machinery: an in-flight commit table and a visibility
// watermark.
//
// Hybrid atomicity needs commit timestamps consistent with precedes at
// every object (§4.3.3: "this can be achieved ... by using a Lamport
// clock"). The seed implementation obtained that by drawing every
// timestamp inside one global commit mutex; this clock instead makes the
// timestamp draw itself the only critical section:
//
//   * begin_commit() atomically allocates the next timestamp and
//     registers it in the in-flight table — the pipeline's "timestamp"
//     stage, a few instructions under a leaf mutex.
//   * wait_for_turn(ts) blocks until every earlier in-flight commit has
//     finished, so the "apply" stage runs in timestamp order without any
//     global lock held across logging or object work.
//   * finish_commit(ts) retires a commit (applied or aborted) and
//     advances the watermark: the largest timestamp W such that every
//     commit with timestamp <= W has fully applied (or aborted). The
//     watermark is monotone and read lock-free.
//   * read_only_begin() draws a start timestamp for a read-only activity
//     and waits until the watermark covers it, i.e. until no in-flight
//     commit below the drawn timestamp remains. This preserves §4.3.3's
//     invariant — a read-only activity at t observes exactly the
//     committed updates below t — by construction: at return, every
//     commit below t has applied, and every future commit draws a larger
//     timestamp. (We draw a fresh timestamp rather than reusing the
//     watermark value itself because the model requires timestamps to be
//     unique across activities; see TimestampRules in hist/wellformed.)
//
// The turn and coverage waits are the pipeline's hand-offs between
// committers, and most last a few microseconds. So the clock publishes
// the smallest in-flight timestamp in an atomic on its own cache line,
// rewritten under mu_ whenever the table changes, and a waiter first
// spins on that atomic for about kWaitSpin before parking on cv_ (see
// DESIGN.md "Commit pipeline"). Under a WaitPolicy nothing spins: every
// wait goes through the policy, so deterministic schedules replay
// unchanged.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <mutex>
#include <set>

#include "common/ids.h"

namespace argus {

class WaitPolicy;

class LamportClock {
 public:
  LamportClock() = default;

  /// Next strictly increasing timestamp (starts at 1; 0 is reserved).
  /// With a domain installed (set_domain), the result is additionally the
  /// smallest timestamp above the current counter that is congruent to
  /// `offset` mod `stride` — per-site clocks in the multi-site runtime
  /// draw from disjoint residue classes, so timestamps are globally
  /// unique without coordination (Lamport's site-id tiebreaker folded
  /// into the numeric value).
  Timestamp next() {
    const std::uint64_t stride = stride_.load(std::memory_order_relaxed);
    if (stride == 1) {
      return counter_.fetch_add(1, std::memory_order_relaxed) + 1;
    }
    const std::uint64_t offset = offset_.load(std::memory_order_relaxed);
    Timestamp cur = counter_.load(std::memory_order_relaxed);
    for (;;) {
      Timestamp t = (cur / stride) * stride + offset;
      if (t <= cur) t += stride;
      if (counter_.compare_exchange_weak(cur, t, std::memory_order_relaxed)) {
        return t;
      }
    }
  }

  /// Restricts this clock's timestamps to the residue class
  /// `offset` mod `stride` (offset < stride). Site i of an N-site
  /// deployment uses (i, N). The default (0, 1) is the seed behaviour:
  /// every timestamp, byte for byte. Set before concurrent use.
  void set_domain(std::uint64_t offset, std::uint64_t stride) {
    offset_.store(offset, std::memory_order_relaxed);
    stride_.store(stride == 0 ? 1 : stride, std::memory_order_relaxed);
  }

  /// Advances the clock so future timestamps exceed `observed` (message
  /// receipt in Lamport's scheme; timestamp-skew injection in ours).
  void observe(Timestamp observed) {
    Timestamp cur = counter_.load(std::memory_order_relaxed);
    while (cur < observed && !counter_.compare_exchange_weak(
                                 cur, observed, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] Timestamp now() const {
    return counter_.load(std::memory_order_relaxed);
  }

  /// Allocates a commit timestamp and registers it in the in-flight
  /// table. Every begin_commit must be balanced by exactly one
  /// finish_commit (whether the commit applied or aborted).
  Timestamp begin_commit();

  /// Blocks until `ts` is the smallest in-flight commit timestamp, i.e.
  /// every earlier commit has retired. `ts` must be in flight.
  void wait_for_turn(Timestamp ts);

  /// Retires an in-flight commit and advances the watermark past every
  /// timestamp with no in-flight commit at or below it.
  void finish_commit(Timestamp ts);

  /// Re-stamps an in-flight commit from `from` to `to` (the 2PC decision:
  /// a participant's proposed local timestamp is replaced by the
  /// coordinator's global maximum). Safe because `from` is still in
  /// flight — no commit between `from` and `to` can have applied — so the
  /// apply order stays a timestamp order. Wakes turn-waiters whose
  /// timestamp may have become the minimum.
  void restamp_commit(Timestamp from, Timestamp to);

  /// Records an externally decided commit timestamp (2PC outcome resolved
  /// during site recovery): advances the clock past `ts` and, when no
  /// in-flight commit at or below `ts` remains, the watermark too — so
  /// read-only begins at a recovered site cover replayed commits.
  void observe_committed(Timestamp ts);

  /// Draws a start timestamp for a read-only activity: a fresh timestamp
  /// t such that, on return, every commit with timestamp below t has
  /// fully applied. Blocks while in-flight commits below t drain.
  /// Equivalent to wait_covered(draw_start()).
  Timestamp read_only_begin();

  /// Draws a fresh timestamp under mu_, the lock begin_commit draws and
  /// registers under, so every commit timestamp below the result is
  /// already in the in-flight table. A read-only begin that must register
  /// its timestamp before it waits draws here, then calls wait_covered.
  Timestamp draw_start();

  /// Waits until every in-flight commit with timestamp below `ts` has
  /// retired (used when the caller supplies its own start timestamp). Call
  /// after observe(ts), so that no later commit draws a timestamp below
  /// `ts`.
  void wait_covered(Timestamp ts);

  /// Largest timestamp W such that every commit <= W has fully applied.
  [[nodiscard]] Timestamp watermark() const {
    return watermark_.load(std::memory_order_acquire);
  }

  /// The smallest commit timestamp not yet retired: the in-flight
  /// minimum, or the next timestamp to be drawn when none is in flight.
  /// Read under mu_, so a commit timestamp that has been drawn is also
  /// registered. Every retired commit timestamp lies below the result,
  /// and so does every sequence number already drawn.
  [[nodiscard]] Timestamp frontier() const;

  /// In-flight commit count (metrics).
  [[nodiscard]] std::size_t inflight() const;

  /// Turn waits (wait_for_turn) and coverage waits (read_only_begin,
  /// wait_covered) that spun out and parked on the condition variable
  /// (metrics). Waits that finish while spinning, and waits routed
  /// through a WaitPolicy, are not counted.
  [[nodiscard]] std::uint64_t turn_parks() const {
    return turn_parks_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t cover_parks() const {
    return cover_parks_.load(std::memory_order_relaxed);
  }

  /// How long a turn or coverage wait spins before it parks: about one
  /// futex sleep/wake round trip. Much longer spins burn CPU where
  /// commits wait hundreds of microseconds behind 2PC-prepared entries.
  static constexpr std::chrono::nanoseconds kWaitSpin{5000};

  /// Routes this clock's blocking waits through `policy` (nullptr resets
  /// to plain condition-variable waits). Set before concurrent use.
  void set_wait_policy(WaitPolicy* policy) {
    policy_.store(policy, std::memory_order_release);
  }

 private:
  // min_inflight_ when no commit is in flight.
  static constexpr Timestamp kNoneInflight =
      std::numeric_limits<Timestamp>::max();

  [[nodiscard]] bool covered_locked(Timestamp ts) const {
    return inflight_.empty() || *inflight_.begin() > ts;
  }

  /// Republishes min_inflight_ after a change to inflight_. Call with mu_
  /// held. The release store pairs with the acquire loads of the
  /// spinning waiters, so a waiter that sees its turn (or its coverage)
  /// also sees every apply its predecessors made before retiring.
  void publish_min_locked() {
    min_inflight_.store(
        inflight_.empty() ? kNoneInflight : *inflight_.begin(),
        std::memory_order_release);
  }

  /// Waits until every in-flight commit below `ts` has retired: spins on
  /// min_inflight_, then parks (or routes through the policy).
  void await_covered(Timestamp ts, WaitPolicy* policy);

  std::atomic<Timestamp> counter_{0};
  std::atomic<std::uint64_t> offset_{0};
  std::atomic<std::uint64_t> stride_{1};
  std::atomic<Timestamp> watermark_{0};
  std::atomic<WaitPolicy*> policy_{nullptr};

  mutable std::mutex mu_;          // guards inflight_, last_commit_
  std::condition_variable cv_;     // signalled on finish_commit
  std::set<Timestamp> inflight_;   // allocated, not yet retired commit ts
  Timestamp last_commit_{0};       // largest commit ts ever allocated

  std::atomic<std::uint64_t> turn_parks_{0};
  std::atomic<std::uint64_t> cover_parks_{0};

  // *inflight_.begin(), or kNoneInflight: written only under mu_, read
  // lock-free by spinning waiters. Its own cache line, so spinners do
  // not slow the committers that take mu_ or bump counter_.
  alignas(64) std::atomic<Timestamp> min_inflight_{kNoneInflight};
};

}  // namespace argus

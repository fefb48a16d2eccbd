// TransactionManager: begins transactions, assigns timestamps, and drives
// commit and abort across the objects a transaction touched.
//
// The commit path is a staged pipeline:
//
//   1. validate   — prepare() at every touched object; runs fully in
//                   parallel with other committers.
//   2. timestamp  — LamportClock::begin_commit(), a tiny critical section
//                   that allocates the commit timestamp and registers it
//                   in the clock's in-flight commit table.
//   3. group log  — StableLog::append_group(): concurrent committers
//                   coalesce into a single log force (write-ahead: the
//                   record is stable before anything applies). Skipped
//                   when the record has nothing to redo: at least one
//                   operation, and every one an observer at an object
//                   that serializes at commit (ManagedObject::
//                   is_observer). Such a commit's commit point is the
//                   doom check once it holds its apply turn.
//   4. apply+publish — objects apply in commit-timestamp order (the
//                   clock hands each committer its turn), then the commit
//                   publishes by retiring its table entry, which advances
//                   the monotone visibility watermark.
//
// §4.3.3's two invariants survive the loss of the seed's single global
// commit mutex: commit timestamps are consistent with precedes because
// they still come from one monotone clock drawn at commit; and a
// read-only activity with start timestamp t observes exactly the
// committed updates below t because begin(kReadOnly) waits until the
// watermark covers its (fresh, unique) timestamp — every commit below t
// has fully applied before the begin returns, and every later commit
// draws a larger timestamp. A begin draws its start timestamp under the
// manager's own mutex, in the critical section that registers the
// transaction, so the serialization frontier (serialization_frontier())
// never passes a start timestamp that is about to become a key.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "txn/clock.h"
#include "txn/deadlock.h"
#include "txn/managed_object.h"
#include "txn/stable_log.h"
#include "txn/transaction.h"

namespace argus {

class FaultInjector;
class WaitPolicy;

struct TxnStats {
  std::uint64_t begun{0};
  std::uint64_t committed{0};
  std::uint64_t aborted{0};
  std::map<AbortReason, std::uint64_t> aborted_by_reason;
};

/// Cumulative commit-pipeline observability: per-stage time, group-commit
/// batch shape, and the watermark's lag behind the clock.
struct CommitPipelineStats {
  std::uint64_t commits{0};       // pipelined commits completed
  std::uint64_t unforced_commits{0};  // of those, observer-only: no force
  std::uint64_t validate_us{0};   // cumulative time in each stage
  std::uint64_t timestamp_us{0};
  std::uint64_t log_us{0};
  std::uint64_t apply_us{0};
  std::uint64_t log_forces{0};    // group-commit flushes
  std::uint64_t log_records{0};   // records forced
  std::uint64_t max_batch{0};     // largest single-flush batch
  Timestamp watermark{0};         // snapshot at collection time
  Timestamp clock_now{0};

  [[nodiscard]] double avg_batch() const {
    return log_forces == 0
               ? 0.0
               : static_cast<double>(log_records) /
                     static_cast<double>(log_forces);
  }
  [[nodiscard]] std::uint64_t watermark_lag() const {
    return clock_now >= watermark ? clock_now - watermark : 0;
  }
};

class TransactionManager {
 public:
  TransactionManager() = default;
  TransactionManager(const TransactionManager&) = delete;
  TransactionManager& operator=(const TransactionManager&) = delete;

  /// Starts a transaction. Update transactions draw their start timestamp
  /// in the same critical section that registers them; read-only
  /// transactions register theirs first and then wait
  /// until the visibility watermark covers the drawn timestamp (see file
  /// comment).
  std::shared_ptr<Transaction> begin(TxnKind kind = TxnKind::kUpdate);

  /// Starts a transaction with a caller-chosen start timestamp (used by
  /// tests and the timestamp-skew experiments; the caller is responsible
  /// for uniqueness). Advances the clock past `start_ts`. Read-only
  /// transactions wait for watermark coverage of `start_ts`.
  std::shared_ptr<Transaction> begin_with_timestamp(TxnKind kind,
                                                    Timestamp start_ts);

  /// Starts a transaction under a caller-assigned activity id — the
  /// multi-site coordinator gives every per-site participant of one
  /// global transaction the *same* id, so the merged cross-site history
  /// has one activity per global transaction with no remapping. With
  /// `start_ts`, the clock observes it (and read-only participants wait
  /// for watermark coverage, preserving §4.3.3's snapshot invariant at
  /// every site); without, a fresh local timestamp is drawn. Throws
  /// UsageError if `id` is already active here.
  std::shared_ptr<Transaction> begin_as(
      ActivityId id, TxnKind kind,
      std::optional<Timestamp> start_ts = std::nullopt);

  // --- 2PC participant role ---------------------------------------------
  //
  // The multi-site coordinator (dist/DistRuntime) drives one local
  // transaction per participating site through:
  //
  //   submit_prepare_2pc — validate at every touched object, register
  //                      a *proposed* commit timestamp in the clock's
  //                      in-flight table, and submit the force of a
  //                      prepared record (write-ahead). Returns nullopt
  //                      on a veto (the local transaction is then already
  //                      aborted — the coordinator must abort globally).
  //   await_prepare_2pc — wait for that force. Returns the proposal, or
  //                      nullopt if the force failed or a crash dropped
  //                      it (aborted locally, as on a veto). Submitting
  //                      at every participant before awaiting any lets
  //                      the sites' forces overlap.
  //   commit_prepared  — the decision arrived: re-stamp the in-flight
  //                      entry to the coordinator's global timestamp
  //                      (max of all proposals), promote the prepared
  //                      record, and apply behind this site's watermark
  //                      exactly like a local commit.
  //   abort_prepared   — the decision was abort: discard the prepared
  //                      record and unwind.
  //   detach_prepared  — the site crashed while prepared: retire the
  //                      volatile state but leave the prepared record in
  //                      the (stable) log for recovery-time resolution.

  /// Phase 1, first half. On success the transaction stays active,
  /// holding an in-flight clock entry at its proposed timestamp
  /// (t->commit_ts()), and the caller must pass the returned pending
  /// force to await_prepare_2pc.
  std::optional<StableLog::PendingForce> submit_prepare_2pc(
      const std::shared_ptr<Transaction>& t);

  /// Phase 1, second half. On success the transaction stays active with
  /// a prepared log record at the returned proposed timestamp; the
  /// caller must follow with exactly one of commit_prepared /
  /// abort_prepared / detach_prepared. On failure the in-flight entry is
  /// retired and the transaction aborted.
  std::optional<Timestamp> await_prepare_2pc(
      const std::shared_ptr<Transaction>& t, StableLog::PendingForce pending);

  /// Phase 2, commit. `global_ts` is the coordinator's decision
  /// timestamp (>= the local proposal; equal for single-participant
  /// groups). Applies in timestamp order behind this site's watermark.
  void commit_prepared(const std::shared_ptr<Transaction>& t,
                       Timestamp global_ts);

  /// Phase 2, abort.
  void abort_prepared(const std::shared_ptr<Transaction>& t,
                      AbortReason reason = AbortReason::kUser);

  /// The participant site failed between prepare and decision delivery:
  /// release the clock entry and volatile state, keep the prepared
  /// record. Site recovery resolves it against the coordinator.
  void detach_prepared(const std::shared_ptr<Transaction>& t);

  /// Commits across all touched objects via the staged pipeline. Throws
  /// TransactionAborted (after performing the abort) if the transaction
  /// was doomed, an object vetoed in prepare, or a crash discarded its
  /// log record.
  void commit(const std::shared_ptr<Transaction>& t);

  /// Commits a read-only transaction without the pipeline: a hybrid
  /// read-only commit is pure event recording — no intentions to apply,
  /// no log record, no commit timestamp — so once the transaction is
  /// known not to be doomed this cannot fail. Cross-site coordinators
  /// rely on that: commit/abort events are tracked per activity across
  /// the merged history, so a read-only transaction spanning sites must
  /// commit everywhere or nowhere, with no participant able to fail
  /// between the first commit event and the last. Throws UsageError if
  /// the transaction is not read-only, TransactionAborted (after
  /// aborting) if it was doomed.
  void commit_read_only(const std::shared_ptr<Transaction>& t);

  /// Aborts at every touched object. Idempotent on finished transactions.
  void abort(const std::shared_ptr<Transaction>& t,
             AbortReason reason = AbortReason::kUser);

  [[nodiscard]] LamportClock& clock() { return clock_; }
  [[nodiscard]] DeadlockDetector& detector() { return detector_; }
  [[nodiscard]] StableLog& log() { return log_; }

  /// Wires (or clears, with nullptr) deterministic fault injection
  /// through the commit pipeline's named crash points, the stable log's
  /// force path, and the objects' blocking waits (which consult this via
  /// their TransactionManager). The injector must outlive the manager or
  /// be cleared first. Normally called through
  /// Runtime::set_fault_injector().
  void set_fault_injector(FaultInjector* injector) {
    fault_.store(injector, std::memory_order_release);
    log_.set_fault_injector(injector);
  }
  [[nodiscard]] FaultInjector* fault_injector() const {
    return fault_.load(std::memory_order_acquire);
  }

  /// Wires (or clears, with nullptr) the deterministic-scheduling hook
  /// through the manager's scheduling points, the clock's turn/coverage
  /// waits, and the stable log's leader/follower handoff. Objects consult
  /// it via their TransactionManager. Normally set once by a Runtime
  /// constructed in SchedMode::kDeterministic, before any activity runs.
  void set_wait_policy(WaitPolicy* policy) {
    wait_policy_.store(policy, std::memory_order_release);
    clock_.set_wait_policy(policy);
    log_.set_wait_policy(policy);
  }
  [[nodiscard]] WaitPolicy* wait_policy() const {
    return wait_policy_.load(std::memory_order_acquire);
  }

  [[nodiscard]] TxnStats stats() const;
  [[nodiscard]] CommitPipelineStats pipeline_stats() const;

  /// The serialization frontier: no activity can still take a
  /// serialization key below it. It is the minimum of the clock's
  /// frontier (in-flight commit timestamps, and the next draw) and the
  /// start timestamp of every live transaction, begun or still beginning,
  /// since a static or read-only activity serializes at its start. Every
  /// start timestamp is drawn (or observed) under mu_ and registered in
  /// the same critical section, and every commit timestamp stays in the
  /// clock's in-flight table until its commit events are recorded, so a
  /// committed activity whose key lies below a frontier read has recorded
  /// its commit before the read. The atomicity sentinel reads it before
  /// each drain.
  [[nodiscard]] Timestamp serialization_frontier() const;

  /// Dooms every active transaction and discards un-forced group-commit
  /// records (crash path): each transaction either committed fully — its
  /// record was forced, so its apply completes and recovery replays it —
  /// or is doomed and unwinds.
  void doom_all_active(AbortReason reason);

  [[nodiscard]] std::vector<std::shared_ptr<Transaction>>
  active_transactions() const;

 private:
  void commit_pipelined(const std::shared_ptr<Transaction>& t,
                        const std::vector<ManagedObject*>& objects);
  CommitLogRecord build_record(const Transaction& t,
                               const std::vector<ManagedObject*>& objects,
                               Timestamp ts) const;
  void finish_commit_bookkeeping(const std::shared_ptr<Transaction>& t,
                                 const std::vector<ManagedObject*>& objects);
  void finish_abort(const std::shared_ptr<Transaction>& t, AbortReason reason);
  /// Draws (or, with `start_ts`, observes) a start timestamp and registers
  /// the new transaction in active_, all under mu_ (the caller holds it).
  /// Throws UsageError if `id` is already active.
  std::shared_ptr<Transaction> begin_locked(
      ActivityId id, TxnKind kind, std::optional<Timestamp> start_ts);
  /// A read-only begin: registers the start timestamp in
  /// beginning_, waits for watermark coverage, then moves it to active_.
  std::shared_ptr<Transaction> begin_read_only(
      std::optional<ActivityId> id, std::optional<Timestamp> start_ts);

  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<FaultInjector*> fault_{nullptr};
  std::atomic<WaitPolicy*> wait_policy_{nullptr};
  LamportClock clock_;
  DeadlockDetector detector_;
  StableLog log_;

  // Pipeline stage counters (cumulative microseconds).
  std::atomic<std::uint64_t> pipelined_commits_{0};
  std::atomic<std::uint64_t> unforced_commits_{0};
  std::atomic<std::uint64_t> validate_us_{0};
  std::atomic<std::uint64_t> timestamp_us_{0};
  std::atomic<std::uint64_t> log_us_{0};
  std::atomic<std::uint64_t> apply_us_{0};

  struct ActiveEntry {
    std::weak_ptr<Transaction> txn;
    Timestamp start_ts{kNoTimestamp};
  };

  mutable std::mutex mu_;  // guards active_, beginning_ and stats_
  std::unordered_map<ActivityId, ActiveEntry> active_;
  // Start timestamps of read-only begins still waiting for coverage.
  std::multiset<Timestamp> beginning_;
  TxnStats stats_;
};

}  // namespace argus

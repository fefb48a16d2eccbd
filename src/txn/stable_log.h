// Simulated stable storage: a write-ahead intentions log with group
// commit.
//
// The paper integrates recoverability into the model rather than fixing a
// recovery technique; our runtime realizes recoverability with intentions
// lists in the style of [Lampson & Sturgis] (cited in §4.1): a
// transaction's operations are buffered per object and forced to the log
// *before* being applied to the committed state. crash() drops all
// volatile state; recover() replays the log, so exactly the committed
// transactions' effects survive — the all-or-nothing property, testable.
//
// Forcing is batched (group commit): concurrent committers enqueue their
// records and one of them — the flush leader — forces the whole pending
// batch in a single simulated storage round trip, instead of serializing
// one force per record. A record is stable exactly when append_group()
// returns true; drop_pending() (the crash path) discards every record
// that has not been forced yet and fails its waiting committer, so
// recovery replays exactly the forced prefix.
//
// "Stable" here is process-lifetime memory that crash() deliberately
// spares; substituting a file-backed log would not change any interface.
// set_force_delay() models the latency of a real force (fsync); the
// leader pays it once per batch.
//
// Outside group commit, a force can be split into submit_force() and an
// await: the 2PC participants' prepared records and the coordinator's
// decision record (dist/DecisionLog) all use it, so one 2PC can hold
// every device's force in flight at once. Submission fixes the force's
// outcome and its device completion time; the record becomes stable only
// in the await, and a drop_pending() in between drops it.
//
// Failure semantics under fault injection (set_fault_injector): a force
// attempt may fail transiently — the leader retries with linear backoff
// and, once retries are exhausted, the whole batch fails as an I/O error
// (AppendResult::kIoError; nothing was applied, the committers abort). A
// force may also be torn: exactly a prefix of the batch stabilizes and
// the tail is requeued at the head of the pending queue, so the tail
// committers keep waiting and either stabilize under a later leader or
// are failed by drop_pending() — a crash after a torn force therefore
// loses exactly the unstabilized suffix, never a stabilized record.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/ids.h"
#include "common/operation.h"
#include "common/value.h"

namespace argus {

class FaultInjector;
class WaitPolicy;

/// One executed operation together with the result it returned. The
/// result is logged because nondeterministic operations (Bag::remove)
/// cannot be replayed faithfully from the operation alone.
struct LoggedOp {
  Operation op;
  Value result;

  friend bool operator==(const LoggedOp&, const LoggedOp&) = default;
};

struct CommitLogRecord {
  struct Entry {
    ObjectId object;
    std::vector<LoggedOp> ops;  // redo intentions, in execution order
  };

  ActivityId txn;
  Timestamp commit_ts{kNoTimestamp};
  /// The transaction's initiation timestamp. Static-atomic objects
  /// serialize by initiation timestamp, so recovery must reinsert their
  /// operations at this position, not at the commit position.
  Timestamp start_ts{kNoTimestamp};
  std::vector<Entry> entries;
};

/// Per-record metadata handed to ManagedObject::replay during recovery.
struct ReplayContext {
  ActivityId txn;
  Timestamp commit_ts{kNoTimestamp};
  Timestamp start_ts{kNoTimestamp};
};

/// How one append_group() or await_prepared() call ended.
enum class AppendResult {
  kForced,   // the record is stable and survives crash()
  kDropped,  // drop_pending() (a crash) discarded it — abort the txn
  kIoError,  // the force failed after exhausting retries — abort the txn
};

class StableLog {
 public:
  StableLog() = default;

  /// Group commit: enqueues the record and blocks until a flush leader
  /// forces the batch containing it. kForced means the record is stable;
  /// on kDropped / kIoError nothing was applied and the caller must
  /// abort its transaction.
  [[nodiscard]] AppendResult append_group(CommitLogRecord record);

  /// Crash path: discards every record not yet forced and fails its
  /// waiting append_group() call, and every submitted force not yet
  /// awaited. Records already forced are untouched — including awaited
  /// prepared records, which is the point of 2PC: a prepared participant
  /// that crashes can still learn the outcome after recovery.
  void drop_pending();

  // --- Submit/await forces (2PC) ----------------------------------------
  //
  // A force outside group commit is split into submit and await, so a
  // caller can have several devices' forces in flight at once. Two users
  // share it. A 2PC participant's prepared record is forced under its
  // *proposed* local timestamp but not committed: it sits in a separate
  // prepared set until the coordinator's decision arrives. promote moves
  // it into the committed log re-stamped with the global decision
  // timestamp; drop discards it (abort, or presumed abort on recovery).
  // The coordinator's decision record goes straight into the committed
  // log. Once awaited, either record survives crash() / drop_pending()
  // exactly like a group-forced record; a drop_pending() between submit
  // and await drops it, so a crash never leaves half a force stable.

  /// A force that has been submitted but not yet awaited. Its outcome
  /// and completion time are fixed at submission; the record becomes
  /// stable only in await_prepared() or await_forced().
  struct PendingForce {
    CommitLogRecord record;
    AppendResult result{AppendResult::kForced};  // kForced or kIoError
    /// Device completion, in µs of the clock the log sleeps on (virtual
    /// time under a wait policy, the steady clock otherwise).
    std::int64_t done_at_us{0};
    std::uint64_t generation{0};  // drop_pending() since submit = dropped
  };

  /// Submits a record's force without waiting for it. Draws every fault
  /// decision of the force up front, in the order a blocking force would
  /// (latency, failures, retries and their backoff), and from them fixes
  /// when the simulated device completes. The caller awaits it once,
  /// with await_prepared() or await_forced().
  [[nodiscard]] PendingForce submit_force(CommitLogRecord record);

  /// Waits until a submitted force's device completion time, then makes
  /// the record stable as a prepared record (it enters
  /// prepared_records()). kIoError means the force failed after
  /// exhausting its retries; kDropped means a drop_pending() (a crash)
  /// ran after submission, so the record never became stable. On either
  /// the participant vetoes.
  [[nodiscard]] AppendResult await_prepared(PendingForce pending);

  /// As await_prepared(), but the record enters the committed log
  /// (records()): the coordinator's decision force.
  [[nodiscard]] AppendResult await_forced(PendingForce pending);

  /// Commits a prepared record: moves it into the committed log with
  /// commit_ts replaced by the coordinator's decision timestamp. Returns
  /// false if no prepared record for `txn` exists (already resolved).
  bool promote_prepared(ActivityId txn, Timestamp commit_ts);

  /// Discards a prepared record (coordinator abort / presumed abort).
  /// Returns false if no prepared record for `txn` exists.
  bool drop_prepared(ActivityId txn);

  /// Snapshot of prepared (undecided) records — what recovery must
  /// resolve against the coordinator before replaying the log.
  [[nodiscard]] std::vector<CommitLogRecord> prepared_records() const;

  /// Inserts an already-decided record directly into the committed log
  /// (the recovery catch-up copier replicating missed writes from a live
  /// peer's log).
  void adopt_record(CommitLogRecord record);

  /// Simulated per-force storage latency (fsync cost). The flush leader
  /// pays it once for the whole batch. Default: zero.
  void set_force_delay(std::chrono::microseconds delay);

  /// Test hooks: while held, flush leaders block before completing their
  /// force, so records pile up un-stable (used to aim a crash at an
  /// in-flight batch).
  void hold_flushes();
  void release_flushes();

  /// Fault injection hook: the injector decides force failures, torn
  /// tails and leader latency per force attempt. nullptr (default) = no
  /// injection. The pointer must outlive the log or be cleared first.
  void set_fault_injector(FaultInjector* injector) {
    fault_.store(injector, std::memory_order_release);
  }

  /// Routes the log's blocking waits and simulated latencies through
  /// `policy` (nullptr resets to plain waits/sleeps). Set before
  /// concurrent use.
  void set_wait_policy(WaitPolicy* policy) {
    policy_.store(policy, std::memory_order_release);
  }

  struct GroupStats {
    std::uint64_t forces{0};         // flush round trips
    std::uint64_t records_forced{0};
    std::uint64_t max_batch{0};      // largest single-force batch
    std::uint64_t force_failures{0}; // injected transient force failures
    std::uint64_t torn_forces{0};    // forces that stabilized a strict prefix
    std::uint64_t records_requeued{0};  // tail records sent back to the queue
    std::uint64_t prepared_forces{0};   // 2PC prepare records forced
    std::uint64_t prepared_promoted{0};
    std::uint64_t prepared_dropped{0};
    std::uint64_t records_adopted{0};   // catch-up records copied from a peer
  };
  [[nodiscard]] GroupStats group_stats() const;

  /// Snapshot of all forced records, ordered by commit timestamp.
  [[nodiscard]] std::vector<CommitLogRecord> records() const;

  /// The commit timestamp of `txn`'s forced record, if one exists — how
  /// a surviving peer answers "did this gid commit here?" during the
  /// cooperative termination protocol, and how coordinator recovery
  /// re-syncs its volatile ack table from participants' stable state.
  [[nodiscard]] std::optional<Timestamp> committed_ts(ActivityId txn) const;

  /// Removes `txn`'s forced record if `complete(record)` holds
  /// (decision-log checkpointing: a decision every participant has
  /// acknowledged can be truncated). Searches from the newest record.
  /// Returns false if no record for `txn` exists or it is not complete.
  bool remove_record_if(
      ActivityId txn,
      const std::function<bool(const CommitLogRecord&)>& complete);

  [[nodiscard]] std::size_t size() const;

  /// Administrative truncation (checkpointing is out of scope; tests use
  /// this to reset between scenarios).
  void clear();

 private:
  enum class SlotState { kQueued, kForced, kDropped, kFailed };

  struct Slot {
    CommitLogRecord record;
    SlotState state{SlotState::kQueued};
  };

  /// Sleeps until `pending`'s device completion, then takes the lock
  /// and sets `result`: kForced (a force is counted) if the record may
  /// become stable now.
  std::unique_lock<std::mutex> await_device(const PendingForce& pending,
                                            AppendResult& result);

  /// Inserts a forced record keeping records_ sorted by commit_ts.
  /// Batches can force out of timestamp order (a later-stamped committer
  /// may reach the log first), and recovery replays records_ in order.
  void insert_forced_locked(CommitLogRecord record);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<CommitLogRecord> records_;       // forced, commit_ts-sorted
  std::vector<CommitLogRecord> prepared_;      // forced, awaiting 2PC decision
  std::vector<std::shared_ptr<Slot>> queue_;   // awaiting force
  bool flush_active_{false};
  bool hold_flushes_{false};
  std::uint64_t generation_{0};  // bumped by drop_pending
  std::chrono::microseconds force_delay_{0};
  std::atomic<FaultInjector*> fault_{nullptr};
  std::atomic<WaitPolicy*> policy_{nullptr};
  GroupStats stats_;
};

}  // namespace argus

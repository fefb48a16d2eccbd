#include "txn/manager.h"

#include <algorithm>
#include <chrono>

#include "common/adaptive_lock.h"
#include "common/scope_guard.h"
#include "dsched/wait_policy.h"
#include "fault/fault.h"

namespace argus {

namespace {

using SteadyClock = std::chrono::steady_clock;

std::uint64_t micros_between(SteadyClock::time_point from,
                             SteadyClock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count());
}

/// False when `record`, as build_record() built it for `objects` (one
/// entry per object, in order), has nothing to redo: at least one
/// operation, every one an observer at its object. An update transaction
/// that invoked nothing still writes its record.
bool needs_force(const CommitLogRecord& record,
                 const std::vector<ManagedObject*>& objects) {
  bool any_op = false;
  for (std::size_t i = 0; i < objects.size(); ++i) {
    for (const LoggedOp& logged : record.entries[i].ops) {
      if (!objects[i]->is_observer(logged.op)) return true;
      any_op = true;
    }
  }
  return !any_op;
}

}  // namespace

std::shared_ptr<Transaction> TransactionManager::begin(TxnKind kind) {
  // Scheduling point: a deterministic run decides here who begins next.
  if (WaitPolicy* policy = wait_policy()) {
    policy->yield(LaneHint{WaitPoint::kTxnBegin});
  }
  if (kind == TxnKind::kReadOnly) {
    // Pin the snapshot to the watermark: the begin returns only once
    // every commit below the drawn timestamp has fully applied.
    return begin_read_only(std::nullopt, std::nullopt);
  }
  const ActivityId id{next_id_.fetch_add(1, std::memory_order_relaxed)};
  const auto lock = adaptive_lock(mu_);
  return begin_locked(id, kind, std::nullopt);
}

std::shared_ptr<Transaction> TransactionManager::begin_with_timestamp(
    TxnKind kind, Timestamp start_ts) {
  if (kind == TxnKind::kReadOnly) return begin_read_only(std::nullopt, start_ts);
  const ActivityId id{next_id_.fetch_add(1, std::memory_order_relaxed)};
  const auto lock = adaptive_lock(mu_);
  return begin_locked(id, kind, start_ts);
}

std::shared_ptr<Transaction> TransactionManager::begin_as(
    ActivityId id, TxnKind kind, std::optional<Timestamp> start_ts) {
  if (kind == TxnKind::kReadOnly) return begin_read_only(id, start_ts);
  const auto lock = adaptive_lock(mu_);
  auto it = active_.find(id);
  if (it != active_.end() && !it->second.txn.expired()) {
    throw UsageError("begin_as: activity " + to_string(id) +
                     " already active");
  }
  return begin_locked(id, kind, start_ts);
}

std::shared_ptr<Transaction> TransactionManager::begin_locked(
    ActivityId id, TxnKind kind, std::optional<Timestamp> start_ts) {
  Timestamp ts;
  if (start_ts.has_value()) {
    clock_.observe(*start_ts);
    ts = *start_ts;
  } else {
    ts = clock_.next();
  }
  auto t = std::make_shared<Transaction>(id, kind, ts);
  active_[id] = ActiveEntry{t, ts};
  ++stats_.begun;
  return t;
}

std::shared_ptr<Transaction> TransactionManager::begin_read_only(
    std::optional<ActivityId> id, std::optional<Timestamp> start_ts) {
  Timestamp ts;
  {
    // Registered before the coverage wait: the start timestamp is this
    // activity's serialization key, and the frontier must not pass it.
    const auto lock = adaptive_lock(mu_);
    if (start_ts.has_value()) {
      clock_.observe(*start_ts);
      ts = *start_ts;
    } else {
      ts = clock_.draw_start();
    }
    beginning_.insert(ts);
  }
  clock_.wait_covered(ts);
  const ActivityId aid =
      id.value_or(ActivityId{next_id_.fetch_add(1, std::memory_order_relaxed)});
  auto t = std::make_shared<Transaction>(aid, TxnKind::kReadOnly, ts);
  const auto lock = adaptive_lock(mu_);
  beginning_.erase(beginning_.find(ts));
  auto [it, inserted] = active_.try_emplace(aid);
  if (!inserted && id.has_value() && !it->second.txn.expired()) {
    throw UsageError("begin_as: activity " + to_string(aid) +
                     " already active");
  }
  it->second = ActiveEntry{t, ts};
  ++stats_.begun;
  return t;
}

std::optional<StableLog::PendingForce>
TransactionManager::submit_prepare_2pc(const std::shared_ptr<Transaction>& t) {
  if (t->state() != TxnState::kActive) return std::nullopt;
  if (t->doomed()) {
    finish_abort(t, t->doom_reason());
    return std::nullopt;
  }
  const std::vector<ManagedObject*> objects = t->touched();
  for (ManagedObject* o : objects) {
    if (o->needs_serial_validation(*t)) {
      // Validate-at-commit needs the apply turn held across validation,
      // which a participant cannot do while the decision is pending.
      throw UsageError(
          "submit_prepare_2pc: validate-at-commit protocols (OCC/MVCC) are "
          "not supported as 2PC participants");
    }
  }
  try {
    for (ManagedObject* o : objects) o->prepare(*t);
  } catch (const TransactionAborted& e) {
    finish_abort(t, e.reason());
    return std::nullopt;
  }
  // Proposed commit timestamp: held in flight until the decision, so no
  // later local commit can apply past it (the re-stamp in
  // commit_prepared stays an order-preserving move).
  const Timestamp ts = clock_.begin_commit();
  FaultInjector* fault = fault_injector();
  if (fault != nullptr) fault->maybe_crash(FaultSite::kPreForce);
  if (t->doomed()) {
    clock_.finish_commit(ts);
    finish_abort(t, t->doom_reason());
    return std::nullopt;
  }
  t->set_commit_ts(ts);
  return log_.submit_force(build_record(*t, objects, ts));
}

std::optional<Timestamp> TransactionManager::await_prepare_2pc(
    const std::shared_ptr<Transaction>& t, StableLog::PendingForce pending) {
  const AppendResult forced = log_.await_prepared(std::move(pending));
  if (forced != AppendResult::kForced) {
    clock_.finish_commit(t->commit_ts());
    finish_abort(t, forced == AppendResult::kDropped ? AbortReason::kCrash
                                                     : AbortReason::kIoError);
    return std::nullopt;
  }
  return t->commit_ts();
}

void TransactionManager::commit_prepared(const std::shared_ptr<Transaction>& t,
                                         Timestamp global_ts) {
  const Timestamp local_ts = t->commit_ts();
  const std::vector<ManagedObject*> objects = t->touched();
  if (local_ts != global_ts) {
    clock_.restamp_commit(local_ts, global_ts);
    t->set_commit_ts(global_ts);
  }
  log_.promote_prepared(t->id(), global_ts);
  clock_.wait_for_turn(global_ts);
  FaultInjector* fault = fault_injector();
  bool first_apply = true;
  for (ManagedObject* o : objects) {
    // Same torn-apply crash window as the local pipeline; the promoted
    // record is already stable, so recovery makes the apply whole.
    if (!first_apply && fault != nullptr) {
      fault->maybe_crash(FaultSite::kMidApply);
    }
    first_apply = false;
    o->commit(*t, global_ts);
  }
  if (fault != nullptr) fault->maybe_crash(FaultSite::kPostApplyPreWatermark);
  t->set_state(TxnState::kCommitted);
  clock_.finish_commit(global_ts);
  pipelined_commits_.fetch_add(1, std::memory_order_relaxed);
  finish_commit_bookkeeping(t, objects);
}

void TransactionManager::abort_prepared(const std::shared_ptr<Transaction>& t,
                                        AbortReason reason) {
  log_.drop_prepared(t->id());
  const Timestamp ts = t->commit_ts();
  if (ts != kNoTimestamp) clock_.finish_commit(ts);
  if (t->state() == TxnState::kActive) finish_abort(t, reason);
}

void TransactionManager::detach_prepared(
    const std::shared_ptr<Transaction>& t) {
  const Timestamp ts = t->commit_ts();
  if (ts != kNoTimestamp) clock_.finish_commit(ts);
  // Retire the volatile incarnation *silently* — no abort events. The
  // global outcome is still open (or is a commit the coordinator will
  // re-deliver through recovery), so recording <abort,x,a> here could
  // contradict commit events recorded elsewhere and make the merged
  // history ill-formed. The crash already reset the objects' volatile
  // state; the prepared record carries everything recovery needs.
  if (t->state() == TxnState::kActive) {
    t->set_state(TxnState::kAborted);
    detector_.remove(t->id());
    const auto lock = adaptive_lock(mu_);
    active_.erase(t->id());
  }
}

void TransactionManager::commit(const std::shared_ptr<Transaction>& t) {
  // Scheduling point: commit order is a schedule choice, not an accident
  // of OS thread timing.
  if (WaitPolicy* policy = wait_policy()) {
    policy->yield(LaneHint{WaitPoint::kTxnCommit});
  }
  if (t->state() != TxnState::kActive) {
    throw UsageError("commit of finished transaction " + to_string(t->id()));
  }
  if (t->doomed()) {
    const AbortReason reason = t->doom_reason();
    finish_abort(t, reason);
    throw TransactionAborted(t->id(), reason);
  }

  const std::vector<ManagedObject*> objects = t->touched();

  // Stage 1: validate. An object may veto by throwing. Runs without any
  // global lock.
  const auto validate_start = SteadyClock::now();
  try {
    for (ManagedObject* o : objects) o->prepare(*t);
  } catch (const TransactionAborted& e) {
    finish_abort(t, e.reason());
    throw;
  }
  validate_us_.fetch_add(
      micros_between(validate_start, SteadyClock::now()),
      std::memory_order_relaxed);

  commit_pipelined(t, objects);

  finish_commit_bookkeeping(t, objects);
}

void TransactionManager::commit_read_only(
    const std::shared_ptr<Transaction>& t) {
  if (!t->read_only()) {
    throw UsageError("commit_read_only on update transaction " +
                     to_string(t->id()));
  }
  if (t->state() != TxnState::kActive) {
    throw UsageError("commit of finished transaction " + to_string(t->id()));
  }
  if (t->doomed()) {
    const AbortReason reason = t->doom_reason();
    finish_abort(t, reason);
    throw TransactionAborted(t->id(), reason);
  }
  // Past this point nothing can fail: a read-only commit installs no
  // intentions, forces no log record, and carries no timestamp — each
  // object just records its plain commit event. No validation either: a
  // read-only transaction reads a watermark-covered snapshot, so there
  // is nothing left to veto.
  const std::vector<ManagedObject*> objects = t->touched();
  for (ManagedObject* o : objects) o->commit(*t, kNoTimestamp);
  t->set_state(TxnState::kCommitted);
  finish_commit_bookkeeping(t, objects);
}

CommitLogRecord TransactionManager::build_record(
    const Transaction& t, const std::vector<ManagedObject*>& objects,
    Timestamp ts) const {
  CommitLogRecord record;
  record.txn = t.id();
  record.commit_ts = ts;
  record.start_ts = t.start_ts();
  for (ManagedObject* o : objects) {
    CommitLogRecord::Entry entry;
    entry.object = o->id();
    entry.ops = o->intentions_of(t);
    record.entries.push_back(std::move(entry));
  }
  return record;
}

void TransactionManager::commit_pipelined(
    const std::shared_ptr<Transaction>& t,
    const std::vector<ManagedObject*>& objects) {
  // Stage 2: timestamp — the only global critical section left.
  const auto stamp_start = SteadyClock::now();
  const Timestamp ts = clock_.begin_commit();
  timestamp_us_.fetch_add(micros_between(stamp_start, SteadyClock::now()),
                          std::memory_order_relaxed);

  // Whatever happens below, the in-flight table entry must be retired, or
  // the watermark (and every later committer's apply turn) stalls.
  bool retired = false;
  const auto retire = on_scope_exit([&] {
    if (!retired) clock_.finish_commit(ts);
  });

  // Crash point: timestamp drawn, nothing forced. A crash fired here
  // dooms this transaction too, so the check below unwinds it before the
  // record could reach the log.
  FaultInjector* fault = fault_injector();
  if (fault != nullptr) fault->maybe_crash(FaultSite::kPreForce);

  if (t->doomed()) {
    const AbortReason reason = t->doom_reason();
    finish_abort(t, reason);
    throw TransactionAborted(t->id(), reason);
  }
  t->set_commit_ts(ts);

  // Stage 2.5: serial validation (OCC/MVCC only). The parallel prepare()
  // stage cannot soundly decide validate-at-commit — another committer's
  // apply may still be in flight — so objects that need it get their
  // final check at the pipeline's serialization point: take the commit
  // turn *before* the log force (every earlier commit has fully applied,
  // no later one can apply first) and let each touched object veto.
  // A veto aborts before anything was forced, so the write-ahead
  // invariant is untouched; the scope guard above retires the in-flight
  // entry. Modes without serial validation keep the force-then-turn
  // order below and its group-commit batching.
  bool serial_validation = false;
  for (ManagedObject* o : objects) {
    if (o->needs_serial_validation(*t)) {
      serial_validation = true;
      break;
    }
  }
  if (serial_validation) {
    const auto serial_start = SteadyClock::now();
    clock_.wait_for_turn(ts);
    try {
      for (ManagedObject* o : objects) o->validate_serial(*t);
    } catch (const TransactionAborted& e) {
      finish_abort(t, e.reason());
      throw;
    }
    validate_us_.fetch_add(micros_between(serial_start, SteadyClock::now()),
                           std::memory_order_relaxed);
  }

  // Stage 3: group-commit log force, skipped when there is nothing to
  // redo. Write-ahead: the record is stable before anything applies.
  // Concurrent committers coalesce into one force; a crash discards
  // un-forced records and fails the append, and an exhausted-retries
  // force failure fails them as an I/O error.
  CommitLogRecord record = build_record(*t, objects, ts);
  const bool force = needs_force(record, objects);
  if (force) {
    const auto log_start = SteadyClock::now();
    const AppendResult forced = log_.append_group(std::move(record));
    log_us_.fetch_add(micros_between(log_start, SteadyClock::now()),
                      std::memory_order_relaxed);
    if (forced != AppendResult::kForced) {
      const AbortReason reason = forced == AppendResult::kIoError
                                     ? AbortReason::kIoError
                                     : AbortReason::kCrash;
      finish_abort(t, reason);
      throw TransactionAborted(t->id(), reason);
    }

    // Crash point: the record is stable but nothing has applied. The
    // apply below still completes — a forced record is committed by
    // definition, and recovery replays it — which is exactly the window
    // this crash point exists to exercise.
    if (fault != nullptr) fault->maybe_crash(FaultSite::kPostForcePreApply);
  }

  // Stage 4: apply + publish. Objects apply in commit-timestamp order —
  // each committer waits for every earlier in-flight commit to retire, so
  // per-object committed logs stay timestamp-sorted and queue-style
  // applies see commits in timestamp order. Retiring
  // advances the visibility watermark, which publishes the commit to
  // read-only begins.
  const auto apply_start = SteadyClock::now();
  if (!serial_validation) clock_.wait_for_turn(ts);  // else turn already held
  if (!force && t->doomed()) {
    // An unforced commit has no record for a crash to drop, so its
    // commit point is here, with the turn held: every earlier commit has
    // forced and retired. A crash that fired while this transaction
    // waited for the turn aborts it, as drop_pending() aborts a record
    // still waiting for its force.
    const AbortReason reason = t->doom_reason();
    finish_abort(t, reason);
    throw TransactionAborted(t->id(), reason);
  }
  bool first_apply = true;
  for (ManagedObject* o : objects) {
    // Crash point: some of this transaction's objects applied, some not
    // — the torn-apply window recovery must make whole.
    if (!first_apply && fault != nullptr) {
      fault->maybe_crash(FaultSite::kMidApply);
    }
    first_apply = false;
    o->commit(*t, ts);
  }
  // Crash point: fully applied, watermark not yet advanced — read-only
  // begins must not observe this commit as covered yet.
  if (fault != nullptr) fault->maybe_crash(FaultSite::kPostApplyPreWatermark);
  t->set_state(TxnState::kCommitted);
  retired = true;
  clock_.finish_commit(ts);
  apply_us_.fetch_add(micros_between(apply_start, SteadyClock::now()),
                      std::memory_order_relaxed);
  pipelined_commits_.fetch_add(1, std::memory_order_relaxed);
  if (!force) unforced_commits_.fetch_add(1, std::memory_order_relaxed);
}

void TransactionManager::finish_commit_bookkeeping(
    const std::shared_ptr<Transaction>& t,
    const std::vector<ManagedObject*>& objects) {
  detector_.remove(t->id());
  {
    const auto lock = adaptive_lock(mu_);
    active_.erase(t->id());
    ++stats_.committed;
  }
  // Effects became visible: blocked transactions may now proceed.
  for (ManagedObject* o : objects) o->wake_all();
}

void TransactionManager::abort(const std::shared_ptr<Transaction>& t,
                               AbortReason reason) {
  if (t->state() != TxnState::kActive) return;
  finish_abort(t, reason);
}

void TransactionManager::finish_abort(const std::shared_ptr<Transaction>& t,
                                      AbortReason reason) {
  const std::vector<ManagedObject*> objects = t->touched();
  for (ManagedObject* o : objects) o->abort(*t);
  t->set_state(TxnState::kAborted);
  detector_.remove(t->id());
  {
    const auto lock = adaptive_lock(mu_);
    active_.erase(t->id());
    ++stats_.aborted;
    ++stats_.aborted_by_reason[reason];
  }
  for (ManagedObject* o : objects) o->wake_all();
}

Timestamp TransactionManager::serialization_frontier() const {
  const auto lock = adaptive_lock(mu_);
  Timestamp frontier = clock_.frontier();
  for (const auto& [id, entry] : active_) {
    // A transaction dropped without finishing records nothing more.
    if (!entry.txn.expired()) frontier = std::min(frontier, entry.start_ts);
  }
  if (!beginning_.empty()) frontier = std::min(frontier, *beginning_.begin());
  return frontier;
}

TxnStats TransactionManager::stats() const {
  const auto lock = adaptive_lock(mu_);
  return stats_;
}

CommitPipelineStats TransactionManager::pipeline_stats() const {
  CommitPipelineStats out;
  out.commits = pipelined_commits_.load(std::memory_order_relaxed);
  out.unforced_commits = unforced_commits_.load(std::memory_order_relaxed);
  out.validate_us = validate_us_.load(std::memory_order_relaxed);
  out.timestamp_us = timestamp_us_.load(std::memory_order_relaxed);
  out.log_us = log_us_.load(std::memory_order_relaxed);
  out.apply_us = apply_us_.load(std::memory_order_relaxed);
  const StableLog::GroupStats log_stats = log_.group_stats();
  out.log_forces = log_stats.forces;
  out.log_records = log_stats.records_forced;
  out.max_batch = log_stats.max_batch;
  out.watermark = clock_.watermark();
  out.clock_now = clock_.now();
  return out;
}

void TransactionManager::doom_all_active(AbortReason reason) {
  std::vector<std::shared_ptr<Transaction>> doomed;
  {
    const auto lock = adaptive_lock(mu_);
    for (auto& [id, entry] : active_) {
      if (auto t = entry.txn.lock()) doomed.push_back(std::move(t));
    }
  }
  for (const auto& t : doomed) {
    t->doom(reason);
    if (ManagedObject* o = t->waiting_at()) o->wake_all();
  }
  // Drain the pipeline: any record not yet forced is lost, and its
  // committer unwinds with an abort. Records already forced complete
  // their apply, so recovery replays exactly the forced prefix.
  log_.drop_pending();
}

std::vector<std::shared_ptr<Transaction>>
TransactionManager::active_transactions() const {
  const auto lock = adaptive_lock(mu_);
  std::vector<std::shared_ptr<Transaction>> out;
  for (const auto& [id, entry] : active_) {
    if (auto t = entry.txn.lock()) out.push_back(std::move(t));
  }
  return out;
}

}  // namespace argus

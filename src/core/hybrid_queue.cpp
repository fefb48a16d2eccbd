#include "core/hybrid_queue.h"

namespace argus {

HybridFifoQueue::HybridFifoQueue(ObjectId oid, std::string name,
                                 TransactionManager& tm,
                                 EventSink* recorder)
    : ObjectBase(oid, std::move(name), tm, recorder) {}

Value HybridFifoQueue::invoke(Transaction& txn, const Operation& op) {
  txn.ensure_active();
  txn.touch(this);
  sched_point(op);
  if (txn.read_only()) return invoke_read_only(txn, op);
  return invoke_update(txn, op);
}

Value HybridFifoQueue::invoke_read_only(Transaction& txn,
                                        const Operation& op) {
  if (!FifoQueueAdt::is_read_only(op)) {
    throw UsageError("read-only transaction invoked mutator " + to_string(op) +
                     " on " + name());
  }
  const Timestamp t = txn.start_ts();
  const auto lock = adaptive_lock(mu_);
  if (initiated_.insert(txn.id()).second) {
    record(initiate(id(), txn.id(), t));
  }
  record_invoke(txn.id(), op);

  // Snapshot below t; the queue is deterministic, so the candidate set
  // is a singleton.
  const auto& states = log_.states_below(t);
  if (states.empty()) {
    throw UsageError("committed log not replayable at " + name());
  }
  const auto outcomes = FifoQueueAdt::step(states.front(), op);
  if (outcomes.empty()) {
    throw UsageError("read-only operation " + to_string(op) +
                     " not enabled at snapshot of " + name());
  }
  record(respond(id(), txn.id(), outcomes.front().first));
  return outcomes.front().first;
}

Value HybridFifoQueue::invoke_update(Transaction& txn, const Operation& op) {
  auto lock = adaptive_lock(mu_);
  record_invoke(txn.id(), op);

  auto& mine = intentions_[txn.id()];
  mine.owner = txn.weak_from_this();

  Value result;
  if (op.name == "enqueue" && op.args.size() == 1 && op.args[0].is_int()) {
    // Enqueues never conflict: ordering is fixed at commit.
    result = ok();
    mine.ops.push_back(LoggedOp{op, result});
  } else if (op.name == "dequeue" && op.args.empty()) {
    // A dequeue may only consume a *committed* item: the transaction's
    // own tentative enqueues cannot be served, because another
    // transaction's enqueue could commit first and would then precede
    // them in the queue. While the visible committed remainder is empty,
    // or another transaction holds tentative dequeues (its abort would
    // restore the front), wait.
    await(
        lock, txn,
        [&] {
          return !other_has_tentative_dequeue(txn.id()) &&
                 mine.dequeued < committed_.size();
        },
        [&] { return dequeue_blockers(txn.id()); });
    result = Value{committed_[mine.dequeued]};
    mine.ops.push_back(LoggedOp{op, result});
    ++mine.dequeued;
  } else if (op.name == "size" && op.args.empty()) {
    // A size result pins the whole queue contents at this transaction's
    // commit position, which later committers could invalidate; the
    // commit-order queue therefore only offers size to read-only
    // transactions (which evaluate it against a timestamp snapshot).
    throw UsageError(
        "HybridFifoQueue: size is only available to read-only "
        "transactions; use Runtime::begin_read_only");
  } else {
    throw UsageError("unknown queue operation " + to_string(op));
  }

  record(respond(id(), txn.id(), result));
  return result;
}

bool HybridFifoQueue::other_has_tentative_dequeue(ActivityId self) const {
  for (const auto& [aid, entry] : intentions_) {
    if (aid != self && entry.dequeued > 0) return true;
  }
  return false;
}

std::vector<std::shared_ptr<Transaction>> HybridFifoQueue::dequeue_blockers(
    ActivityId self) {
  std::vector<std::shared_ptr<Transaction>> out;
  for (const auto& [aid, entry] : intentions_) {
    if (aid == self || entry.ops.empty()) continue;
    if (auto t = entry.owner.lock(); t && t->active()) {
      out.push_back(std::move(t));
    }
  }
  return out;
}

void HybridFifoQueue::prepare(Transaction& txn) { txn.ensure_active(); }

void HybridFifoQueue::commit(Transaction& txn, Timestamp commit_ts) {
  const auto lock = adaptive_lock(mu_);
  if (txn.read_only()) {
    initiated_.erase(txn.id());
    record(argus::commit(id(), txn.id()));
    return;
  }
  auto it = intentions_.find(txn.id());
  if (it != intentions_.end()) {
    // Apply: drop the committed items this transaction dequeued, then
    // append its enqueues in its execution order.
    const std::size_t drop = std::min(it->second.dequeued, committed_.size());
    committed_.erase(committed_.begin(),
                     committed_.begin() + static_cast<std::ptrdiff_t>(drop));
    for (LoggedOp& logged : it->second.ops) {
      if (logged.op.name == "enqueue") {
        committed_.push_back(logged.op.args[0].as_int());
      }
      log_.append(commit_ts, std::move(logged));
    }
    intentions_.erase(it);
  }
  record(commit_at(id(), txn.id(), commit_ts));
  notify_object();
}

void HybridFifoQueue::abort(Transaction& txn) {
  const auto lock = adaptive_lock(mu_);
  if (txn.read_only()) initiated_.erase(txn.id());
  intentions_.erase(txn.id());
  record(argus::abort(id(), txn.id()));
  notify_object();
}

std::vector<LoggedOp> HybridFifoQueue::intentions_of(
    const Transaction& txn) const {
  const auto lock = adaptive_lock(mu_);
  auto it = intentions_.find(txn.id());
  return it == intentions_.end() ? std::vector<LoggedOp>{} : it->second.ops;
}

void HybridFifoQueue::reset_for_recovery() {
  const auto lock = adaptive_lock(mu_);
  committed_.clear();
  log_.clear();
  intentions_.clear();
  initiated_.clear();
  notify_object();
}

void HybridFifoQueue::replay(const ReplayContext& ctx, const LoggedOp& logged) {
  const auto lock = adaptive_lock(mu_);
  if (logged.op.name == "enqueue") {
    committed_.push_back(logged.op.args[0].as_int());
  } else if (logged.op.name == "dequeue" && !committed_.empty()) {
    committed_.erase(committed_.begin());
  }
  log_.append(ctx.commit_ts, logged);
}

std::vector<std::int64_t> HybridFifoQueue::committed_items() const {
  const auto lock = adaptive_lock(mu_);
  return committed_;
}

std::size_t HybridFifoQueue::initiated_count() const {
  const auto lock = adaptive_lock(mu_);
  return initiated_.size();
}

}  // namespace argus

#include "core/hybrid_bag.h"

namespace argus {

HybridBag::HybridBag(ObjectId oid, std::string name, TransactionManager& tm,
                     EventSink* recorder)
    : ObjectBase(oid, std::move(name), tm, recorder) {}

Value HybridBag::invoke(Transaction& txn, const Operation& op) {
  txn.ensure_active();
  txn.touch(this);
  sched_point(op);
  if (txn.read_only()) return invoke_read_only(txn, op);
  return invoke_update(txn, op);
}

Value HybridBag::invoke_read_only(Transaction& txn, const Operation& op) {
  if (!BagAdt::is_read_only(op)) {
    throw UsageError("read-only transaction invoked mutator " + to_string(op) +
                     " on " + name());
  }
  const Timestamp t = txn.start_ts();
  const auto lock = adaptive_lock(mu_);
  if (initiated_.insert(txn.id()).second) {
    record(initiate(id(), txn.id(), t));
  }
  record_invoke(txn.id(), op);

  // Snapshot below t. Every logged remove result names its element, so
  // the candidate set is a singleton.
  const auto& states = log_.states_below(t);
  if (states.empty()) {
    throw UsageError("committed log not replayable at " + name());
  }
  const auto outcomes = BagAdt::step(states.front(), op);
  if (outcomes.empty()) {
    throw UsageError("read-only operation " + to_string(op) +
                     " not enabled at snapshot of " + name());
  }
  record(respond(id(), txn.id(), outcomes.front().first));
  return outcomes.front().first;
}

Value HybridBag::invoke_update(Transaction& txn, const Operation& op) {
  auto lock = adaptive_lock(mu_);
  record_invoke(txn.id(), op);

  auto& mine = intentions_[txn.id()];
  mine.owner = txn.weak_from_this();

  Value result;
  if (op.name == "insert" && op.args.size() == 1 && op.args[0].is_int()) {
    result = ok();
    mine.ops.push_back(LoggedOp{op, result});
  } else if (op.name == "remove" && op.args.empty()) {
    // Claim any committed unclaimed instance; the nondeterministic
    // specification makes any choice serially acceptable, and claims
    // are disjoint so concurrent removers never conflict.
    std::optional<std::int64_t> pick;
    await(
        lock, txn, [&] { return (pick = unclaimed_element()).has_value(); },
        [&] { return blockers(txn.id()); });
    result = Value{*pick};
    ++mine.claims[*pick];
    mine.ops.push_back(LoggedOp{op, result});
  } else if (op.name == "size" && op.args.empty()) {
    throw UsageError(
        "HybridBag: size is only available to read-only transactions; use "
        "Runtime::begin_read_only");
  } else {
    throw UsageError("unknown bag operation " + to_string(op));
  }

  record(respond(id(), txn.id(), result));
  return result;
}

std::optional<std::int64_t> HybridBag::unclaimed_element() const {
  for (const auto& [elem, count] : committed_) {
    std::int64_t claimed = 0;
    for (const auto& [aid, entry] : intentions_) {
      auto it = entry.claims.find(elem);
      if (it != entry.claims.end()) claimed += it->second;
    }
    if (claimed < count) return elem;
  }
  return std::nullopt;
}

std::vector<std::shared_ptr<Transaction>> HybridBag::blockers(
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

void HybridBag::prepare(Transaction& txn) { txn.ensure_active(); }

void HybridBag::commit(Transaction& txn, Timestamp commit_ts) {
  const auto lock = adaptive_lock(mu_);
  if (txn.read_only()) {
    initiated_.erase(txn.id());
    record(argus::commit(id(), txn.id()));
    return;
  }
  auto it = intentions_.find(txn.id());
  if (it != intentions_.end()) {
    for (const auto& [elem, count] : it->second.claims) {
      auto cit = committed_.find(elem);
      if (cit != committed_.end()) {
        cit->second -= count;
        if (cit->second <= 0) committed_.erase(cit);
      }
    }
    for (LoggedOp& logged : it->second.ops) {
      if (logged.op.name == "insert") {
        ++committed_[logged.op.args[0].as_int()];
      }
      log_.append(commit_ts, std::move(logged));
    }
    intentions_.erase(it);
  }
  record(commit_at(id(), txn.id(), commit_ts));
  notify_object();
}

void HybridBag::abort(Transaction& txn) {
  const auto lock = adaptive_lock(mu_);
  if (txn.read_only()) initiated_.erase(txn.id());
  intentions_.erase(txn.id());  // claims released with the entry
  record(argus::abort(id(), txn.id()));
  notify_object();
}

std::vector<LoggedOp> HybridBag::intentions_of(const Transaction& txn) const {
  const auto lock = adaptive_lock(mu_);
  auto it = intentions_.find(txn.id());
  return it == intentions_.end() ? std::vector<LoggedOp>{} : it->second.ops;
}

void HybridBag::reset_for_recovery() {
  const auto lock = adaptive_lock(mu_);
  committed_.clear();
  log_.clear();
  intentions_.clear();
  initiated_.clear();
  notify_object();
}

void HybridBag::replay(const ReplayContext& ctx, const LoggedOp& logged) {
  const auto lock = adaptive_lock(mu_);
  if (logged.op.name == "insert") {
    ++committed_[logged.op.args[0].as_int()];
  } else if (logged.op.name == "remove" && logged.result.is_int()) {
    auto it = committed_.find(logged.result.as_int());
    if (it != committed_.end() && --it->second <= 0) committed_.erase(it);
  }
  log_.append(ctx.commit_ts, logged);
}

std::map<std::int64_t, std::int64_t> HybridBag::committed_contents() const {
  const auto lock = adaptive_lock(mu_);
  return committed_;
}

std::size_t HybridBag::initiated_count() const {
  const auto lock = adaptive_lock(mu_);
  return initiated_.size();
}

}  // namespace argus

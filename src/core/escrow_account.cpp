#include "core/escrow_account.h"

namespace argus {

EscrowAccount::EscrowAccount(ObjectId oid, std::string name,
                             TransactionManager& tm, EventSink* recorder)
    : ObjectBase(oid, std::move(name), tm, recorder) {}

Value EscrowAccount::invoke(Transaction& txn, const Operation& op) {
  txn.ensure_active();
  if (txn.read_only() && !BankAccountAdt::is_read_only(op)) {
    throw UsageError("read-only transaction invoked mutator " + to_string(op) +
                     " on " + name());
  }
  txn.touch(this);
  sched_point(op);

  auto lock = adaptive_lock(mu_);
  record_invoke(txn.id(), op);

  std::optional<Value> result;
  await(
      lock, txn, [&] { return (result = try_admit(txn, op)).has_value(); },
      [&] { return blockers(txn.id()); });

  record(respond(id(), txn.id(), *result));
  return *result;
}

std::optional<Value> EscrowAccount::try_admit(Transaction& txn,
                                              const Operation& op) {
  auto& mine = intentions_[txn.id()];
  mine.owner = txn.weak_from_this();

  // Aggregate the other active transactions' pending effects.
  std::int64_t others_out = 0;
  std::int64_t others_in = 0;
  bool others_balance_exact = false;
  bool others_any_exact = false;
  bool others_state_change = false;
  for (const auto& [aid, entry] : intentions_) {
    if (aid == txn.id()) continue;
    others_out += entry.out;
    others_in += entry.in;
    others_balance_exact |= entry.balance_exact;
    others_any_exact |= entry.balance_exact || entry.insufficient_exact;
    others_state_change |= entry.in > 0 || entry.out > 0;
  }
  const std::int64_t own_net = mine.in - mine.out;

  if (op.name == "balance" && op.args.empty()) {
    // An exact observation: valid in every order only while no other
    // transaction has pending state changes. (Pending *failed*
    // withdrawals don't change state and don't disturb us.)
    if (others_state_change) return std::nullopt;
    mine.balance_exact = true;
    const Value result{committed_ + own_net};
    mine.ops.push_back(LoggedOp{account::balance(), result});
    return result;
  }

  if (op.args.size() != 1 || !op.args[0].is_int()) {
    throw UsageError("unknown account operation " + to_string(op));
  }
  const std::int64_t n = op.args[0].as_int();
  if (n < 0) throw UsageError("negative amount: " + to_string(op));

  if (op.name == "deposit") {
    // A deposit raises the balance: it would invalidate any exact
    // observation held by another active transaction (a balance result,
    // or an insufficient_funds result it could flip to success).
    if (others_any_exact) return std::nullopt;
    mine.in += n;
    mine.ops.push_back(LoggedOp{account::deposit(n), ok()});
    return ok();
  }

  if (op.name == "withdraw") {
    const std::int64_t low = committed_ - others_out + own_net;
    const std::int64_t high = committed_ + others_in + own_net;
    if (n <= low && !others_balance_exact) {
      // Covered in every serialization; lowering the balance cannot flip
      // another's insufficient result, but would invalidate a balance
      // observation.
      mine.out += n;
      mine.ops.push_back(LoggedOp{account::withdraw(n), ok()});
      return ok();
    }
    if (n > high) {
      // Fails in every serialization; no state change, so nothing held
      // by others is disturbed. Pin as an exact observation so later
      // deposits can't invalidate it.
      mine.insufficient_exact = true;
      const Value result{kInsufficientFunds};
      mine.ops.push_back(LoggedOp{account::withdraw(n), result});
      return result;
    }
    return std::nullopt;  // outcome depends on in-flight transactions: wait
  }

  throw UsageError("unknown account operation " + to_string(op));
}

std::vector<std::shared_ptr<Transaction>> EscrowAccount::blockers(
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

void EscrowAccount::prepare(Transaction& txn) { txn.ensure_active(); }

void EscrowAccount::commit(Transaction& txn, Timestamp /*commit_ts*/) {
  const auto lock = adaptive_lock(mu_);
  auto it = intentions_.find(txn.id());
  if (it != intentions_.end()) {
    committed_ += it->second.in - it->second.out;
    intentions_.erase(it);
  }
  record(argus::commit(id(), txn.id()));
  notify_object();
}

void EscrowAccount::abort(Transaction& txn) {
  const auto lock = adaptive_lock(mu_);
  intentions_.erase(txn.id());
  record(argus::abort(id(), txn.id()));
  notify_object();
}

std::vector<LoggedOp> EscrowAccount::intentions_of(
    const Transaction& txn) const {
  const auto lock = adaptive_lock(mu_);
  auto it = intentions_.find(txn.id());
  return it == intentions_.end() ? std::vector<LoggedOp>{} : it->second.ops;
}

void EscrowAccount::reset_for_recovery() {
  const auto lock = adaptive_lock(mu_);
  committed_ = 0;
  intentions_.clear();
  notify_object();
}

void EscrowAccount::replay(const ReplayContext&, const LoggedOp& logged) {
  const auto lock = adaptive_lock(mu_);
  if (logged.op.name == "deposit") {
    committed_ += logged.op.args[0].as_int();
  } else if (logged.op.name == "withdraw" && logged.result == ok()) {
    committed_ -= logged.op.args[0].as_int();
  }
  // balance reads and failed withdrawals have no redo effect.
}

std::int64_t EscrowAccount::committed_balance() const {
  const auto lock = adaptive_lock(mu_);
  return committed_;
}

}  // namespace argus

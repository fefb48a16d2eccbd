// DynamicAtomicObject<Adt>: an online implementation of dynamic atomicity
// (§4.1) for an arbitrary ADT.
//
// Protocol (intentions lists + data-dependent admission):
//   * Each active transaction's executed operations are buffered in an
//     intentions list; its view is the committed state plus its own
//     intentions. Nothing tentative is ever visible to other
//     transactions, which is what makes aborts free (discard the list) —
//     the [Lampson & Sturgis]-style recovery the paper pairs with locking.
//   * A new operation is admitted only if every recorded result stays
//     reproducible under *every* subset and ordering of the concurrently
//     active transactions (core/validation.h) — the §4.1 requirement that
//     perm(h) be serializable in every precedes-consistent order,
//     restricted to what can still change. Otherwise the caller blocks
//     until conflicting transactions commit or abort (lock-style waiting,
//     with deadlock detection).
//   * Commit folds the intentions into the committed state; the commit
//     event is recorded inside the same critical section, so any response
//     that observed the commit is ordered after it in the history —
//     making the recorded precedes relation faithful.
//
// The admission test subsumes commutativity locking: a fast path admits
// operations that statically commute with everything pending; the exact
// test additionally admits the §5.1 interleavings (concurrent covered
// withdraws, equal-value enqueues) that conflict tables must reject.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/object_base.h"
#include "core/validation.h"
#include "spec/adt_spec.h"

namespace argus {

/// How much data-dependent information the admission test may use — the
/// ablation axis of bench_ablation. kConflictTableOnly reduces the object
/// to classical commutativity locking (the §5.1 comparators) while
/// keeping everything else identical; kExact adds the state-dependent
/// all-orders validation on top of the fast path.
enum class AdmissionMode {
  kExact,
  kConflictTableOnly,
  /// Admits every enabled operation without any validation — a
  /// deliberately broken protocol. Exists only as a seeded regression for
  /// the deterministic-schedule explorer: runs under it must produce
  /// atomicity violations that the checkers catch and the explorer
  /// minimizes to a replayable schedule. Never use outside tests.
  kChaosAdmitAll,
};

template <AdtTraits A>
class DynamicAtomicObject final : public ObjectBase {
 public:
  DynamicAtomicObject(ObjectId oid, std::string name, TransactionManager& tm,
                      EventSink* recorder,
                      AdmissionMode mode = AdmissionMode::kExact)
      : ObjectBase(oid, std::move(name), tm, recorder), mode_(mode) {}

  Value invoke(Transaction& txn, const Operation& op) override {
    txn.ensure_active();
    if (txn.read_only() && !A::is_read_only(op)) {
      throw UsageError("read-only transaction invoked mutator " +
                       to_string(op) + " on " + name());
    }
    txn.touch(this);
    sched_point(op);

    auto lock = adaptive_lock(mu_);
    record_invoke(txn.id(), op);

    std::optional<Value> result;
    await(
        lock, txn, [&] { return (result = try_admit(txn, op)).has_value(); },
        [&] { return blockers(txn); });

    record(respond(id(), txn.id(), *result));
    return *result;
  }

  void prepare(Transaction& txn) override { txn.ensure_active(); }

  [[nodiscard]] bool is_observer(const Operation& op) const override {
    return A::is_read_only(op);
  }

  void commit(Transaction& txn, Timestamp /*commit_ts*/) override {
    const auto lock = adaptive_lock(mu_);
    auto it = intentions_.find(txn.id());
    if (it != intentions_.end()) {
      auto states = replay_logged<A>({committed_}, it->second.ops);
      // Admission maintained replayability; an empty set here would mean
      // the invariant was broken.
      if (!states.empty()) committed_ = std::move(states.front());
      intentions_.erase(it);
    }
    record(argus::commit(id(), txn.id()));
    notify_object();
  }

  void abort(Transaction& txn) override {
    const auto lock = adaptive_lock(mu_);
    intentions_.erase(txn.id());
    record(argus::abort(id(), txn.id()));
    notify_object();
  }

  [[nodiscard]] std::vector<LoggedOp> intentions_of(
      const Transaction& txn) const override {
    const auto lock = adaptive_lock(mu_);
    auto it = intentions_.find(txn.id());
    return it == intentions_.end() ? std::vector<LoggedOp>{} : it->second.ops;
  }

  void reset_for_recovery() override {
    const auto lock = adaptive_lock(mu_);
    committed_ = A::initial();
    intentions_.clear();
    notify_object();
  }

  void replay(const ReplayContext&, const LoggedOp& logged) override {
    const auto lock = adaptive_lock(mu_);
    auto states = replay_logged<A>({committed_}, {logged});
    if (states.empty()) {
      throw UsageError("recovery replay diverged at " + name() + " for " +
                       to_string(logged.op));
    }
    committed_ = std::move(states.front());
  }

  /// Test hook: the committed state (no tentative effects).
  [[nodiscard]] typename A::State committed_state() const {
    const auto lock = adaptive_lock(mu_);
    return committed_;
  }

 private:
  struct TxnEntry {
    std::weak_ptr<Transaction> owner;
    std::vector<LoggedOp> ops;
  };

  /// Attempts to admit (op -> result) for txn under the current
  /// intentions. Returns the result on success; nullopt means "block".
  /// Called with mu_ held.
  std::optional<Value> try_admit(Transaction& txn, const Operation& op) {
    auto& mine = intentions_[txn.id()];
    mine.owner = txn.weak_from_this();

    // The transaction's own view: committed state plus own intentions.
    auto view = replay_logged<A>({committed_}, mine.ops);
    if (view.empty()) return std::nullopt;  // cannot happen if admission is sound

    std::vector<const std::vector<LoggedOp>*> others;
    bool all_static_commute = true;
    for (const auto& [aid, entry] : intentions_) {
      if (aid == txn.id() || entry.ops.empty()) continue;
      others.push_back(&entry.ops);
      for (const LoggedOp& held : entry.ops) {
        if (!A::static_commutes(op, held.op)) all_static_commute = false;
      }
    }

    // Candidate results from the view (deterministic ADTs give exactly
    // one; nondeterministic ones are tried in turn). An empty outcome set
    // means the operation is not enabled yet (e.g. dequeue on an empty
    // queue): block until commits change the picture.
    for (const auto& [result, next] : A::step(view.front(), op)) {
      bool admit = others.empty() || all_static_commute;
      std::vector<LoggedOp> self = mine.ops;
      self.push_back(LoggedOp{op, result});
      if (!admit && mode_ == AdmissionMode::kExact &&
          others.size() <= kMaxExactValidation) {
        admit = validate_all_orders<A>(committed_, others, self);
      }
      if (mode_ == AdmissionMode::kChaosAdmitAll) admit = true;
      if (admit) {
        mine.ops = std::move(self);  // mu_ is held
        return result;
      }
    }
    return std::nullopt;
  }

  std::vector<std::shared_ptr<Transaction>> blockers(const Transaction& txn) {
    std::vector<std::shared_ptr<Transaction>> out;
    for (const auto& [aid, entry] : intentions_) {
      if (aid == txn.id() || entry.ops.empty()) continue;
      if (auto t = entry.owner.lock(); t && t->active()) {
        out.push_back(std::move(t));
      }
    }
    return out;
  }

  const AdmissionMode mode_;
  typename A::State committed_ = A::initial();  // guarded by mu_
  std::map<ActivityId, TxnEntry> intentions_;   // guarded by mu_
};

}  // namespace argus

// LockSchedulerObject<Adt>: the locking protocols of the scheduler model.
//
// Two conflict rules, selectable at construction:
//
//   kReadWrite           — strict two-phase locking with read/write locks
//                          ([Eswaren 76]): two operations conflict unless
//                          both are read-only.
//   kStaticCommutativity — type-specific locking ([Schwarz & Spector 82],
//                          [Korth 81], [Bernstein 81]): two operations
//                          conflict unless they commute in *every* state
//                          (the state-independent tables of
//                          Adt::static_commutes).
//
// An invocation waits until it conflicts with no uncommitted operation of
// another transaction (locks are held to end-of-transaction: strictness
// gives recoverability), then executes against the single-version storage.
// These are the §5.1 comparators: correct, but strictly less concurrent
// than the dynamic-atomic objects of src/core — bench_account and
// bench_queue measure the gap, and tests/paper_traces_test.cpp checks the
// paper's specific interleavings are rejected here and admitted there.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/object_base.h"
#include "sched/storage.h"
#include "spec/adt_spec.h"

namespace argus {

enum class LockRule {
  kReadWrite,
  kStaticCommutativity,
};

template <AdtTraits A>
class LockSchedulerObject final : public ObjectBase {
 public:
  LockSchedulerObject(ObjectId oid, std::string name, TransactionManager& tm,
                      EventSink* recorder, LockRule rule)
      : ObjectBase(oid, std::move(name), tm, recorder), rule_(rule) {}

  Value invoke(Transaction& txn, const Operation& op) override {
    txn.ensure_active();
    if (txn.read_only() && !A::is_read_only(op)) {
      throw UsageError("read-only transaction invoked mutator " +
                       to_string(op) + " on " + name());
    }
    txn.touch(this);
    sched_point(op);

    std::unique_lock lock(mu_);
    record_invoke(txn.id(), op);

    owners_[txn.id()] = txn.weak_from_this();

    std::optional<Value> result;
    await(
        lock, txn,
        [&] {
          if (conflicts_with_held(txn.id(), op)) return false;
          // Lock granted: submit to the storage module. A disabled
          // operation (dequeue on empty) keeps waiting.
          result = storage_.apply(txn.id(), op);
          return result.has_value();
        },
        [&] { return blockers(txn.id(), op); });

    record(respond(id(), txn.id(), *result));
    return *result;
  }

  void prepare(Transaction& txn) override { txn.ensure_active(); }

  [[nodiscard]] bool is_observer(const Operation& op) const override {
    return A::is_read_only(op);
  }

  void commit(Transaction& txn, Timestamp /*commit_ts*/) override {
    const std::scoped_lock lock(mu_);
    storage_.commit(txn.id());
    owners_.erase(txn.id());
    record(argus::commit(id(), txn.id()));
    notify_object();
  }

  void abort(Transaction& txn) override {
    const std::scoped_lock lock(mu_);
    storage_.abort(txn.id());
    owners_.erase(txn.id());
    record(argus::abort(id(), txn.id()));
    notify_object();
  }

  [[nodiscard]] std::vector<LoggedOp> intentions_of(
      const Transaction& txn) const override {
    const std::scoped_lock lock(mu_);
    return storage_.ops_of(txn.id());
  }

  void reset_for_recovery() override {
    const std::scoped_lock lock(mu_);
    storage_.reset();
    owners_.clear();
    notify_object();
  }

  void replay(const ReplayContext&, const LoggedOp& logged) override {
    const std::scoped_lock lock(mu_);
    storage_.replay(logged);
  }

  [[nodiscard]] typename A::State committed_state() const {
    const std::scoped_lock lock(mu_);
    return storage_.current();
  }

 private:
  [[nodiscard]] bool conflict(const Operation& p, const Operation& q) const {
    if (rule_ == LockRule::kReadWrite) {
      return !(A::is_read_only(p) && A::is_read_only(q));
    }
    return !A::static_commutes(p, q);
  }

  [[nodiscard]] bool conflicts_with_held(ActivityId self,
                                         const Operation& op) const {
    for (const auto& [holder, held] : storage_.held_by_others(self)) {
      if (conflict(op, held)) return true;
    }
    return false;
  }

  std::vector<std::shared_ptr<Transaction>> blockers(ActivityId self,
                                                     const Operation& op) {
    std::vector<std::shared_ptr<Transaction>> out;
    for (const auto& [holder, held] : storage_.held_by_others(self)) {
      if (!conflict(op, held)) continue;
      auto it = owners_.find(holder);
      if (it == owners_.end()) continue;
      if (auto t = it->second.lock(); t && t->active()) {
        out.push_back(std::move(t));
      }
    }
    return out;
  }

  const LockRule rule_;
  SingleVersionStorage<A> storage_;                        // guarded by mu_
  std::map<ActivityId, std::weak_ptr<Transaction>> owners_;  // guarded by mu_
};

}  // namespace argus

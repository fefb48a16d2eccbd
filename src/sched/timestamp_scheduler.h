// TimestampSchedulerObject<Adt>: strict timestamp ordering in the
// scheduler model — the conventional single-version comparator for the
// static-atomicity family.
//
// Operations are classified read (Adt::is_read_only) or write (everything
// else; a general mutator both reads and writes). Classic TO rules on the
// transaction's initiation timestamp t:
//
//   read:  reject (abort the caller) if t < write_ts;
//   write: reject if t < read_ts or t < write_ts;
//
// otherwise wait until no other transaction's uncommitted operation is
// applied here (strictness — gives recoverability with single-version
// storage), execute against the current state, and advance
// read_ts/write_ts. Compared with StaticAtomicObject (multi-version,
// data-dependent) this aborts far more: it cannot serve a reader below a
// writer's timestamp from an older version, nor recognize that two
// mutators' effects are order-independent. bench_dynamic_vs_static
// includes it as the single-version baseline.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/object_base.h"
#include "sched/storage.h"
#include "spec/adt_spec.h"

namespace argus {

template <AdtTraits A>
class TimestampSchedulerObject final : public ObjectBase {
 public:
  TimestampSchedulerObject(ObjectId oid, std::string name,
                           TransactionManager& tm, EventSink* recorder)
      : ObjectBase(oid, std::move(name), tm, recorder) {}

  Value invoke(Transaction& txn, const Operation& op) override {
    txn.ensure_active();
    if (txn.read_only() && !A::is_read_only(op)) {
      throw UsageError("read-only transaction invoked mutator " +
                       to_string(op) + " on " + name());
    }
    txn.touch(this);
    sched_point(op);
    const Timestamp t = txn.start_ts();
    const bool is_read = A::is_read_only(op);

    std::unique_lock lock(mu_);
    if (initiated_.insert(txn.id()).second) {
      record(initiate(id(), txn.id(), t));
    }
    record_invoke(txn.id(), op);
    owners_[txn.id()] = txn.weak_from_this();

    // Timestamp admission (checked before and after waiting: the marks
    // move while we wait). A transaction never conflicts with its own
    // marks.
    auto too_late = [&] {
      if (is_read) return t < max_other(writes_, txn.id());
      return t < max_other(writes_, txn.id()) ||
             t < max_other(reads_, txn.id());
    };

    std::optional<Value> result;
    await(
        lock, txn,
        [&] {
          if (too_late()) {
            txn.doom(AbortReason::kTimestampOrder);
            return true;  // exit the wait; doomed check below throws
          }
          if (storage_.other_uncommitted(txn.id())) return false;  // strict
          result = storage_.apply(txn.id(), op);
          return result.has_value();
        },
        [&] { return blockers(txn.id()); });
    if (txn.doomed()) {
      throw TransactionAborted(txn.id(), txn.doom_reason());
    }

    if (is_read) {
      reads_.emplace(t, txn.id());
    } else {
      reads_.emplace(t, txn.id());  // a mutator also reads
      writes_.emplace(t, txn.id());
    }

    record(respond(id(), txn.id(), *result));
    return *result;
  }

  void prepare(Transaction& txn) override { txn.ensure_active(); }

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
    // The ts marks deliberately stay: classic TO never lowers them.
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
    initiated_.clear();
    reads_.clear();
    writes_.clear();
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
  /// Largest timestamp mark left by a transaction other than `self`.
  [[nodiscard]] static Timestamp max_other(
      const std::multimap<Timestamp, ActivityId>& marks, ActivityId self) {
    for (auto it = marks.rbegin(); it != marks.rend(); ++it) {
      if (it->second != self) return it->first;
    }
    return 0;
  }

  std::vector<std::shared_ptr<Transaction>> blockers(ActivityId self) {
    std::vector<std::shared_ptr<Transaction>> out;
    for (const auto& [holder, held] : storage_.held_by_others(self)) {
      auto it = owners_.find(holder);
      if (it == owners_.end()) continue;
      if (auto t = it->second.lock(); t && t->active()) {
        out.push_back(std::move(t));
      }
    }
    return out;
  }

  SingleVersionStorage<A> storage_;                          // guarded by mu_
  std::map<ActivityId, std::weak_ptr<Transaction>> owners_;  // guarded by mu_
  std::set<ActivityId> initiated_;                           // guarded by mu_
  std::multimap<Timestamp, ActivityId> reads_;               // guarded by mu_
  std::multimap<Timestamp, ActivityId> writes_;              // guarded by mu_
};

}  // namespace argus

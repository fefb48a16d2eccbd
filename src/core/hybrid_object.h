// HybridAtomicObject<Adt>: an online implementation of hybrid atomicity
// (§4.3).
//
// Updates are processed exactly as in DynamicAtomicObject (intentions
// lists + data-dependent admission). At commit the transaction manager's
// pipeline assigns a timestamp from the Lamport clock (the pipeline's
// tiny timestamp stage), so commit timestamps are consistent with
// precedes at every object (§4.3.3's first required property); applies
// run in commit-timestamp order, so the object appends the transaction's
// operations to a committed SnapshotLog that grows timestamp-sorted and
// records the <commit(t),x,a> event.
//
// Read-only activities choose their timestamp at initiation: their begin
// draws a fresh timestamp and waits until the manager's visibility
// watermark covers it, so every commit below the timestamp has fully
// applied before the activity runs. They then evaluate queries against
// the log's state below their timestamp — they take no locks, hold no
// intentions, never wait and never abort, and are invisible to updates.
// This realizes the paper's answer to Lamport's audit problem (§4.3.3):
// audits see a full serializable snapshot yet "do not interfere with any
// updates". The snapshot costs amortized O(1) replay steps, not
// O(history): SnapshotLog (core/snapshot_log.h) resumes from a memoized
// cursor or a sparse checkpoint, and keeps that upkeep on the read path
// so commit() still only appends.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/object_base.h"
#include "core/snapshot_log.h"
#include "core/validation.h"
#include "spec/adt_spec.h"

namespace argus {

template <AdtTraits A>
class HybridAtomicObject final : public ObjectBase {
 public:
  HybridAtomicObject(ObjectId oid, std::string name, TransactionManager& tm,
                     EventSink* recorder)
      : ObjectBase(oid, std::move(name), tm, recorder) {}

  Value invoke(Transaction& txn, const Operation& op) override {
    txn.ensure_active();
    txn.touch(this);
    sched_point(op);
    if (txn.read_only()) return invoke_read_only(txn, op);
    return invoke_update(txn, op);
  }

  void prepare(Transaction& txn) override { txn.ensure_active(); }

  [[nodiscard]] bool is_observer(const Operation& op) const override {
    return A::is_read_only(op);
  }

  void commit(Transaction& txn, Timestamp commit_ts) override {
    const auto lock = adaptive_lock(mu_);
    if (txn.read_only()) {
      initiated_.erase(txn.id());
      record(argus::commit(id(), txn.id()));
      return;
    }
    auto it = intentions_.find(txn.id());
    if (it != intentions_.end()) {
      auto states = replay_logged<A>({committed_}, it->second.ops);
      if (!states.empty()) committed_ = std::move(states.front());
      for (LoggedOp& logged : it->second.ops) {
        log_.append(commit_ts, std::move(logged));
      }
      intentions_.erase(it);
    }
    record(commit_at(id(), txn.id(), commit_ts));
    notify_object();
  }

  void abort(Transaction& txn) override {
    const auto lock = adaptive_lock(mu_);
    if (txn.read_only()) initiated_.erase(txn.id());
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
    log_.clear();
    intentions_.clear();
    initiated_.clear();
    notify_object();
  }

  void replay(const ReplayContext& ctx, const LoggedOp& logged) override {
    const auto lock = adaptive_lock(mu_);
    auto states = replay_logged<A>({committed_}, {logged});
    if (states.empty()) {
      throw UsageError("recovery replay diverged at " + name() + " for " +
                       to_string(logged.op));
    }
    committed_ = std::move(states.front());
    log_.append(ctx.commit_ts, logged);
  }

  [[nodiscard]] typename A::State committed_state() const {
    const auto lock = adaptive_lock(mu_);
    return committed_;
  }

  /// Test hook: read-only activities between their first snapshot read
  /// here and their commit or abort.
  [[nodiscard]] std::size_t initiated_count() const {
    const auto lock = adaptive_lock(mu_);
    return initiated_.size();
  }

 private:
  struct TxnEntry {
    std::weak_ptr<Transaction> owner;
    std::vector<LoggedOp> ops;
  };

  Value invoke_read_only(Transaction& txn, const Operation& op) {
    if (!A::is_read_only(op)) {
      throw UsageError("read-only transaction invoked mutator " +
                       to_string(op) + " on " + name());
    }
    const Timestamp t = txn.start_ts();
    const auto lock = adaptive_lock(mu_);
    if (initiated_.insert(txn.id()).second) {
      record(initiate(id(), txn.id(), t));
    }
    record_invoke(txn.id(), op);

    // The view at t: committed operations with timestamps strictly below
    // t. The log is timestamp-ordered (applies run in commit-timestamp
    // order, and recovery replays the timestamp-sorted stable log), and
    // the watermark guaranteed every commit below t had fully applied
    // before this activity's begin returned, so this is a true prefix.
    const auto& states = log_.states_below(t);
    if (states.empty()) {
      throw UsageError("committed log not replayable at " + name());
    }
    const auto outcomes = A::step(states.front(), op);
    if (outcomes.empty()) {
      throw UsageError("read-only operation " + to_string(op) +
                       " not enabled at snapshot of " + name());
    }
    record(respond(id(), txn.id(), outcomes.front().first));
    return outcomes.front().first;
  }

  Value invoke_update(Transaction& txn, const Operation& op) {
    auto lock = adaptive_lock(mu_);
    record_invoke(txn.id(), op);

    std::optional<Value> result;
    await(
        lock, txn, [&] { return (result = try_admit(txn, op)).has_value(); },
        [&] { return blockers(txn); });

    record(respond(id(), txn.id(), *result));
    return *result;
  }

  // Same data-dependent admission as DynamicAtomicObject: hybrid
  // atomicity processes updates using dynamic atomicity (§4.3).
  std::optional<Value> try_admit(Transaction& txn, const Operation& op) {
    auto& mine = intentions_[txn.id()];
    mine.owner = txn.weak_from_this();

    auto view = replay_logged<A>({committed_}, mine.ops);
    if (view.empty()) return std::nullopt;

    std::vector<const std::vector<LoggedOp>*> others;
    bool all_static_commute = true;
    for (const auto& [aid, entry] : intentions_) {
      if (aid == txn.id() || entry.ops.empty()) continue;
      others.push_back(&entry.ops);
      for (const LoggedOp& held : entry.ops) {
        if (!A::static_commutes(op, held.op)) all_static_commute = false;
      }
    }

    for (const auto& [result, next] : A::step(view.front(), op)) {
      bool admit = others.empty() || all_static_commute;
      std::vector<LoggedOp> self = mine.ops;
      self.push_back(LoggedOp{op, result});
      if (!admit && others.size() <= kMaxExactValidation) {
        admit = validate_all_orders<A>(committed_, others, self);
      }
      if (admit) {
        mine.ops = std::move(self);
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

  typename A::State committed_ = A::initial();        // guarded by mu_
  SnapshotLog<A> log_;                                // guarded by mu_
  std::map<ActivityId, TxnEntry> intentions_;         // guarded by mu_
  std::set<ActivityId> initiated_;                    // guarded by mu_
};

}  // namespace argus

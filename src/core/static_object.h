// StaticAtomicObject<Adt>: an online implementation of static atomicity
// (§4.2) — Reed's timestamp-based multi-version protocol generalized from
// read/write registers to arbitrary ADTs.
//
// Every transaction carries the timestamp it chose at initiation. The
// object keeps a single timestamp-ordered log of executed operations
// (tentative until their transaction commits). To execute an operation
// for a transaction with timestamp t:
//
//   1. Wait until no *tentative* operation with timestamp below t remains
//      (the generalization of "reading a tentative version waits"; waits
//      point strictly down the timestamp order, so they cannot deadlock).
//   2. Replay the log prefix below t to obtain the state the operation
//      must observe, and compute its result there.
//   3. Validate the suffix: every already-executed operation above t must
//      still reproduce its recorded result with the new operation
//      inserted. If some later result would change, the *incoming*
//      transaction aborts (AbortReason::kTimestampOrder) — Reed's "write
//      rejected because a later read already happened", generalized.
//
// Consequences the paper states and our benchmarks measure: read-only
// operations never invalidate a suffix, so read-only transactions are
// never aborted by the protocol (§4.2.3); update transactions whose
// timestamps diverge from their execution order abort instead of waiting,
// which is why static atomicity "works poorly for updating activities
// unless timestamps are generated using closely synchronized clocks".
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/object_base.h"
#include "core/validation.h"
#include "spec/adt_spec.h"

namespace argus {

template <AdtTraits A>
class StaticAtomicObject final : public ObjectBase {
 public:
  StaticAtomicObject(ObjectId oid, std::string name, TransactionManager& tm,
                     EventSink* recorder)
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

    auto lock = adaptive_lock(mu_);
    if (initiated_.insert(txn.id()).second) {
      record(initiate(id(), txn.id(), t));
    }
    record_invoke(txn.id(), op);

    Attempt attempt;

    await(
        lock, txn,
        [&] {
          if (tentative_below(t, txn.id())) return false;  // rule 1: wait
          attempt = admit(txn, op, t);
          return attempt.result.has_value() || attempt.must_abort;
        },
        [&] { return owners_below(t, txn.id()); });

    if (attempt.must_abort) {
      txn.doom(AbortReason::kTimestampOrder);
      throw TransactionAborted(txn.id(), AbortReason::kTimestampOrder);
    }
    record(respond(id(), txn.id(), *attempt.result));
    return *attempt.result;
  }

  void prepare(Transaction& txn) override { txn.ensure_active(); }

  void commit(Transaction& txn, Timestamp /*commit_ts*/) override {
    const auto lock = adaptive_lock(mu_);
    initiated_.erase(txn.id());
    for (auto& [key, rec] : log_) {
      if (rec.txn == txn.id()) rec.committed = true;
    }
    record(argus::commit(id(), txn.id()));
    notify_object();
  }

  void abort(Transaction& txn) override {
    const auto lock = adaptive_lock(mu_);
    const auto removed = std::erase_if(
        log_, [&](const auto& kv) { return kv.second.txn == txn.id(); });
    if (removed > 0) cache_valid_ = false;
    seq_.erase(txn.id());
    initiated_.erase(txn.id());
    record(argus::abort(id(), txn.id()));
    notify_object();
  }

  [[nodiscard]] std::vector<LoggedOp> intentions_of(
      const Transaction& txn) const override {
    const auto lock = adaptive_lock(mu_);
    std::vector<LoggedOp> out;
    for (const auto& [key, rec] : log_) {
      if (rec.txn == txn.id()) out.push_back(rec.logged);
    }
    return out;
  }

  void reset_for_recovery() override {
    const auto lock = adaptive_lock(mu_);
    log_.clear();
    seq_.clear();
    initiated_.clear();
    cache_valid_ = false;
    notify_object();
  }

  void replay(const ReplayContext& ctx, const LoggedOp& logged) override {
    const auto lock = adaptive_lock(mu_);
    cache_valid_ = false;
    // Reinsert at the transaction's *initiation* timestamp: that is the
    // serialization position under static atomicity.
    Record rec;
    rec.txn = ctx.txn;
    rec.logged = logged;
    rec.committed = true;
    log_.emplace(Key{ctx.start_ts, seq_[ctx.txn]++}, std::move(rec));
  }

  /// Test hook: state reached by replaying all committed operations in
  /// timestamp order.
  [[nodiscard]] std::optional<typename A::State> committed_state() const {
    const auto lock = adaptive_lock(mu_);
    std::vector<LoggedOp> ops;
    for (const auto& [key, rec] : log_) {
      if (rec.committed) ops.push_back(rec.logged);
    }
    auto states = replay_logged<A>({A::initial()}, ops);
    if (states.empty()) return std::nullopt;
    return states.front();
  }

  /// Test hook: transactions between their first invocation here and
  /// their commit or abort.
  [[nodiscard]] std::size_t initiated_count() const {
    const auto lock = adaptive_lock(mu_);
    return initiated_.size();
  }

 private:
  using Key = std::pair<Timestamp, std::uint64_t>;  // (timestamp, per-txn seq)

  struct Record {
    ActivityId txn;
    LoggedOp logged;
    bool committed{false};
  };

  [[nodiscard]] bool tentative_below(Timestamp t, ActivityId self) const {
    for (const auto& [key, rec] : log_) {
      if (key.first >= t) break;
      if (!rec.committed && rec.txn != self) return true;
    }
    return false;
  }

  std::vector<std::shared_ptr<Transaction>> owners_below(Timestamp t,
                                                         ActivityId self) {
    std::vector<ActivityId> owners;  // log order, each once
    std::set<ActivityId> seen;
    for (const auto& [key, rec] : log_) {
      if (key.first >= t) break;
      if (rec.committed || rec.txn == self || !seen.insert(rec.txn).second) {
        continue;
      }
      owners.push_back(rec.txn);
    }
    std::vector<std::shared_ptr<Transaction>> out;
    if (owners.empty()) return out;
    // One snapshot of the active set per call, not one per owner.
    const auto active = tm_.active_transactions();
    for (ActivityId owner : owners) {
      for (const auto& t_active : active) {
        if (t_active->id() == owner) out.push_back(t_active);
      }
    }
    return out;
  }

  /// Outcome of one admission attempt: a result, "abort yourself", or
  /// neither (keep waiting).
  struct Attempt {
    std::optional<Value> result;
    bool must_abort{false};
  };

  /// Rules 2+3. Called with mu_ held and no tentative records below t.
  Attempt admit(Transaction& txn, const Operation& op, Timestamp t) {
    Attempt out;

    // Prefix: everything strictly below (t, next-seq) — i.e. all records
    // with smaller timestamp plus this transaction's own earlier records
    // at t. Timestamps are unique per transaction, so no other
    // transaction's records sit at t. The prefix state set is cached:
    // timestamps mostly arrive in increasing order, so the common case
    // extends the previous replay instead of starting from initial()
    // (aborts and out-of-order insertions invalidate, see abort()).
    const Key insert_key{t, seq_[txn.id()]};
    std::vector<typename A::State> below;
    typename std::map<Key, Record>::const_iterator it;
    if (cache_valid_ && !(insert_key < cache_key_)) {
      below = cache_states_;
      it = log_.lower_bound(cache_key_);
    } else {
      below = {A::initial()};
      it = log_.begin();
    }
    for (; it != log_.end() && it->first < insert_key; ++it) {
      below = replay_logged<A>(std::move(below), {it->second.logged});
      if (below.empty()) break;
    }
    if (below.empty()) {
      // Should be impossible: insertions preserve replayability.
      out.must_abort = true;
      return out;
    }
    cache_valid_ = true;
    cache_key_ = insert_key;
    cache_states_ = below;

    std::vector<LoggedOp> suffix;
    for (auto sit = log_.lower_bound(insert_key); sit != log_.end(); ++sit) {
      suffix.push_back(sit->second.logged);
    }

    for (const auto& [result, next] : A::step(below.front(), op)) {
      // Suffix validation with (op -> result) inserted at t.
      std::vector<LoggedOp> with_new = {LoggedOp{op, result}};
      auto mid = replay_logged<A>(below, with_new);
      if (mid.empty()) continue;
      if (!replay_logged<A>(mid, suffix).empty()) {
        log_.emplace(insert_key, Record{txn.id(), LoggedOp{op, result}, false});
        ++seq_[txn.id()];
        out.result = result;
        return out;
      }
    }

    if (A::step(below.front(), op).empty()) {
      // Not enabled at its timestamp (e.g. dequeue on an empty prefix):
      // nothing below t can appear without the writer aborting us later,
      // so wait — a smaller-timestamp insert may still arrive.
      return out;  // keep waiting
    }
    // Enabled, but every outcome would invalidate the suffix: the
    // incoming transaction arrived "too late" in timestamp order.
    out.must_abort = true;
    return out;
  }

  std::map<Key, Record> log_;                    // guarded by mu_
  std::map<ActivityId, std::uint64_t> seq_;      // guarded by mu_
  std::set<ActivityId> initiated_;               // guarded by mu_

  // Prefix-replay cache: cache_states_ is the candidate state set after
  // replaying every record with key < cache_key_. All guarded by mu_.
  bool cache_valid_{false};
  Key cache_key_{};
  std::vector<typename A::State> cache_states_;
};

}  // namespace argus

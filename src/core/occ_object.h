// OccAtomicObject<Adt>: optimistic concurrency control over the paper's
// ADT framework, the conflict-based foil for §5.1's comparison.
//
// Invocations never block and never consult other transactions: each
// transaction executes against the committed state plus its own buffered
// operations and receives optimistic results immediately (read/write-set
// capture rides along on the transaction). The admission decision the
// data-dependent protocols make online is deferred wholesale to commit:
// the manager's pipeline takes the transaction's commit turn *before* the
// log force and calls validate_serial(), which replays the buffered
// operations against the now-current committed state. If every recorded
// result reproduces, the transaction serializes at its commit timestamp;
// otherwise an earlier committer won (first-committer-wins) and the
// transaction aborts with AbortReason::kValidation for the executor to
// retry. A fast path skips the replay when the object's committed version
// counter has not moved since the transaction's first access.
//
// kMultiVersion storage (the MVCC/snapshot-read mode) additionally keeps
// the committed operations in a SnapshotLog, exactly like
// HybridAtomicObject's: read-only transactions read the state strictly
// below their initiation timestamp — they take no buffers, never validate
// and never abort, the same audit fast path hybrid atomicity provides
// (§4.3.3), here grafted onto an OCC update path.
//
// Either way the committed history is hybrid atomic by construction:
// updates carry <commit(t),x,a> at their commit timestamp and serialize
// in timestamp order (validation happened at that very point), read-only
// activities carry <initiate(t),x,a> at their begin timestamp — so the
// standard hybrid checkers certify both modes unchanged.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/object_base.h"
#include "core/snapshot_log.h"
#include "core/validation.h"
#include "spec/adt_spec.h"

namespace argus {

enum class OccStorage {
  kSingleVersion,  // OCC proper: one committed state
  kMultiVersion,   // MVCC: + timestamp-keyed version log for snapshot reads
};

template <AdtTraits A>
class OccAtomicObject final : public ObjectBase {
 public:
  OccAtomicObject(ObjectId oid, std::string name, TransactionManager& tm,
                  EventSink* recorder, OccStorage storage)
      : ObjectBase(oid, std::move(name), tm, recorder), storage_(storage) {}

  [[nodiscard]] OccStorage storage() const { return storage_; }

  [[nodiscard]] bool admission_blocks() const override { return false; }

  Value invoke(Transaction& txn, const Operation& op) override {
    txn.ensure_active();
    txn.touch(this);
    sched_point(op);
    if (storage_ == OccStorage::kMultiVersion && txn.read_only()) {
      return invoke_snapshot(txn, op);
    }
    if (txn.read_only() && !A::is_read_only(op)) {
      throw UsageError("read-only transaction invoked mutator " +
                       to_string(op) + " on " + name());
    }
    return invoke_optimistic(txn, op);
  }

  /// Preliminary backward validation: a cheap early reject for
  /// transactions that have already lost, saving them the timestamp draw
  /// and the serial turn. Sound to skip (validate_serial re-checks at the
  /// serialization point), never admits unsoundly (it only aborts).
  void prepare(Transaction& txn) override {
    txn.ensure_active();
    const auto lock = adaptive_lock(mu_);
    auto it = entries_.find(txn.id());
    if (it == entries_.end() || it->second.base_version == version_) return;
    if (replay_logged<A>({committed_}, it->second.ops).empty()) {
      txn.doom(AbortReason::kValidation);
      throw TransactionAborted(txn.id(), AbortReason::kValidation);
    }
  }

  [[nodiscard]] bool needs_serial_validation(
      const Transaction& txn) const override {
    // Snapshot readers are abort-free by construction; everyone else
    // must survive validate-at-commit.
    return !(storage_ == OccStorage::kMultiVersion && txn.read_only());
  }

  void validate_serial(Transaction& txn) override {
    const auto lock = adaptive_lock(mu_);
    auto it = entries_.find(txn.id());
    if (it == entries_.end()) return;
    if (it->second.base_version == version_) return;  // nothing moved
    if (replay_logged<A>({committed_}, it->second.ops).empty()) {
      throw TransactionAborted(txn.id(), AbortReason::kValidation);
    }
  }

  void commit(Transaction& txn, Timestamp commit_ts) override {
    const auto lock = adaptive_lock(mu_);
    if (storage_ == OccStorage::kMultiVersion && txn.read_only()) {
      initiated_.erase(txn.id());
      record(argus::commit(id(), txn.id()));
      return;
    }
    auto it = entries_.find(txn.id());
    if (it != entries_.end()) {
      auto states = replay_logged<A>({committed_}, it->second.ops);
      if (states.empty()) {
        throw UsageError("validated OCC commit diverged at " + name());
      }
      committed_ = std::move(states.front());
      bool wrote = false;
      for (LoggedOp& logged : it->second.ops) {
        if (!A::is_read_only(logged.op)) wrote = true;
        if (storage_ == OccStorage::kMultiVersion) {
          versions_.append(commit_ts, std::move(logged));
        }
      }
      if (wrote) ++version_;
      entries_.erase(it);
    }
    record(commit_at(id(), txn.id(), commit_ts));
    notify_object();
  }

  void abort(Transaction& txn) override {
    const auto lock = adaptive_lock(mu_);
    if (txn.read_only()) initiated_.erase(txn.id());
    entries_.erase(txn.id());
    record(argus::abort(id(), txn.id()));
    notify_object();
  }

  [[nodiscard]] std::vector<LoggedOp> intentions_of(
      const Transaction& txn) const override {
    const auto lock = adaptive_lock(mu_);
    auto it = entries_.find(txn.id());
    return it == entries_.end() ? std::vector<LoggedOp>{} : it->second.ops;
  }

  void reset_for_recovery() override {
    const auto lock = adaptive_lock(mu_);
    committed_ = A::initial();
    version_ = 0;
    versions_.clear();
    entries_.clear();
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
    if (!A::is_read_only(logged.op)) ++version_;
    if (storage_ == OccStorage::kMultiVersion) {
      versions_.append(ctx.commit_ts, logged);
    }
  }

  [[nodiscard]] typename A::State committed_state() const {
    const auto lock = adaptive_lock(mu_);
    return committed_;
  }

  /// Committed mutations so far (the validation fast path's clock).
  [[nodiscard]] std::uint64_t committed_version() const {
    const auto lock = adaptive_lock(mu_);
    return version_;
  }

  /// Test hook: snapshot readers between their first read here and their
  /// commit or abort.
  [[nodiscard]] std::size_t initiated_count() const {
    const auto lock = adaptive_lock(mu_);
    return initiated_.size();
  }

 private:
  struct TxnEntry {
    std::vector<LoggedOp> ops;
    std::uint64_t base_version{0};  // version_ at first access
  };

  Value invoke_optimistic(Transaction& txn, const Operation& op) {
    const auto lock = adaptive_lock(mu_);
    record_invoke(txn.id(), op);

    auto [it, inserted] = entries_.try_emplace(txn.id());
    if (inserted) it->second.base_version = version_;

    // The optimistic view: committed state + this transaction's buffer.
    // Results handed out here are provisional until validate_serial.
    auto view = replay_logged<A>({committed_}, it->second.ops);
    if (view.empty()) {
      // A committed mutation already invalidated the buffer mid-run; no
      // result we hand out can survive validation, so fail fast.
      txn.doom(AbortReason::kValidation);
      throw TransactionAborted(txn.id(), AbortReason::kValidation);
    }
    const auto outcomes = A::step(view.front(), op);
    if (outcomes.empty()) {
      // Not enabled at the optimistic view (e.g. dequeue on empty). OCC
      // cannot block for enabledness the way intentions-list admission
      // does — abort and let the executor retry after someone commits.
      txn.doom(AbortReason::kValidation);
      throw TransactionAborted(txn.id(), AbortReason::kValidation);
    }
    const Value result = outcomes.front().first;
    it->second.ops.push_back(LoggedOp{op, result});
    txn.note_access(id(), !A::is_read_only(op));
    record(respond(id(), txn.id(), result));
    return result;
  }

  // Snapshot read (kMultiVersion): identical to hybrid atomicity's
  // read-only fast path — the version log is timestamp-ordered (applies
  // run in commit-timestamp order) and the watermark guaranteed every
  // commit below the activity's timestamp had fully applied before its
  // begin returned, so the prefix below start_ts is a true snapshot.
  Value invoke_snapshot(Transaction& txn, const Operation& op) {
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
    const auto& states = versions_.states_below(t);
    if (states.empty()) {
      throw UsageError("version log not replayable at " + name());
    }
    const auto outcomes = A::step(states.front(), op);
    if (outcomes.empty()) {
      throw UsageError("read-only operation " + to_string(op) +
                       " not enabled at snapshot of " + name());
    }
    txn.note_access(id(), /*write=*/false);
    record(respond(id(), txn.id(), outcomes.front().first));
    return outcomes.front().first;
  }

  const OccStorage storage_;
  typename A::State committed_ = A::initial();  // guarded by mu_
  std::uint64_t version_{0};                    // committed mutations
  SnapshotLog<A> versions_;                     // kMultiVersion only
  std::map<ActivityId, TxnEntry> entries_;      // guarded by mu_
  std::set<ActivityId> initiated_;              // guarded by mu_
};

}  // namespace argus

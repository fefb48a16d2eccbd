// Transaction: the runtime realization of the paper's "activity".
//
// Carries identity, the update/read-only classification of §4.3 (supplied
// by the application, as the paper prescribes: "this information will
// probably be supplied by the programmer"), lifecycle state, the
// timestamps used by the static/hybrid properties, and the doomed flag by
// which deadlock victims and crash recovery interrupt a running activity.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/errors.h"
#include "common/ids.h"

namespace argus {

class ManagedObject;

enum class TxnKind {
  kUpdate,
  kReadOnly,  // promises to invoke only read-only operations (checked by objects)
};

enum class TxnState { kActive, kCommitted, kAborted };

class Transaction : public std::enable_shared_from_this<Transaction> {
 public:
  Transaction(ActivityId id, TxnKind kind, Timestamp start_ts);

  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  [[nodiscard]] ActivityId id() const { return id_; }
  [[nodiscard]] TxnKind kind() const { return kind_; }
  [[nodiscard]] bool read_only() const { return kind_ == TxnKind::kReadOnly; }

  /// Deadlock-victim priority: the id of the first attempt of the logical
  /// task this transaction runs (its own id unless set). A retry keeps
  /// its first attempt's age, so the oldest task wins every cycle instead
  /// of each retry being the youngest again. Set before the first
  /// operation.
  [[nodiscard]] ActivityId age() const {
    return ActivityId{age_.load(std::memory_order_relaxed)};
  }
  void inherit_age(ActivityId first_attempt) {
    age_.store(first_attempt.value, std::memory_order_relaxed);
  }

  /// Timestamp chosen at initiation. Used as the serialization timestamp
  /// by static-atomic objects (all transactions) and by hybrid-atomic
  /// objects (read-only transactions only). Under the pipelined commit
  /// path, a read-only transaction's begin returns only after the
  /// manager's visibility watermark covers this timestamp: every commit
  /// below it has fully applied (§4.3.3's invariant by construction).
  [[nodiscard]] Timestamp start_ts() const { return start_ts_; }

  /// Timestamp assigned at commit (hybrid updates); kNoTimestamp before.
  [[nodiscard]] Timestamp commit_ts() const {
    return commit_ts_.load(std::memory_order_acquire);
  }
  void set_commit_ts(Timestamp t) {
    commit_ts_.store(t, std::memory_order_release);
  }

  [[nodiscard]] TxnState state() const {
    return state_.load(std::memory_order_acquire);
  }
  void set_state(TxnState s) { state_.store(s, std::memory_order_release); }
  [[nodiscard]] bool active() const { return state() == TxnState::kActive; }

  /// Marks the transaction for abort (deadlock victim, crash, timeout).
  /// The owning thread notices at its next ensure_active() and unwinds.
  void doom(AbortReason reason);
  [[nodiscard]] bool doomed() const {
    return doomed_.load(std::memory_order_acquire);
  }
  [[nodiscard]] AbortReason doom_reason() const;

  /// Throws TransactionAborted if the transaction is doomed or no longer
  /// active. Objects call this before and during every blocking wait.
  void ensure_active() const;

  /// The object this transaction is currently blocked at, if any; used to
  /// wake a doomed victim out of its wait.
  void set_waiting_at(ManagedObject* o) {
    waiting_at_.store(o, std::memory_order_release);
  }
  [[nodiscard]] ManagedObject* waiting_at() const {
    return waiting_at_.load(std::memory_order_acquire);
  }

  /// Objects touched, in first-touch order (the commit/abort fan-out
  /// order). Insertion is idempotent.
  void touch(ManagedObject* o);
  [[nodiscard]] std::vector<ManagedObject*> touched() const;

  /// Read/write-set capture (OCC/MVCC bookkeeping, validation metrics).
  /// Objects report each operation as a read or a write of themselves;
  /// the per-object sets are idempotent, the counters are per operation.
  void note_access(ObjectId object, bool write);
  [[nodiscard]] std::vector<ObjectId> read_set() const;
  [[nodiscard]] std::vector<ObjectId> write_set() const;
  [[nodiscard]] std::uint64_t reads() const {
    return reads_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t writes() const {
    return writes_.load(std::memory_order_relaxed);
  }

 private:
  const ActivityId id_;
  const TxnKind kind_;
  const Timestamp start_ts_;
  std::atomic<std::uint64_t> age_;
  std::atomic<Timestamp> commit_ts_{kNoTimestamp};
  std::atomic<TxnState> state_{TxnState::kActive};
  std::atomic<bool> doomed_{false};
  std::atomic<ManagedObject*> waiting_at_{nullptr};

  std::atomic<std::uint64_t> reads_{0};
  std::atomic<std::uint64_t> writes_{0};

  mutable std::mutex mu_;
  AbortReason doom_reason_{AbortReason::kUser};  // guarded by mu_
  std::vector<ManagedObject*> touched_;          // guarded by mu_
  std::vector<ObjectId> read_set_;               // guarded by mu_
  std::vector<ObjectId> write_set_;              // guarded by mu_
};

}  // namespace argus

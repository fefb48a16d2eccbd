// ManagedObject: the interface every runtime atomic object implements.
//
// This is the dotted-line interface of Figure 5-1 as the paper redraws it:
// there is no scheduler between transactions and storage — each object
// receives invocations directly, decides online whether/when to respond
// (blocking, or aborting the caller), and participates in commit, abort
// and recovery. Synchronization and recovery code is thereby encapsulated
// within each data object, the modularity the paper argues for (§1).
#pragma once

#include <string>
#include <vector>

#include "common/ids.h"
#include "common/operation.h"
#include "common/value.h"
#include "txn/stable_log.h"
#include "txn/transaction.h"

namespace argus {

class ManagedObject {
 public:
  virtual ~ManagedObject() = default;

  [[nodiscard]] virtual ObjectId id() const = 0;
  [[nodiscard]] virtual std::string name() const = 0;

  /// Executes `op` on behalf of `txn`. May block until the operation can
  /// be performed consistently with the object's local atomicity
  /// property; throws TransactionAborted if the transaction is doomed
  /// while waiting or must be aborted by the protocol (e.g. static
  /// atomicity's timestamp-order aborts).
  virtual Value invoke(Transaction& txn, const Operation& op) = 0;

  /// Commit pipeline, validate stage: check that txn can commit here.
  /// Runs concurrently with other transactions' validate/log/apply
  /// stages — no global lock is held.
  virtual void prepare(Transaction& txn) = 0;

  /// True when committing `txn` here requires a final validation at the
  /// pipeline's serialization point (OCC/MVCC validate-at-commit). When
  /// any touched object answers true the manager takes the commit turn
  /// *before* forcing the log record, so validate_serial runs with no
  /// concurrent apply anywhere — commit order, validation order and
  /// serialization order coincide.
  [[nodiscard]] virtual bool needs_serial_validation(
      const Transaction& txn) const {
    (void)txn;
    return false;
  }

  /// Called with txn's commit turn held (every earlier commit fully
  /// applied, record not yet forced): the object's last chance to veto by
  /// throwing TransactionAborted (first-committer-wins). Must not block.
  virtual void validate_serial(Transaction& txn) { (void)txn; }

  /// True when `op` is an observer here that leaves nothing for recovery
  /// to redo: it changes no state, and the object serializes its
  /// transactions at commit, so the read constrains nobody once its
  /// transaction has taken the commit turn. An update transaction whose
  /// every logged operation is such an observer commits without a log
  /// force. Classifies the operation, not its result. Objects that
  /// serialize at a start timestamp (a read there still orders later
  /// writers) or validate at commit keep the default.
  [[nodiscard]] virtual bool is_observer(const Operation& op) const {
    (void)op;
    return false;
  }

  /// Apply stage: make txn's effects permanent. `commit_ts` is the commit
  /// timestamp assigned by the manager (hybrid atomicity's timestamp
  /// event); plain protocols may ignore it. The manager calls applies in
  /// commit-timestamp order (its record already forced to the stable
  /// log), so an object's committed log grows timestamp-sorted; the
  /// object must not block here.
  virtual void commit(Transaction& txn, Timestamp commit_ts) = 0;

  /// Discards txn's effects (recoverability: the all-or-nothing half of
  /// atomicity, handled online via intentions lists).
  virtual void abort(Transaction& txn) = 0;

  /// The redo intentions txn would commit here, for write-ahead logging.
  [[nodiscard]] virtual std::vector<LoggedOp> intentions_of(
      const Transaction& txn) const = 0;

  /// Crash simulation: drop all volatile state (committed state included —
  /// it will be rebuilt from the stable log via replay()).
  virtual void reset_for_recovery() = 0;

  /// Recovery: re-apply one committed operation, in stable-log order,
  /// with its original timestamps.
  virtual void replay(const ReplayContext& ctx, const LoggedOp& logged) = 0;

  /// Wakes every transaction blocked at this object (used when a waiter
  /// elsewhere is doomed, or after crash()).
  virtual void wake_all() = 0;
};

}  // namespace argus

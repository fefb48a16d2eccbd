// HybridBag: a type-specific hybrid-atomic bag ("semiqueue") exploiting
// nondeterminism for concurrency.
//
// §1 of the paper (citing [Weihl & Liskov 83]): "non-determinism may be
// needed to achieve a reasonable level of concurrency among actions" —
// and conventional models "require operations to be functions, precluding
// the description of non-deterministic operations". The bag's remove
// returns *some* element, and precisely because the specification does
// not say which, concurrent removers need not conflict: each claims a
// different committed instance. Contrast the FIFO queue, whose
// deterministic dequeue forces concurrent consumers to serialize on the
// front (bench_nondeterminism measures the gap).
//
// Protocol (commit-order, like HybridFifoQueue):
//   insert(v)  — never conflicts; buffered in the intentions list and
//                folded in at commit.
//   remove     — claims any committed instance not claimed by an active
//                transaction; waits only when none is available. The
//                claimed element exists at every possible serialization
//                position (inserts only add, claims are disjoint), so
//                the nondeterministic result is valid in every order.
//   size       — read-only transactions only (timestamp snapshot of the
//                committed operation log).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/object_base.h"
#include "core/snapshot_log.h"
#include "spec/adts/bag.h"
#include "txn/stable_log.h"

namespace argus {

class HybridBag final : public ObjectBase {
 public:
  HybridBag(ObjectId oid, std::string name, TransactionManager& tm,
            EventSink* recorder);

  Value invoke(Transaction& txn, const Operation& op) override;
  void prepare(Transaction& txn) override;
  void commit(Transaction& txn, Timestamp commit_ts) override;
  void abort(Transaction& txn) override;
  [[nodiscard]] std::vector<LoggedOp> intentions_of(
      const Transaction& txn) const override;
  void reset_for_recovery() override;
  void replay(const ReplayContext& ctx, const LoggedOp& logged) override;

  /// Test hook: committed contents (element -> multiplicity).
  [[nodiscard]] std::map<std::int64_t, std::int64_t> committed_contents()
      const;

  /// Test hook: read-only activities between their first snapshot read
  /// here and their commit or abort.
  [[nodiscard]] std::size_t initiated_count() const;

 private:
  struct TxnEntry {
    std::weak_ptr<Transaction> owner;
    std::vector<LoggedOp> ops;
    std::map<std::int64_t, std::int64_t> claims;  // committed instances held
  };

  Value invoke_read_only(Transaction& txn, const Operation& op);
  Value invoke_update(Transaction& txn, const Operation& op);

  /// Smallest committed element with an unclaimed instance; nullopt when
  /// every instance is claimed or the bag is empty. Called with mu_ held.
  [[nodiscard]] std::optional<std::int64_t> unclaimed_element() const;

  std::vector<std::shared_ptr<Transaction>> blockers(ActivityId self);

  std::map<std::int64_t, std::int64_t> committed_;   // guarded by mu_
  SnapshotLog<BagAdt> log_;                          // guarded by mu_
  std::map<ActivityId, TxnEntry> intentions_;        // guarded by mu_
  std::set<ActivityId> initiated_;                   // guarded by mu_
};

}  // namespace argus

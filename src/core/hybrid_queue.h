// HybridFifoQueue: a type-specific hybrid-atomic FIFO queue exploiting
// commit-time serialization.
//
// This is the object the generic machinery cannot match. Under hybrid
// atomicity the serialization order of updates is the commit order, fixed
// only when transactions commit. The queue exploits that:
//
//   * enqueue never conflicts with anything: tentative enqueues sit in the
//     enqueuing transaction's intentions list and are appended to the
//     committed queue *at commit*, in commit order. Two transactions may
//     interleave enqueues of different values — inadmissible under any
//     conflict-table protocol (enqueue(1) vs enqueue(2) don't commute,
//     §5.1) and not even expressible in the scheduler model of Fig 5-1,
//     because the storage module would fix the interleaved order.
//   * dequeue takes the committed front (beyond the caller's own
//     tentative operations). It must wait while any *other* transaction
//     has tentative dequeues (if that transaction aborted, the front
//     would change) and while the visible queue is empty (the eventual
//     front depends on who commits first).
//
// Benchmark E1 measures the resulting concurrency gap on a
// producer/consumer workload.
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
#include "spec/adts/fifo_queue.h"
#include "txn/stable_log.h"

namespace argus {

class HybridFifoQueue final : public ObjectBase {
 public:
  HybridFifoQueue(ObjectId oid, std::string name, TransactionManager& tm,
                  EventSink* recorder);

  Value invoke(Transaction& txn, const Operation& op) override;
  void prepare(Transaction& txn) override;
  void commit(Transaction& txn, Timestamp commit_ts) override;
  void abort(Transaction& txn) override;
  [[nodiscard]] std::vector<LoggedOp> intentions_of(
      const Transaction& txn) const override;
  void reset_for_recovery() override;
  void replay(const ReplayContext& ctx, const LoggedOp& logged) override;

  /// Test hook: the committed queue contents.
  [[nodiscard]] std::vector<std::int64_t> committed_items() const;

  /// Test hook: read-only activities between their first snapshot read
  /// here and their commit or abort.
  [[nodiscard]] std::size_t initiated_count() const;

 private:
  struct TxnEntry {
    std::weak_ptr<Transaction> owner;
    std::vector<LoggedOp> ops;  // enqueue/dequeue in execution order
    std::size_t dequeued{0};    // how many committed items it holds tentatively
  };

  Value invoke_read_only(Transaction& txn, const Operation& op);
  Value invoke_update(Transaction& txn, const Operation& op);

  [[nodiscard]] bool other_has_tentative_dequeue(ActivityId self) const;
  std::vector<std::shared_ptr<Transaction>> dequeue_blockers(ActivityId self);

  std::vector<std::int64_t> committed_;              // guarded by mu_
  SnapshotLog<FifoQueueAdt> log_;                    // guarded by mu_
  std::map<ActivityId, TxnEntry> intentions_;        // guarded by mu_
  std::set<ActivityId> initiated_;                   // guarded by mu_
};

}  // namespace argus

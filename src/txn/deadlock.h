// Waits-for-graph deadlock detection.
//
// Locking implementations of dynamic atomicity block, so they deadlock —
// the paper calls this out for long read-only activities (§4.2.3):
// "Because of the need to wait for locks, long read-only activities can be
// quite prone to deadlock." We detect cycles eagerly on each new wait
// edge and abort the youngest transaction in the cycle, which is what
// makes the E3/E4 abort-rate comparisons measurable. Youngest means the
// largest age (Transaction::age(), which a retry inherits from its first
// attempt), ties broken by the larger id. A retried task so keeps its
// place while newer tasks arrive behind it, and soon wins every cycle.
#pragma once

#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/ids.h"
#include "txn/transaction.h"

namespace argus {

class DeadlockDetector {
 public:
  DeadlockDetector() = default;

  /// Declares that `waiter` is blocked on each of `holders`. If that
  /// closes a cycle, picks the youngest (largest age, then largest id)
  /// transaction in the cycle, dooms it with AbortReason::kDeadlock, and
  /// returns it so the caller can wake it; returns nullptr when no
  /// deadlock arises.
  std::shared_ptr<Transaction> add_wait(
      const std::shared_ptr<Transaction>& waiter,
      const std::vector<std::shared_ptr<Transaction>>& holders);

  /// Removes all wait edges out of `waiter` (call when the wait ends,
  /// whatever the outcome).
  void clear_wait(ActivityId waiter);

  /// Removes a finished transaction entirely.
  void remove(ActivityId txn);

  /// Number of deadlocks resolved so far (for metrics).
  [[nodiscard]] std::uint64_t deadlocks_resolved() const;

 private:
  [[nodiscard]] bool reachable_locked(ActivityId from, ActivityId to) const;

  mutable std::mutex mu_;
  std::unordered_map<ActivityId, std::unordered_set<ActivityId>> edges_;
  std::unordered_map<ActivityId, std::weak_ptr<Transaction>> txns_;
  std::uint64_t resolved_{0};
};

}  // namespace argus

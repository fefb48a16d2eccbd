// Shared counters between a TxnExecutor (src/sched) and the Runtime's
// metrics registry (src/core). The block outlives the executor — the
// runtime keeps a shared_ptr, so a scrape after the pool is gone still
// reads the final values instead of chasing a dangling pointer.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace argus {

/// Inclusive upper bounds of the attempts-per-task bands
/// (argus_executor_attempts{le=...}); one more band holds the rest.
inline constexpr std::array<std::uint64_t, 7> kAttemptBounds{1,  2,  4, 8,
                                                             16, 32, 64};
inline constexpr std::size_t kAttemptBands = kAttemptBounds.size() + 1;

struct ExecutorStatsBlock {
  std::atomic<std::uint64_t> submitted{0};   // tasks accepted
  std::atomic<std::uint64_t> completed{0};   // tasks finished (either way)
  std::atomic<std::uint64_t> committed{0};   // tasks that committed
  std::atomic<std::uint64_t> gave_up{0};     // retry budget exhausted
  std::atomic<std::uint64_t> retries{0};     // re-begins after an abort
  std::atomic<std::uint64_t> validation_aborts{0};  // AbortReason::kValidation
  std::atomic<std::int64_t> queue_depth{0};  // tasks waiting for a worker
  std::atomic<std::int64_t> workers{0};      // pool size (0 after shutdown)
  // Completed tasks by attempts taken: band i holds those above
  // kAttemptBounds[i - 1] and at most kAttemptBounds[i].
  std::array<std::atomic<std::uint64_t>, kAttemptBands> attempts{};
};

/// Plain-value copy for result structs and bench reporting.
struct ExecutorStatsSnapshot {
  std::uint64_t submitted{0};
  std::uint64_t completed{0};
  std::uint64_t committed{0};
  std::uint64_t gave_up{0};
  std::uint64_t retries{0};
  std::uint64_t validation_aborts{0};
  std::int64_t queue_depth{0};
  std::int64_t workers{0};
  std::array<std::uint64_t, kAttemptBands> attempts{};
};

[[nodiscard]] inline ExecutorStatsSnapshot snapshot_of(
    const ExecutorStatsBlock& b) {
  ExecutorStatsSnapshot out;
  out.submitted = b.submitted.load(std::memory_order_relaxed);
  out.completed = b.completed.load(std::memory_order_relaxed);
  out.committed = b.committed.load(std::memory_order_relaxed);
  out.gave_up = b.gave_up.load(std::memory_order_relaxed);
  out.retries = b.retries.load(std::memory_order_relaxed);
  out.validation_aborts = b.validation_aborts.load(std::memory_order_relaxed);
  out.queue_depth = b.queue_depth.load(std::memory_order_relaxed);
  out.workers = b.workers.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < kAttemptBands; ++i) {
    out.attempts[i] = b.attempts[i].load(std::memory_order_relaxed);
  }
  return out;
}

}  // namespace argus

// Spans the benchmark records around its own calls into the runtime.
//
// Nothing here reaches inside src/: a span opens and closes in benchmark
// code, just before and after a public call (an invoke, a DistRuntime
// read/write/commit, one attempt of an executor task body). The task
// span is reconstructed at the executor's completion callback from
// Outcome::latency_us, so it covers first begin to final commit.
//
// Every thread that records gets its own preallocated buffer on first
// use, so recording is an append with no lock and no allocation until a
// buffer outgrows its reservation.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "common/errors.h"

namespace perfbench {

enum class SpanKind : std::uint8_t {
  kTask,            // sched: first begin -> completion (retries included)
  kAttempt,         // sched: one task-body execution (entry -> return/throw)
  kInvokeWithdraw,  // core: ManagedObject::invoke
  kInvokeDeposit,
  kInvokeBalance,
  kDistTxn,         // dist client: first begin -> commit (retries included)
  kDistRead,        // dist: DistRuntime::read
  kDistWrite,       // dist: DistRuntime::write
  kDistCommitLocal, // dist: DistRuntime::commit, one participant
  kDistCommitCross, // dist: DistRuntime::commit, two-phase
};
inline constexpr std::size_t kSpanKinds = 10;

const char* to_string(SpanKind k);

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
  std::uint32_t task{0};
  SpanKind kind{SpanKind::kTask};
  bool aborted{false};  // the call threw TransactionAborted
  argus::AbortReason reason{argus::AbortReason::kUser};  // when aborted
};

class Tracer {
 public:
  /// `threads` buffers of `reserve` spans each.
  Tracer(std::size_t threads, std::size_t reserve);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void record(SpanKind kind, std::uint32_t task, std::int64_t start_ns,
              std::int64_t end_ns, bool aborted = false,
              argus::AbortReason reason = argus::AbortReason::kUser);

  /// Every span of every thread, in no particular order. Call after all
  /// recording threads have finished.
  [[nodiscard]] std::vector<Span> collect() const;

 private:
  std::vector<Span>& buffer_for_this_thread();

  const std::uint64_t generation_;
  std::vector<std::vector<Span>> buffers_;
  std::atomic<std::size_t> next_buffer_{0};
};

/// Runs `fn` inside a span of `kind` when `tracer` is set; marks the span
/// aborted (with its reason) and rethrows if `fn` throws
/// TransactionAborted.
template <typename Fn>
auto traced(Tracer* tracer, SpanKind kind, std::uint32_t task, Fn&& fn)
    -> decltype(fn()) {
  if (tracer == nullptr) return fn();
  const std::int64_t start = now_ns();
  try {
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      tracer->record(kind, task, start, now_ns());
    } else {
      auto result = fn();
      tracer->record(kind, task, start, now_ns());
      return result;
    }
  } catch (const argus::TransactionAborted& e) {
    tracer->record(kind, task, start, now_ns(), /*aborted=*/true, e.reason());
    throw;
  }
}

/// Per-layer digest of one traced round.
struct LayerSummary {
  // Per-kind span counts, summed durations (us) and duration samples.
  std::array<std::uint64_t, kSpanKinds> count{};
  std::array<double, kSpanKinds> total_us{};
  std::array<std::vector<double>, kSpanKinds> durations_us;
  std::map<std::string, std::uint64_t> invoke_aborts;  // by AbortReason
  // Self time: a span's duration minus what its children cover.
  double txn_self_us{0};   // task - attempts (begin + commit + abort)
  double core_self_us{0};  // invokes
  double dist_self_us{0};  // dist read/write/commit
  // Benchmark code: attempts - invokes, or dist txn - dist calls.
  double bench_self_us{0};
  std::vector<double> manager_us;  // per-task txn self time
};

LayerSummary summarize(const std::vector<Span>& spans);

/// Writes spans of tasks below `max_task` as tab-separated lines
/// (task, kind, start_ns, end_ns, aborted), starts relative to the
/// earliest span.
void write_spans(const std::string& path, const std::vector<Span>& spans,
                 std::uint32_t max_task);

}  // namespace perfbench

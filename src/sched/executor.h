// TxnExecutor: a fixed worker pool that executes transactional tasks with
// retry-on-abort, replacing the per-transaction thread spawning the
// workload driver used to do. One pool, N workers, a FIFO task queue:
// concurrency is the pool size, not the task count, which is what lets
// any CC mode push far past a few dozen concurrent transactions.
//
// Each task is one logical transaction (label + kind + body + seed). A
// worker begins it against the runtime, runs the body, commits, and on
// TransactionAborted aborts and re-begins up to max_retries times —
// deadlock victims, timestamp-order losers and OCC/MVCC validation
// losers all funnel through the same loop, so abort-and-retry costs are
// measured uniformly across modes (bench_cc_modes, E15). Two rules keep
// lock-mode retries from starving: every attempt inherits its first
// attempt's age (Transaction::age, the deadlock victim rule's key), and
// a deadlock victim backs off before it retries — uniform below
// 20 us * 2^attempts, capped at 1 ms, in virtual time under a
// WaitPolicy — so the winner takes the freed lock first.
//
// Scheduling integration: the queue handoff (worker waiting for a task,
// drain() waiting for completion) routes through the runtime's
// WaitPolicy at WaitPoint::kExecutorQueue, so a deterministic run owns
// the pool's context switches too. Deterministic tests inject a
// thread_factory that spawns workers as scheduler lanes; in that case
// the scheduler — not the executor — owns and joins the worker threads.
//
// Telemetry: the pool publishes an ExecutorStatsBlock to the runtime
// (argus_executor_* gauges/counters: pool size, queue depth, retries,
// validation aborts, tasks by attempts taken). The block is shared so
// scrapes after the pool is gone still read its final values.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/executor_stats.h"
#include "core/runtime.h"

namespace argus {

struct ExecutorOptions {
  int workers{4};
  int max_retries{100};
  /// Injected delay (microseconds, uniform in [0, skew]) between begin()
  /// and the first operation — the §4.2.3 timestamp-skew experiments.
  int timestamp_skew_us{0};
  /// When set, workers are spawned through this hook instead of
  /// std::thread (deterministic tests pass DeterministicScheduler::spawn,
  /// making workers lanes). The hook's owner joins those threads; the
  /// executor only flags shutdown.
  std::function<void(const std::string&, std::function<void()>)>
      thread_factory;
};

class TxnExecutor {
 public:
  /// One logical transaction. `seed` derives the task's private rng so
  /// results are a function of the task, not of which worker ran it.
  struct Task {
    std::string label;
    TxnKind kind{TxnKind::kUpdate};
    std::function<void(Transaction&, SplitMix64&)> body;
    std::uint64_t seed{0};
  };

  /// What became of one task, delivered on the worker thread via the
  /// completion callback (the callee synchronizes).
  struct Outcome {
    std::string label;
    bool committed{false};
    std::uint64_t attempts{0};
    double latency_us{0.0};  // first begin to final commit/give-up
    std::map<AbortReason, std::uint64_t> aborts;
  };
  using CompletionFn = std::function<void(const Outcome&)>;

  TxnExecutor(Runtime& rt, ExecutorOptions options,
              CompletionFn on_complete = nullptr);
  ~TxnExecutor();

  TxnExecutor(const TxnExecutor&) = delete;
  TxnExecutor& operator=(const TxnExecutor&) = delete;

  /// Enqueues a task. Throws UsageError after shutdown().
  void submit(Task task);

  /// Blocks until every submitted task has completed.
  void drain();

  /// Drains, stops the workers and (unless a thread_factory owns them)
  /// joins them. Idempotent; the destructor calls it.
  void shutdown();

  [[nodiscard]] ExecutorStatsSnapshot stats() const {
    return snapshot_of(*stats_);
  }

 private:
  void worker_loop();
  void run_task(const Task& task);
  void back_off(std::uint64_t attempts, SplitMix64& rng);
  void wait_round(const void* channel, std::unique_lock<std::mutex>& lock,
                  std::condition_variable& cv);
  void notify(std::condition_variable& cv);

  Runtime& rt_;
  const ExecutorOptions options_;
  const CompletionFn on_complete_;
  std::shared_ptr<ExecutorStatsBlock> stats_;

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers: queue non-empty or stop
  std::condition_variable idle_cv_;  // drain(): completed caught up
  std::deque<Task> queue_;           // guarded by mu_
  std::uint64_t submitted_{0};       // guarded by mu_
  std::uint64_t completed_{0};       // guarded by mu_
  bool stop_{false};                 // guarded by mu_
  int workers_running_{0};           // guarded by mu_
  std::vector<std::thread> owned_workers_;
};

}  // namespace argus

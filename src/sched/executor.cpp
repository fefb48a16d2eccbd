#include "sched/executor.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "common/adaptive_lock.h"
#include "dsched/wait_policy.h"

namespace argus {

namespace {

using SteadyClock = std::chrono::steady_clock;

double micros_since(SteadyClock::time_point start) {
  return std::chrono::duration<double, std::micro>(SteadyClock::now() - start)
      .count();
}

// Deadlock-retry backoff: uniform below kBackoffBaseUs * 2^attempts,
// capped at kBackoffCapUs.
constexpr std::uint64_t kBackoffBaseUs = 20;
constexpr std::uint64_t kBackoffCapUs = 1000;
constexpr std::uint64_t kBackoffSalt = 0xbf58476d1ce4e5b9ULL;

}  // namespace

TxnExecutor::TxnExecutor(Runtime& rt, ExecutorOptions options,
                         CompletionFn on_complete)
    : rt_(rt),
      options_(std::move(options)),
      on_complete_(std::move(on_complete)),
      stats_(std::make_shared<ExecutorStatsBlock>()) {
  if (options_.workers <= 0) throw UsageError("executor needs >= 1 worker");
  stats_->workers.store(options_.workers, std::memory_order_relaxed);
  rt_.set_executor_stats(stats_);
  workers_running_ = options_.workers;
  for (int i = 0; i < options_.workers; ++i) {
    const std::string name = "executor-" + std::to_string(i);
    if (options_.thread_factory) {
      options_.thread_factory(name, [this] { worker_loop(); });
    } else {
      owned_workers_.emplace_back([this] { worker_loop(); });
    }
  }
}

TxnExecutor::~TxnExecutor() { shutdown(); }

void TxnExecutor::submit(Task task) {
  {
    const auto lock = adaptive_lock(mu_);
    if (stop_) throw UsageError("submit after executor shutdown");
    queue_.push_back(std::move(task));
    ++submitted_;
    stats_->submitted.fetch_add(1, std::memory_order_relaxed);
    stats_->queue_depth.store(static_cast<std::int64_t>(queue_.size()),
                              std::memory_order_relaxed);
  }
  notify(work_cv_);
}

void TxnExecutor::drain() {
  auto lock = adaptive_lock(mu_);
  while (completed_ < submitted_) wait_round(&idle_cv_, lock, idle_cv_);
}

void TxnExecutor::shutdown() {
  {
    auto lock = adaptive_lock(mu_);
    while (completed_ < submitted_) wait_round(&idle_cv_, lock, idle_cv_);
    if (stop_ && owned_workers_.empty()) return;
    stop_ = true;
  }
  notify(work_cv_);
  for (std::thread& w : owned_workers_) w.join();
  owned_workers_.clear();
  stats_->workers.store(0, std::memory_order_relaxed);
}

void TxnExecutor::worker_loop() {
  for (;;) {
    Task task;
    {
      auto lock = adaptive_lock(mu_);
      while (!stop_ && queue_.empty()) wait_round(&work_cv_, lock, work_cv_);
      if (queue_.empty()) break;  // stop_ set and nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
      stats_->queue_depth.store(static_cast<std::int64_t>(queue_.size()),
                                std::memory_order_relaxed);
    }
    run_task(task);
    // Counted before completed_ moves: drain() may return on a timed
    // wake-up as soon as it does, and stats() must then read every task.
    stats_->completed.fetch_add(1, std::memory_order_relaxed);
    bool idle = false;
    {
      const auto lock = adaptive_lock(mu_);
      ++completed_;
      idle = completed_ == submitted_;
    }
    // drain() and shutdown() wait only for the last task; waking them
    // after every task would cost each wake-up a trip through mu_.
    if (idle) notify(idle_cv_);
  }
  const auto lock = adaptive_lock(mu_);
  --workers_running_;
}

void TxnExecutor::run_task(const Task& task) {
  // The rng persists across retries: a retried transaction continues the
  // task's random stream, as the old per-thread workload loop did. Backoff
  // draws come from a stream of their own, so they leave it untouched.
  SplitMix64 rng(task.seed);
  SplitMix64 backoff_rng(task.seed ^ kBackoffSalt);
  Outcome out;
  out.label = task.label;
  std::optional<ActivityId> age;
  const auto t0 = SteadyClock::now();
  for (int attempt = 0; attempt <= options_.max_retries && !out.committed;
       ++attempt) {
    if (attempt > 0) stats_->retries.fetch_add(1, std::memory_order_relaxed);
    ++out.attempts;
    auto txn = rt_.tm().begin(task.kind);
    // Every attempt is as old as the first: deadlock victims are chosen
    // by age, so a task that keeps losing becomes the oldest in time.
    if (age.has_value()) {
      txn->inherit_age(*age);
    } else {
      age = txn->id();
    }
    if (options_.timestamp_skew_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(rng.below(
          static_cast<std::uint64_t>(options_.timestamp_skew_us) + 1)));
    }
    try {
      task.body(*txn, rng);
      rt_.tm().commit(txn);
      out.committed = true;
      stats_->committed.fetch_add(1, std::memory_order_relaxed);
    } catch (const TransactionAborted& e) {
      rt_.tm().abort(txn, e.reason());
      ++out.aborts[e.reason()];
      if (e.reason() == AbortReason::kValidation) {
        stats_->validation_aborts.fetch_add(1, std::memory_order_relaxed);
      }
      // A deadlock victim that retried at once would take the freed lock
      // before the winner's thread runs and rebuild the same cycle.
      if (e.reason() == AbortReason::kDeadlock &&
          attempt < options_.max_retries) {
        back_off(out.attempts, backoff_rng);
      }
    }
  }
  out.latency_us = micros_since(t0);
  if (!out.committed) stats_->gave_up.fetch_add(1, std::memory_order_relaxed);
  const auto band = static_cast<std::size_t>(
      std::ranges::lower_bound(kAttemptBounds, out.attempts) -
      kAttemptBounds.begin());
  stats_->attempts[band].fetch_add(1, std::memory_order_relaxed);
  if (on_complete_) on_complete_(out);
}

void TxnExecutor::back_off(std::uint64_t attempts, SplitMix64& rng) {
  // 20 << 6 is past the cap already; clamping the shift keeps it defined.
  const std::uint64_t bound =
      std::min(kBackoffCapUs, kBackoffBaseUs << std::min<std::uint64_t>(
                                  attempts, 6));
  const std::uint64_t us = rng.below(bound);
  if (WaitPolicy* policy = rt_.tm().wait_policy()) {
    policy->sleep_us(WaitPoint::kExecutorBackoff, us);
  } else {
    std::this_thread::sleep_for(std::chrono::microseconds(us));
  }
}

void TxnExecutor::wait_round(const void* channel,
                             std::unique_lock<std::mutex>& lock,
                             std::condition_variable& cv) {
  if (WaitPolicy* policy = rt_.tm().wait_policy()) {
    policy->wait_round(LaneHint{WaitPoint::kExecutorQueue}, channel, lock, cv,
                       std::chrono::microseconds(2000));
  } else {
    cv.wait_for(lock, std::chrono::milliseconds(2));
  }
}

void TxnExecutor::notify(std::condition_variable& cv) {
  cv.notify_all();
  if (WaitPolicy* policy = rt_.tm().wait_policy()) policy->notify(&cv);
}

}  // namespace argus

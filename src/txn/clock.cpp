#include "txn/clock.h"

#include <algorithm>

#include "common/adaptive_lock.h"
#include "dsched/wait_policy.h"

namespace argus {

Timestamp LamportClock::begin_commit() {
  const auto lock = adaptive_lock(mu_);
  const Timestamp ts = next();
  inflight_.insert(ts);
  if (ts > last_commit_) last_commit_ = ts;
  publish_min_locked();
  return ts;
}

void LamportClock::wait_for_turn(Timestamp ts) {
  WaitPolicy* policy = policy_.load(std::memory_order_acquire);
  const auto my_turn = [&] {
    return !inflight_.empty() && *inflight_.begin() == ts;
  };
  if (policy == nullptr) {
    // `ts` is in flight, so the published minimum reads `ts` exactly when
    // every earlier commit has retired — and stays `ts` until this
    // committer retires it.
    if (spin_until(
            [&] {
              return min_inflight_.load(std::memory_order_acquire) == ts;
            },
            kWaitSpin)) {
      return;
    }
    auto lock = adaptive_lock(mu_);
    if (my_turn()) return;
    turn_parks_.fetch_add(1, std::memory_order_relaxed);
    cv_.wait(lock, my_turn);
    return;
  }
  std::unique_lock lock(mu_);
  while (!my_turn()) {
    policy->wait_round(LaneHint{WaitPoint::kClockTurn}, &cv_, lock, cv_,
                       std::chrono::microseconds(1000));
  }
}

void LamportClock::finish_commit(Timestamp ts) {
  {
    const auto lock = adaptive_lock(mu_);
    inflight_.erase(ts);
    publish_min_locked();
    // Everything below the smallest remaining in-flight commit (or below
    // the largest timestamp ever handed to a committer, when none remain)
    // has fully applied or aborted.
    const Timestamp candidate =
        inflight_.empty() ? last_commit_ : *inflight_.begin() - 1;
    if (candidate > watermark_.load(std::memory_order_relaxed)) {
      watermark_.store(candidate, std::memory_order_release);
    }
  }
  cv_.notify_all();
  if (WaitPolicy* policy = policy_.load(std::memory_order_acquire)) {
    policy->notify(&cv_);
  }
}

void LamportClock::restamp_commit(Timestamp from, Timestamp to) {
  {
    const auto lock = adaptive_lock(mu_);
    inflight_.erase(from);
    inflight_.insert(to);
    if (to > last_commit_) last_commit_ = to;
    publish_min_locked();
  }
  observe(to);
  // Erasing `from` may have made another in-flight timestamp the minimum.
  cv_.notify_all();
  if (WaitPolicy* policy = policy_.load(std::memory_order_acquire)) {
    policy->notify(&cv_);
  }
}

void LamportClock::observe_committed(Timestamp ts) {
  observe(ts);
  {
    const auto lock = adaptive_lock(mu_);
    if (ts > last_commit_) last_commit_ = ts;
    if (covered_locked(ts) && ts > watermark_.load(std::memory_order_relaxed)) {
      watermark_.store(ts, std::memory_order_release);
    }
  }
  cv_.notify_all();
  if (WaitPolicy* policy = policy_.load(std::memory_order_acquire)) {
    policy->notify(&cv_);
  }
}

Timestamp LamportClock::read_only_begin() {
  const Timestamp ts = draw_start();
  await_covered(ts, policy_.load(std::memory_order_acquire));
  return ts;
}

Timestamp LamportClock::draw_start() {
  // Drawn under mu_: begin_commit draws and registers under it too, so
  // every commit timestamp below the result is already in the table.
  const auto lock = adaptive_lock(mu_);
  return next();
}

Timestamp LamportClock::frontier() const {
  const auto lock = adaptive_lock(mu_);
  const Timestamp next_draw = counter_.load(std::memory_order_relaxed) + 1;
  return inflight_.empty() ? next_draw
                           : std::min(next_draw, *inflight_.begin());
}

void LamportClock::wait_covered(Timestamp ts) {
  {
    // The caller advanced the clock past `ts`, so a commit timestamp
    // below it was drawn earlier, under mu_, and is in the table (and in
    // min_inflight_) once mu_ is ours.
    const auto lock = adaptive_lock(mu_);
  }
  await_covered(ts, policy_.load(std::memory_order_acquire));
}

void LamportClock::await_covered(Timestamp ts, WaitPolicy* policy) {
  if (policy == nullptr) {
    // Once covered, `ts` stays covered: every later begin_commit draws a
    // larger timestamp, and a re-stamp only moves an entry upward.
    if (spin_until(
            [&] { return min_inflight_.load(std::memory_order_acquire) > ts; },
            kWaitSpin)) {
      return;
    }
    auto lock = adaptive_lock(mu_);
    if (covered_locked(ts)) return;
    cover_parks_.fetch_add(1, std::memory_order_relaxed);
    cv_.wait(lock, [&] { return covered_locked(ts); });
    return;
  }
  std::unique_lock lock(mu_);
  while (!covered_locked(ts)) {
    policy->wait_round(LaneHint{WaitPoint::kClockCovered}, &cv_, lock, cv_,
                       std::chrono::microseconds(1000));
  }
}

std::size_t LamportClock::inflight() const {
  const std::scoped_lock lock(mu_);
  return inflight_.size();
}

}  // namespace argus

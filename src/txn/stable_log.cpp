#include "txn/stable_log.h"

#include <algorithm>
#include <thread>

#include "common/adaptive_lock.h"
#include "dsched/wait_policy.h"
#include "fault/fault.h"

namespace argus {

namespace {

/// Simulated storage latency: virtual time under a wait policy, wall
/// clock otherwise. Call with no lock held.
void sleep_for_us(WaitPolicy* policy, std::int64_t us) {
  if (us <= 0) return;
  if (policy != nullptr) {
    policy->sleep_us(WaitPoint::kLogSleep, static_cast<std::uint64_t>(us));
  } else {
    std::this_thread::sleep_for(std::chrono::microseconds(us));
  }
}

/// The clock sleep_for_us() sleeps on, in microseconds.
std::int64_t now_us(WaitPolicy* policy) {
  if (policy != nullptr) return static_cast<std::int64_t>(policy->now_us());
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void StableLog::insert_forced_locked(CommitLogRecord record) {
  // Committers almost always force in near-timestamp order, so the scan
  // from the back is O(1) amortized.
  auto pos = records_.end();
  while (pos != records_.begin() &&
         std::prev(pos)->commit_ts > record.commit_ts) {
    --pos;
  }
  records_.insert(pos, std::move(record));
}

AppendResult StableLog::append_group(CommitLogRecord record) {
  auto slot = std::make_shared<Slot>();
  slot->record = std::move(record);

  auto lock = adaptive_lock(mu_);
  queue_.push_back(slot);
  WaitPolicy* policy = policy_.load(std::memory_order_acquire);

  while (slot->state == SlotState::kQueued) {
    if (!flush_active_) {
      // Become the flush leader: claim the entire pending queue and force
      // it as one batch.
      flush_active_ = true;
      std::vector<std::shared_ptr<Slot>> batch = std::move(queue_);
      queue_.clear();
      const std::uint64_t generation = generation_;
      FaultInjector* fault = fault_.load(std::memory_order_acquire);

      // Attempt the force; fault injection may fail it transiently (we
      // retry with linear backoff), tear it (only a prefix stabilizes),
      // or stretch it (latency spike). A drop_pending() at any point
      // (generation bump) turns the whole attempt into a drop.
      bool dropped = false;
      bool give_up = false;
      std::size_t stable_prefix = batch.size();
      std::uint32_t attempts = 0;
      for (;;) {
        FaultInjector::ForceDecision decision;
        if (fault != nullptr) decision = fault->on_force(batch.size());
        const auto delay =
            force_delay_ + std::chrono::microseconds(decision.latency_us);
        if (delay.count() > 0) {
          lock.unlock();
          sleep_for_us(policy, delay.count());
          lock.lock();
        }
        if (policy == nullptr) {
          cv_.wait(lock,
                   [&] { return !hold_flushes_ || generation_ != generation; });
        } else {
          while (hold_flushes_ && generation_ == generation) {
            policy->wait_round(LaneHint{WaitPoint::kLogLeader}, &cv_, lock,
                               cv_, std::chrono::microseconds(1000));
          }
        }
        if (generation_ != generation) {
          dropped = true;
          break;
        }
        if (decision.fail) {
          ++stats_.force_failures;
          if (attempts >= decision.max_retries) {
            give_up = true;
            break;
          }
          ++attempts;
          const auto backoff =
              std::chrono::microseconds(decision.retry_backoff_us) * attempts;
          if (backoff.count() > 0) {
            lock.unlock();
            sleep_for_us(policy, backoff.count());
            lock.lock();
          }
          if (generation_ != generation) {
            dropped = true;
            break;
          }
          continue;
        }
        if (decision.torn && decision.stable_prefix < batch.size()) {
          stable_prefix = decision.stable_prefix;
        }
        break;
      }

      flush_active_ = false;
      if (dropped) {
        // drop_pending() hit mid-force: the batch never reached stable
        // storage.
        for (auto& s : batch) s->state = SlotState::kDropped;
      } else if (give_up) {
        // Retries exhausted: the force failed for good. Nothing in the
        // batch is stable; every committer aborts with an I/O error.
        for (auto& s : batch) s->state = SlotState::kFailed;
      } else {
        // The force completed, possibly torn: exactly records
        // [0, stable_prefix) are stable. The unstabilized tail goes back
        // to the head of the queue, still kQueued — the next leader
        // retries it, or drop_pending() fails it.
        ++stats_.forces;
        stats_.records_forced += stable_prefix;
        stats_.max_batch = std::max(stats_.max_batch,
                                    static_cast<std::uint64_t>(stable_prefix));
        for (std::size_t i = 0; i < stable_prefix; ++i) {
          insert_forced_locked(std::move(batch[i]->record));
          batch[i]->state = SlotState::kForced;
        }
        if (stable_prefix < batch.size()) {
          ++stats_.torn_forces;
          stats_.records_requeued += batch.size() - stable_prefix;
          queue_.insert(queue_.begin(),
                        batch.begin() + static_cast<std::ptrdiff_t>(stable_prefix),
                        batch.end());
        }
      }
      cv_.notify_all();
      if (policy != nullptr) policy->notify(&cv_);
    } else if (policy == nullptr) {
      cv_.wait(lock);
    } else {
      policy->wait_round(LaneHint{WaitPoint::kLogFollower}, &cv_, lock, cv_,
                         std::chrono::microseconds(1000));
    }
  }
  switch (slot->state) {
    case SlotState::kForced:
      return AppendResult::kForced;
    case SlotState::kFailed:
      return AppendResult::kIoError;
    default:
      return AppendResult::kDropped;
  }
}

StableLog::PendingForce StableLog::submit_force(CommitLogRecord record) {
  WaitPolicy* policy = policy_.load(std::memory_order_acquire);
  FaultInjector* fault = fault_.load(std::memory_order_acquire);
  PendingForce pending;
  pending.record = std::move(record);
  std::chrono::microseconds base_delay;
  {
    const auto lock = adaptive_lock(mu_);
    base_delay = force_delay_;
    pending.generation = generation_;
  }
  // The force is its own storage round trip, not part of a group batch.
  // Every attempt's decision is drawn now, in the order the attempts
  // would reach the device, and the device time they add up to is when
  // the force completes.
  std::chrono::microseconds busy{0};
  std::uint32_t failures = 0;
  for (std::uint32_t attempts = 0;;) {
    FaultInjector::ForceDecision decision;
    if (fault != nullptr) decision = fault->on_force(1);
    busy += base_delay + std::chrono::microseconds(decision.latency_us);
    if (!decision.fail) break;
    ++failures;
    if (attempts >= decision.max_retries) {
      pending.result = AppendResult::kIoError;
      break;
    }
    ++attempts;
    busy += std::chrono::microseconds(decision.retry_backoff_us) * attempts;
  }
  if (failures > 0) {
    const auto lock = adaptive_lock(mu_);
    stats_.force_failures += failures;
  }
  pending.done_at_us = now_us(policy) + busy.count();
  return pending;
}

std::unique_lock<std::mutex> StableLog::await_device(
    const PendingForce& pending, AppendResult& result) {
  WaitPolicy* policy = policy_.load(std::memory_order_acquire);
  sleep_for_us(policy, pending.done_at_us - now_us(policy));
  auto lock = adaptive_lock(mu_);
  result = generation_ != pending.generation ? AppendResult::kDropped
                                             : pending.result;
  if (result == AppendResult::kForced) ++stats_.forces;
  return lock;
}

AppendResult StableLog::await_prepared(PendingForce pending) {
  AppendResult result{};
  const auto lock = await_device(pending, result);
  if (result == AppendResult::kForced) {
    ++stats_.prepared_forces;
    prepared_.push_back(std::move(pending.record));
  }
  return result;
}

AppendResult StableLog::await_forced(PendingForce pending) {
  AppendResult result{};
  const auto lock = await_device(pending, result);
  if (result == AppendResult::kForced) {
    ++stats_.records_forced;
    stats_.max_batch = std::max<std::uint64_t>(stats_.max_batch, 1);
    insert_forced_locked(std::move(pending.record));
  }
  return result;
}

bool StableLog::promote_prepared(ActivityId txn, Timestamp commit_ts) {
  const auto lock = adaptive_lock(mu_);
  for (auto it = prepared_.begin(); it != prepared_.end(); ++it) {
    if (it->txn == txn) {
      CommitLogRecord record = std::move(*it);
      prepared_.erase(it);
      record.commit_ts = commit_ts;
      insert_forced_locked(std::move(record));
      ++stats_.records_forced;
      ++stats_.prepared_promoted;
      return true;
    }
  }
  return false;
}

bool StableLog::drop_prepared(ActivityId txn) {
  const auto lock = adaptive_lock(mu_);
  for (auto it = prepared_.begin(); it != prepared_.end(); ++it) {
    if (it->txn == txn) {
      prepared_.erase(it);
      ++stats_.prepared_dropped;
      return true;
    }
  }
  return false;
}

std::vector<CommitLogRecord> StableLog::prepared_records() const {
  const auto lock = adaptive_lock(mu_);
  return prepared_;
}

void StableLog::adopt_record(CommitLogRecord record) {
  const auto lock = adaptive_lock(mu_);
  insert_forced_locked(std::move(record));
  ++stats_.records_forced;
  ++stats_.records_adopted;
}

void StableLog::drop_pending() {
  {
    const auto lock = adaptive_lock(mu_);
    ++generation_;
    for (auto& slot : queue_) slot->state = SlotState::kDropped;
    queue_.clear();
  }
  cv_.notify_all();
  if (WaitPolicy* policy = policy_.load(std::memory_order_acquire)) {
    policy->notify(&cv_);
  }
}

void StableLog::set_force_delay(std::chrono::microseconds delay) {
  const auto lock = adaptive_lock(mu_);
  force_delay_ = delay;
}

void StableLog::hold_flushes() {
  const auto lock = adaptive_lock(mu_);
  hold_flushes_ = true;
}

void StableLog::release_flushes() {
  {
    const auto lock = adaptive_lock(mu_);
    hold_flushes_ = false;
  }
  cv_.notify_all();
  if (WaitPolicy* policy = policy_.load(std::memory_order_acquire)) {
    policy->notify(&cv_);
  }
}

StableLog::GroupStats StableLog::group_stats() const {
  const auto lock = adaptive_lock(mu_);
  return stats_;
}

std::vector<CommitLogRecord> StableLog::records() const {
  const auto lock = adaptive_lock(mu_);
  return records_;
}

std::optional<Timestamp> StableLog::committed_ts(ActivityId txn) const {
  const auto lock = adaptive_lock(mu_);
  for (const CommitLogRecord& r : records_) {
    if (r.txn == txn) return r.commit_ts;
  }
  return std::nullopt;
}

bool StableLog::remove_record_if(
    ActivityId txn,
    const std::function<bool(const CommitLogRecord&)>& complete) {
  const auto lock = adaptive_lock(mu_);
  for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
    if (it->txn != txn) continue;
    if (!complete(*it)) return false;
    records_.erase(std::next(it).base());
    return true;
  }
  return false;
}

std::size_t StableLog::size() const {
  const auto lock = adaptive_lock(mu_);
  return records_.size();
}

void StableLog::clear() {
  const auto lock = adaptive_lock(mu_);
  records_.clear();
  prepared_.clear();
}

}  // namespace argus

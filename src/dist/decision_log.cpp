#include "dist/decision_log.h"

#include <algorithm>
#include <utility>

#include "fault/fault.h"

namespace argus {

DecisionLog::PendingDecision DecisionLog::submit_decision(
    ActivityId gid, Timestamp decision,
    const std::vector<std::size_t>& parts) {
  CommitLogRecord rec;
  rec.txn = gid;
  rec.commit_ts = decision;
  rec.start_ts = kNoTimestamp;
  rec.entries.reserve(parts.size());
  for (const std::size_t site : parts) {
    rec.entries.push_back({ObjectId{site}, {}});
  }
  return log_.submit_force(std::move(rec));
}

AppendResult DecisionLog::await_decision(PendingDecision pending) {
  if (FaultInjector* inj = fault_.load(std::memory_order_acquire)) {
    if (inj->on_decision_force()) {
      const std::scoped_lock lock(mu_);
      ++stats_.force_failures;
      return AppendResult::kIoError;
    }
  }
  const AppendResult result = log_.await_forced(std::move(pending));
  if (result == AppendResult::kForced) {
    const std::scoped_lock lock(mu_);
    ++stats_.logged;
  }
  return result;
}

void DecisionLog::ack(ActivityId gid, std::size_t site_index) {
  const std::scoped_lock lock(mu_);
  if (acks_[gid].insert(site_index).second) {
    ++stats_.acks;
    acked_since_checkpoint_.push_back(gid);
  }
}

std::size_t DecisionLog::checkpoint() {
  const std::scoped_lock lock(mu_);
  std::size_t removed = 0;
  for (const ActivityId gid : acked_since_checkpoint_) {
    const auto it = acks_.find(gid);
    if (it == acks_.end()) continue;  // already truncated
    const std::set<std::size_t>& acked = it->second;
    const bool complete =
        log_.remove_record_if(gid, [&](const CommitLogRecord& rec) {
          return std::ranges::all_of(rec.entries, [&](const auto& entry) {
            return acked.contains(static_cast<std::size_t>(entry.object.value));
          });
        });
    if (!complete) continue;
    acks_.erase(it);
    ++removed;
    ++stats_.truncated;
  }
  acked_since_checkpoint_.clear();
  return removed;
}

std::optional<Timestamp> DecisionLog::lookup(ActivityId gid) const {
  return log_.committed_ts(gid);
}

std::vector<DecisionLog::Decision> DecisionLog::replay() const {
  std::vector<Decision> out;
  for (const CommitLogRecord& rec : log_.records()) {
    Decision d;
    d.gid = rec.txn;
    d.decision = rec.commit_ts;
    d.participants.reserve(rec.entries.size());
    for (const auto& entry : rec.entries) {
      d.participants.push_back(static_cast<std::size_t>(entry.object.value));
    }
    out.push_back(std::move(d));
  }
  return out;
}

void DecisionLog::crash() {
  {
    const std::scoped_lock lock(mu_);
    acks_.clear();
    acked_since_checkpoint_.clear();
  }
  log_.drop_pending();
}

DecisionLog::Stats DecisionLog::stats() const {
  const std::scoped_lock lock(mu_);
  return stats_;
}

}  // namespace argus

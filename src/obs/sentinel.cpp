#include "obs/sentinel.h"

#include <algorithm>
#include <sstream>

#include "dsched/wait_policy.h"
#include "spec/serial.h"

namespace argus {

namespace {

/// Deduplicates a candidate set by pairwise equality (same discipline as
/// spec/serial.cpp: candidate sets stay tiny for our ADTs).
void dedupe(std::vector<std::unique_ptr<SpecState>>& states) {
  std::vector<std::unique_ptr<SpecState>> unique;
  for (auto& s : states) {
    bool dup = false;
    for (const auto& u : unique) {
      if (u->equals(*s)) {
        dup = true;
        break;
      }
    }
    if (!dup) unique.push_back(std::move(s));
  }
  states = std::move(unique);
}

std::map<ObjectId, std::vector<std::unique_ptr<SpecState>>> clone_states(
    const std::map<ObjectId, std::vector<std::unique_ptr<SpecState>>>& from) {
  std::map<ObjectId, std::vector<std::unique_ptr<SpecState>>> out;
  for (const auto& [x, set] : from) {
    auto& dst = out[x];
    dst.reserve(set.size());
    for (const auto& s : set) dst.push_back(s->clone());
  }
  return out;
}

}  // namespace

const char* to_string(CheckMode m) {
  switch (m) {
    case CheckMode::kExact:
      return "exact";
    case CheckMode::kVectorClock:
      return "vector-clock";
    case CheckMode::kEscalating:
      return "escalating";
  }
  return "?";
}

AtomicitySentinel::AtomicitySentinel(FlightRecorder& recorder,
                                     const SystemSpec& system,
                                     SentinelOptions options,
                                     MetricsRegistry* metrics)
    : recorder_(recorder), system_(system), options_(std::move(options)) {
  if (options_.mode != CheckMode::kExact) {
    VcCheckerOptions vc;
    vc.escalate = options_.mode == CheckMode::kEscalating;
    vc.checkpoint_threshold = options_.checkpoint_threshold;
    vc_ = std::make_unique<VectorClockChecker>(system_, vc);
  }
  if (metrics != nullptr) {
    violations_metric_ = &metrics->counter(
        "argus_sentinel_violations_total",
        "atomicity violations found in the committed projection");
    windows_metric_ = &metrics->counter("argus_sentinel_windows_total",
                                        "sentinel drain+check windows run");
    events_metric_ = &metrics->counter("argus_sentinel_events_total",
                                       "events drained by the sentinel");
    activities_metric_ =
        &metrics->counter("argus_sentinel_activities_total",
                          "committed activities verified serializable");
    stragglers_metric_ = &metrics->counter(
        "argus_sentinel_stragglers_total",
        "activities that committed below an already-folded checkpoint");
    fastpath_windows_metric_ = &metrics->counter(
        "argus_sentinel_fastpath_windows_total",
        "windows certified by the vector-clock fast path alone");
    escalations_metric_ = &metrics->counter(
        "argus_sentinel_escalations_total",
        "suspicious windows escalated to an exact canonical re-replay");
    suspicious_metric_ =
        &metrics->counter("argus_sentinel_suspicious_total",
                          "activities flagged suspicious by the fast path");
    vc_ops_metric_ = &metrics->counter(
        "argus_sentinel_vc_ops_total",
        "conflict-relation consults and vector-clock joins performed");
  }
}

AtomicitySentinel::~AtomicitySentinel() { stop(); }

void AtomicitySentinel::start() {
  const std::scoped_lock lock(thread_mu_);
  if (running_) return;
  running_ = true;
  stop_requested_ = false;
  loop_done_.store(false);
  thread_ = std::thread([this] { run_loop(); });
}

void AtomicitySentinel::stop() {
  {
    const std::scoped_lock lock(thread_mu_);
    if (!running_) return;
    stop_requested_ = true;
  }
  // Bounded re-notify: a heavily delayed sentinel thread (TSan CI) can be
  // between its predicate check and its wait when the first notification
  // lands. Re-sending until the loop confirms exit (bounded, so shutdown
  // can never itself become the hang) makes join() below a quick,
  // already-exited join instead of an unbounded wait.
  for (int attempt = 0; attempt < 2000; ++attempt) {
    stop_cv_.notify_all();
    if (options_.wait_policy != nullptr) {
      options_.wait_policy->notify(&stop_cv_);
    }
    if (loop_done_.load()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  thread_.join();
  {
    const std::scoped_lock lock(thread_mu_);
    running_ = false;
  }
  finalize();
}

void AtomicitySentinel::finalize() {
  poll();
  if (vc_ == nullptr) return;
  std::vector<std::string> found;
  {
    const std::scoped_lock lock(mu_);
    vc_->finish();
    sync_vc_stats();
    found.swap(pending_hooks_);
  }
  if (options_.on_violation) {
    for (const std::string& explanation : found) {
      options_.on_violation(explanation);
    }
  }
}

void AtomicitySentinel::set_window(std::chrono::milliseconds window) {
  const std::scoped_lock lock(thread_mu_);
  options_.window = window;
}

void AtomicitySentinel::set_checkpoint_threshold(std::size_t threshold) {
  const std::scoped_lock lock(mu_);
  options_.checkpoint_threshold = threshold;
  if (vc_ != nullptr) vc_->set_checkpoint_threshold(threshold);
}

void AtomicitySentinel::run_loop() {
  WaitPolicy* policy = options_.wait_policy;
  if (policy != nullptr) {
    // Join the deterministic lane pool before touching any shared state:
    // from here on, this thread runs only when the schedule picks it.
    policy->adopt_daemon("sentinel");
  }
  std::unique_lock lock(thread_mu_);
  while (!stop_requested_) {
    if (policy == nullptr) {
      stop_cv_.wait_for(lock, options_.window,
                        [this] { return stop_requested_; });
    } else {
      const auto window_us =
          std::chrono::duration_cast<std::chrono::microseconds>(
              options_.window);
      policy->wait_round(LaneHint{WaitPoint::kSentinelWindow}, &stop_cv_,
                         lock, stop_cv_, window_us);
    }
    lock.unlock();
    poll();
    lock.lock();
  }
  lock.unlock();
  loop_done_.store(true);  // stop() may cease re-notifying
  if (policy != nullptr) policy->retire_daemon();
  poll();  // final flush so stop() observes a fully checked stream
}

void AtomicitySentinel::poll() {
  std::vector<std::string> found;
  {
    const std::scoped_lock lock(mu_);
    const std::uint64_t clock_before = recorder_.sequence_now();
    if (vc_ == nullptr) {
      ingest(recorder_.drain_new());
      check_window();
      maybe_checkpoint();
    } else {
      std::vector<SequencedEvent> batch = recorder_.drain_new();
      events_seen_.fetch_add(batch.size(), std::memory_order_relaxed);
      if (events_metric_ != nullptr) events_metric_->inc(batch.size());
      vc_->feed(std::move(batch));  // freed before the epoch seals
      // The frontier hint is the clock before the *previous* batch: any
      // serialization key not yet drawn exceeds it (same reasoning as
      // the exact mode's checkpoint frontier).
      vc_->advance_frontier(prev_window_clock_);
      sync_vc_stats();
    }
    prev_window_clock_ = clock_before;
    windows_.fetch_add(1, std::memory_order_relaxed);
    if (windows_metric_ != nullptr) windows_metric_->inc();
    found.swap(pending_hooks_);
  }
  if (options_.on_violation) {
    for (const std::string& explanation : found) {
      options_.on_violation(explanation);
    }
  }
}

void AtomicitySentinel::ingest(const std::vector<SequencedEvent>& batch) {
  events_seen_.fetch_add(batch.size(), std::memory_order_relaxed);
  if (events_metric_ != nullptr) events_metric_->inc(batch.size());
  for (const SequencedEvent& se : batch) {
    ActivityBuffer& act = activities_[se.event.activity];
    const bool terminated = act.committed || act.aborted;
    switch (se.event.kind) {
      case EventKind::kInitiate:
        if (act.ts == kNoTimestamp) {
          act.ts = se.event.timestamp;
          if (!terminated) {
            open_initiations_.insert(act.ts);
            act.init_open = true;
          }
        }
        break;
      case EventKind::kCommit:
        if (!act.committed && !act.aborted) {
          act.committed = true;
          act.first_commit_seq = se.seq;
          if (se.event.has_timestamp() && act.ts == kNoTimestamp) {
            act.ts = se.event.timestamp;  // hybrid update commit stamp
          }
          buffered_committed_events_ += act.events.size();
          if (act.init_open) {
            open_initiations_.erase(open_initiations_.find(act.ts));
            act.init_open = false;
          }
        }
        break;
      case EventKind::kAbort:
        if (!act.committed && !act.aborted) {
          act.aborted = true;
          act.events.clear();  // not part of the committed projection
          act.events.shrink_to_fit();
          if (act.init_open) {
            open_initiations_.erase(open_initiations_.find(act.ts));
            act.init_open = false;
          }
        }
        break;
      case EventKind::kInvoke:
      case EventKind::kRespond:
        break;
    }
    if (act.aborted) continue;
    act.events.push_back(se);
    if (act.committed) ++buffered_committed_events_;
  }
}

void AtomicitySentinel::check_window() {
  // Committed, unfolded activities in canonical (key) order, re-checked
  // from the checkpoint each window: a straggler that commits late slots
  // into its key position automatically.
  std::vector<std::pair<std::uint64_t, ActivityId>> order;
  for (auto& [id, act] : activities_) {
    if (!act.committed || act.quarantined) continue;
    if (act.key() <= checkpoint_key_ && checkpoint_key_ != 0) {
      // Committed below an already-folded prefix; cannot be re-ordered
      // into it. Count, quarantine, move on — not a protocol violation.
      act.quarantined = true;
      stragglers_.fetch_add(1, std::memory_order_relaxed);
      if (stragglers_metric_ != nullptr) stragglers_metric_->inc();
      continue;
    }
    order.emplace_back(act.key(), id);
  }
  std::sort(order.begin(), order.end());
  auto states = clone_states(checkpoint_states_);
  for (const auto& [key, id] : order) {
    ActivityBuffer& act = activities_.at(id);
    if (replay_activity(id, act, states) && !act.checked) {
      act.checked = true;
      activities_checked_.fetch_add(1, std::memory_order_relaxed);
      if (activities_metric_ != nullptr) activities_metric_->inc();
    }
  }
}

void AtomicitySentinel::maybe_checkpoint() {
  if (buffered_committed_events_ < options_.checkpoint_threshold) return;
  // Frontier: no activity can still acquire a serialization key below
  // it. Keys are drawn fresh from the clock, so any key not yet drawn
  // exceeds the clock value at the previous window; keys already drawn
  // but unterminated sit in open_initiations_.
  std::uint64_t frontier = prev_window_clock_;
  if (!open_initiations_.empty()) {
    frontier = std::min(frontier, *open_initiations_.begin());
  }
  std::vector<std::pair<std::uint64_t, ActivityId>> fold;
  for (auto& [id, act] : activities_) {
    if (act.committed && !act.quarantined && act.key() < frontier) {
      fold.emplace_back(act.key(), id);
    }
  }
  std::sort(fold.begin(), fold.end());
  for (const auto& [key, id] : fold) {
    ActivityBuffer& act = activities_.at(id);
    replay_activity(id, act, checkpoint_states_);
    checkpoint_key_ = std::max(checkpoint_key_, key);
    buffered_committed_events_ -= std::min(
        buffered_committed_events_, act.events.size());
    activities_.erase(id);
  }
  // Drop terminated tombstones (aborted or straggler-quarantined
  // activities) whose events can no longer matter.
  for (auto it = activities_.begin(); it != activities_.end();) {
    if (it->second.aborted || it->second.quarantined) {
      it = activities_.erase(it);
    } else {
      ++it;
    }
  }
}

AtomicitySentinel::StateSet& AtomicitySentinel::states_for(
    std::map<ObjectId, StateSet>& states, ObjectId x) {
  auto it = states.find(x);
  if (it == states.end()) {
    StateSet initial;
    initial.push_back(system_.spec_of(x).initial_state());
    it = states.emplace(x, std::move(initial)).first;
  }
  return it->second;
}

bool AtomicitySentinel::replay_activity(
    ActivityId id, ActivityBuffer& act,
    std::map<ObjectId, StateSet>& states) {
  std::sort(act.events.begin(), act.events.end(),
            [](const SequencedEvent& a, const SequencedEvent& b) {
              return a.seq < b.seq;
            });
  // h|a split per object, preserving order — the per-object view whose
  // replay is exactly serializability-in-order's acceptance test.
  std::map<ObjectId, History> per_object;
  std::vector<ObjectId> object_order;
  for (const SequencedEvent& se : act.events) {
    auto [it, inserted] = per_object.try_emplace(se.event.object);
    if (inserted) object_order.push_back(se.event.object);
    it->second.append(se.event);
  }
  for (ObjectId x : object_order) {
    if (!system_.has(x)) continue;  // object created after the snapshot
    StateSet& current = states_for(states, x);
    StateSet next;
    for (const auto& s : current) {
      for (auto& reached : replay_states(*s, per_object.at(x))) {
        next.push_back(std::move(reached));
      }
    }
    dedupe(next);
    if (next.empty()) {
      std::ostringstream out;
      out << "atomicity violation: committed projection is not serializable "
             "in its canonical order — activity "
          << to_string(id) << " (key " << act.key()
          << ") has no acceptable replay at object " << to_string(x) << " ("
          << system_.spec_of(x).type_name() << "); h|a|x =\n"
          << per_object.at(x).to_string();
      report_violation(out.str());
      act.quarantined = true;
      return false;
    }
    current = std::move(next);
  }
  return true;
}

void AtomicitySentinel::report_violation(const std::string& explanation) {
  violations_.fetch_add(1, std::memory_order_relaxed);
  if (violations_metric_ != nullptr) violations_metric_->inc();
  last_violation_ = explanation;
  pending_hooks_.push_back(explanation);
}

std::string AtomicitySentinel::last_violation() const {
  const std::scoped_lock lock(mu_);
  return last_violation_;
}

void AtomicitySentinel::sync_vc_stats() {
  const VcStats& s = vc_->stats();
  const auto bump = [](Counter* metric, std::uint64_t prev,
                       std::uint64_t now) {
    if (metric != nullptr && now > prev) metric->inc(now - prev);
  };
  bump(violations_metric_, last_vc_.violations, s.violations);
  bump(activities_metric_, last_vc_.certified, s.certified);
  bump(stragglers_metric_, last_vc_.stragglers, s.stragglers);
  bump(fastpath_windows_metric_, last_vc_.fastpath_windows,
       s.fastpath_windows);
  bump(escalations_metric_, last_vc_.escalations, s.escalations);
  bump(suspicious_metric_, last_vc_.suspicious, s.suspicious);
  bump(vc_ops_metric_, last_vc_.vc_ops, s.vc_ops);
  violations_.store(s.violations, std::memory_order_relaxed);
  activities_checked_.store(s.certified, std::memory_order_relaxed);
  stragglers_.store(s.stragglers, std::memory_order_relaxed);
  fastpath_windows_.store(s.fastpath_windows, std::memory_order_relaxed);
  escalations_.store(s.escalations, std::memory_order_relaxed);
  suspicious_.store(s.suspicious, std::memory_order_relaxed);
  vc_ops_.store(s.vc_ops, std::memory_order_relaxed);
  last_vc_ = s;
  for (std::string& report : vc_->drain_reports()) {
    last_violation_ = report;
    pending_hooks_.push_back(std::move(report));
  }
}

}  // namespace argus

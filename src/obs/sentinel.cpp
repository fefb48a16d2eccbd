#include "obs/sentinel.h"

#include <algorithm>
#include <limits>

#include "dsched/wait_policy.h"

namespace argus {

namespace {

constexpr std::uint64_t kEverything = std::numeric_limits<std::uint64_t>::max();

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
                                     FrontierFn frontier,
                                     SentinelOptions options,
                                     MetricsRegistry* metrics)
    : recorder_(recorder),
      system_(system),
      frontier_(std::move(frontier)),
      options_(std::move(options)),
      fold_(system_) {
  if (options_.mode != CheckMode::kExact) {
    VcCheckerOptions vc;
    vc.escalate = options_.mode == CheckMode::kEscalating;
    vc.checkpoint_threshold = options_.checkpoint_threshold;
    // The frontier is read before each drain, so it is exact: fold only
    // below it, in key order. The monitoring-only mode keeps folding in
    // observed order, its cheap mis-order test being its point.
    vc.hold_back = vc.escalate;
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
    clean_seals_metric_ = &metrics->counter(
        "argus_sentinel_clean_seals_total",
        "epochs sealed by adopting the fast path's canonical chain");
    reseals_metric_ = &metrics->counter(
        "argus_sentinel_reseals_total",
        "epochs sealed through an exact canonical re-replay");
    held_commits_metric_ = &metrics->gauge(
        "argus_sentinel_held_commits",
        "committed activities waiting for the frontier to pass their key");
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
  std::vector<std::string> found;
  {
    const std::scoped_lock lock(mu_);
    if (vc_ == nullptr) {
      check_window(kEverything);
    } else {
      vc_->finish();
      sync_vc_stats();
    }
    publish_held(0);  // everything buffered has now been checked
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
    // Read before the drain: every committed activity keyed below it has
    // recorded its commit already, so this drain or an earlier one holds
    // it.
    const std::uint64_t frontier = frontier_();
    DrainedEvents batch = recorder_.drain_new();
    events_seen_.fetch_add(batch.size(), std::memory_order_relaxed);
    if (events_metric_ != nullptr) events_metric_->inc(batch.size());
    std::uint64_t held = 0;
    if (vc_ == nullptr) {
      ingest(batch.events);
      held = check_window(frontier);
      maybe_checkpoint(frontier);
    } else {
      vc_->feed(batch.events);
      vc_->advance_frontier(frontier);
      sync_vc_stats();
      held = vc_->held();
    }
    publish_held(held);
    retain_copies(std::move(batch.copies));
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

void AtomicitySentinel::publish_held(std::uint64_t held) {
  held_commits_.store(held, std::memory_order_relaxed);
  if (held_commits_metric_ != nullptr) {
    held_commits_metric_->set(static_cast<double>(held));
  }
}

void AtomicitySentinel::retain_copies(std::vector<SequencedEvent> copies) {
  if (!copies.empty()) {
    std::uint64_t max_seq = 0;
    for (const SequencedEvent& se : copies) max_seq = std::max(max_seq, se.seq);
    copies_.push_back(CopyBlock{std::move(copies), max_seq});
  }
  if (copies_.empty()) return;
  std::uint64_t oldest = kEverything;
  if (vc_ != nullptr) {
    oldest = vc_->oldest_retained_seq();
  } else {
    for (const auto& [id, act] : activities_) {
      for (const SequencedEvent* se : act.events) {
        oldest = std::min(oldest, se->seq);
      }
    }
  }
  std::erase_if(copies_, [oldest](const CopyBlock& block) {
    return block.max_seq < oldest;
  });
}

void AtomicitySentinel::ingest(
    const std::vector<const SequencedEvent*>& batch) {
  for (const SequencedEvent* se : batch) {
    const Event& e = se->event;
    ActivityBuffer& act = activities_[e.activity];
    const bool terminated = act.committed || act.aborted;
    switch (e.kind) {
      case EventKind::kInitiate:
        if (act.ts == kNoTimestamp) {
          act.ts = e.timestamp;
          if (!terminated) {
            open_initiations_.insert(act.ts);
            act.init_open = true;
          }
        }
        break;
      case EventKind::kCommit:
        if (!act.committed && !act.aborted) {
          act.committed = true;
          act.first_commit_seq = se->seq;
          if (e.has_timestamp() && act.ts == kNoTimestamp) {
            act.ts = e.timestamp;  // hybrid update commit stamp
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

std::uint64_t AtomicitySentinel::check_window(std::uint64_t frontier) {
  // Committed, unfolded activities below the frontier in canonical (key)
  // order, re-checked from the checkpoint each window: an activity that
  // commits late slots into its key position automatically.
  std::vector<std::pair<std::uint64_t, ActivityId>> order;
  std::uint64_t held = 0;
  for (auto& [id, act] : activities_) {
    if (!act.committed || act.quarantined) continue;
    if (act.key() >= frontier) {
      ++held;
      continue;
    }
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
  auto states = SerialFold::clone(checkpoint_states_);
  for (const auto& [key, id] : order) {
    ActivityBuffer& act = activities_.at(id);
    if (replay_activity(id, act, states) && !act.checked) {
      act.checked = true;
      activities_checked_.fetch_add(1, std::memory_order_relaxed);
      if (activities_metric_ != nullptr) activities_metric_->inc();
    }
  }
  return held;
}

void AtomicitySentinel::maybe_checkpoint(std::uint64_t frontier) {
  if (buffered_committed_events_ < options_.checkpoint_threshold) return;
  // No activity can still acquire a serialization key below the
  // frontier; initiations drained but not yet terminated hold it lower.
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

bool AtomicitySentinel::replay_activity(ActivityId id, ActivityBuffer& act,
                                        SerialFold::StateMap& states) {
  std::string why;
  if (fold_.fold(id, act.key(), act.events, states, &why)) return true;
  report_violation(
      "atomicity violation: committed projection is not serializable in "
      "its canonical order — " +
      why);
  act.quarantined = true;
  return false;
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
  bump(clean_seals_metric_, last_vc_.clean_seals, s.clean_seals);
  bump(reseals_metric_, last_vc_.reseals, s.reseals);
  violations_.store(s.violations, std::memory_order_relaxed);
  activities_checked_.store(s.certified, std::memory_order_relaxed);
  stragglers_.store(s.stragglers, std::memory_order_relaxed);
  fastpath_windows_.store(s.fastpath_windows, std::memory_order_relaxed);
  escalations_.store(s.escalations, std::memory_order_relaxed);
  suspicious_.store(s.suspicious, std::memory_order_relaxed);
  vc_ops_.store(s.vc_ops, std::memory_order_relaxed);
  clean_seals_.store(s.clean_seals, std::memory_order_relaxed);
  reseals_.store(s.reseals, std::memory_order_relaxed);
  last_vc_ = s;
  for (std::string& report : vc_->drain_reports()) {
    last_violation_ = report;
    pending_hooks_.push_back(std::move(report));
  }
}

}  // namespace argus

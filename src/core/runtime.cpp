#include "core/runtime.h"

#include <algorithm>
#include <fstream>

#include "common/errors.h"

namespace argus {

Runtime::Runtime(RecorderMode mode, SchedMode sched_mode, WaitPolicy* policy,
                 FlightRecorderOptions recorder_options)
    : mode_(mode), sched_mode_(sched_mode), wait_policy_(policy),
      metrics_(std::make_unique<MetricsRegistry>()) {
  if (sched_mode_ == SchedMode::kDeterministic && wait_policy_ == nullptr) {
    throw UsageError("SchedMode::kDeterministic requires a WaitPolicy");
  }
  if (sched_mode_ == SchedMode::kOs) wait_policy_ = nullptr;
  tm_.set_wait_policy(wait_policy_);
  if (mode_ == RecorderMode::kFlight) {
    flight_ = std::make_unique<FlightRecorder>(tm_.clock(), recorder_options);
  }
  register_collectors();
}

Runtime::~Runtime() {
  stop_sentinel();
  // The manager and log hold raw pointers into fault_injector_; sever
  // them before members start destructing.
  tm_.set_fault_injector(nullptr);
}

void Runtime::set_fault_injector(std::shared_ptr<FaultInjector> injector) {
  if (injector) {
    injector->set_sequence_source([this] { return tm_.clock().now(); });
    injector->set_crash_hook([this] { crash(); });
  }
  std::shared_ptr<FaultInjector> previous;
  {
    const std::scoped_lock lock(fault_mu_);
    previous = std::move(fault_injector_);
    fault_injector_ = injector;
  }
  // Publish to the hot paths after the shared_ptr owner is in place (and
  // sever before a previous injector can die).
  tm_.set_fault_injector(injector.get());
}

FaultInjector* Runtime::fault_injector() const {
  const std::scoped_lock lock(fault_mu_);
  return fault_injector_.get();
}

void Runtime::set_executor_stats(
    std::shared_ptr<const ExecutorStatsBlock> stats) {
  const std::scoped_lock lock(executor_mu_);
  executor_stats_ = std::move(stats);
}

History Runtime::history() const {
  // Explicitly empty with capture off: nothing was ever captured.
  return flight_ ? flight_->snapshot() : History{};
}

AtomicitySentinel& Runtime::start_sentinel(SentinelOptions options) {
  if (mode_ != RecorderMode::kFlight) {
    throw UsageError("start_sentinel requires RecorderMode::kFlight");
  }
  if (sentinel_) throw UsageError("sentinel already running");
  if (wait_policy_ != nullptr) options.wait_policy = wait_policy_;
  sentinel_ = std::make_unique<AtomicitySentinel>(
      *flight_, system_, [this] { return tm_.serialization_frontier(); },
      std::move(options), metrics_.get());
  sentinel_->start();
  return *sentinel_;
}

void Runtime::stop_sentinel() {
  if (!sentinel_) return;
  sentinel_->stop();
  sentinel_.reset();
}

void Runtime::register_collectors() {
  // Transaction manager, commit pipeline, clock and recovery: cheap
  // struct reads sampled at scrape time (pull model — the hot paths are
  // never asked to also feed a registry).
  metrics_->describe("argus_txn_begun_total", "Transactions begun",
                     "counter");
  metrics_->describe("argus_txn_committed_total", "Transactions committed",
                     "counter");
  metrics_->describe("argus_txn_aborted_total",
                     "Transactions aborted, by reason", "counter");
  metrics_->describe("argus_commit_pipeline_commits_total",
                     "Commits completed by the staged pipeline", "counter");
  metrics_->describe("argus_commit_pipeline_unforced_total",
                     "Pipeline commits with nothing to redo, not forced",
                     "counter");
  metrics_->describe("argus_commit_pipeline_seconds_total",
                     "Cumulative time in each commit-pipeline stage",
                     "counter");
  metrics_->describe("argus_group_commit_forces_total",
                     "Group-commit log flushes", "counter");
  metrics_->describe("argus_group_commit_records_total",
                     "Commit records forced to the stable log", "counter");
  metrics_->describe("argus_group_commit_max_batch",
                     "Largest single-flush group-commit batch", "gauge");
  metrics_->describe("argus_clock_timestamp",
                     "Current Lamport clock value", "gauge");
  metrics_->describe("argus_commit_watermark",
                     "Commit visibility watermark", "gauge");
  metrics_->describe("argus_watermark_lag",
                     "Clock distance the watermark trails by", "gauge");
  metrics_->describe("argus_inflight_commits",
                     "Commits between timestamp draw and apply", "gauge");
  metrics_->describe("argus_clock_turn_parks_total",
                     "Apply-turn waits that spun out and parked", "counter");
  metrics_->describe("argus_clock_cover_parks_total",
                     "Read-only watermark waits that spun out and parked",
                     "counter");
  metrics_->describe("argus_deadlocks_resolved_total",
                     "Deadlock cycles broken by victim selection", "counter");
  metrics_->describe("argus_recovery_replayed_records_total",
                     "Commit records replayed by recover()", "counter");
  metrics_->describe("argus_recovery_replayed_ops_total",
                     "Logged operations replayed by recover()", "counter");
  metrics_->add_collector([this]() {
    std::vector<MetricSample> out;
    const TxnStats txn = tm_.stats();
    out.push_back({"argus_txn_begun_total", {}, double(txn.begun)});
    out.push_back({"argus_txn_committed_total", {}, double(txn.committed)});
    for (const auto& [reason, n] : txn.aborted_by_reason) {
      out.push_back(
          {"argus_txn_aborted_total", {{"reason", to_string(reason)}},
           double(n)});
    }
    const CommitPipelineStats p = tm_.pipeline_stats();
    out.push_back(
        {"argus_commit_pipeline_commits_total", {}, double(p.commits)});
    out.push_back({"argus_commit_pipeline_unforced_total",
                   {},
                   double(p.unforced_commits)});
    const std::pair<const char*, std::uint64_t> stages[] = {
        {"validate", p.validate_us},
        {"timestamp", p.timestamp_us},
        {"log", p.log_us},
        {"apply", p.apply_us},
    };
    for (const auto& [stage, us] : stages) {
      out.push_back({"argus_commit_pipeline_seconds_total",
                     {{"stage", stage}},
                     double(us) * 1e-6});
    }
    out.push_back(
        {"argus_group_commit_forces_total", {}, double(p.log_forces)});
    out.push_back(
        {"argus_group_commit_records_total", {}, double(p.log_records)});
    out.push_back({"argus_group_commit_max_batch", {}, double(p.max_batch)});
    out.push_back({"argus_clock_timestamp", {}, double(p.clock_now)});
    out.push_back({"argus_commit_watermark", {}, double(p.watermark)});
    out.push_back({"argus_watermark_lag", {}, double(p.watermark_lag())});
    out.push_back(
        {"argus_inflight_commits", {}, double(tm_.clock().inflight())});
    out.push_back({"argus_clock_turn_parks_total",
                   {},
                   double(tm_.clock().turn_parks())});
    out.push_back({"argus_clock_cover_parks_total",
                   {},
                   double(tm_.clock().cover_parks())});
    // Lock-mode machinery: when every object is OCC/MVCC nothing ever
    // blocks, the detector never runs, and emitting its zero would read
    // as "deadlock freedom measured" when nothing was measured at all.
    const bool any_blocking =
        objects_.empty() ||
        std::ranges::any_of(objects_, [](const auto& entry) {
          auto base = std::dynamic_pointer_cast<ObjectBase>(entry.second);
          return !base || base->admission_blocks();
        });
    if (any_blocking) {
      out.push_back({"argus_deadlocks_resolved_total",
                     {},
                     double(tm_.detector().deadlocks_resolved())});
    }
    out.push_back(
        {"argus_recovery_replayed_records_total",
         {},
         double(recovery_replayed_records_.load(std::memory_order_relaxed))});
    out.push_back(
        {"argus_recovery_replayed_ops_total",
         {},
         double(recovery_replayed_ops_.load(std::memory_order_relaxed))});
    return out;
  });

  // Per-object counters (label sets grow with create_*, so a collector
  // rather than pre-registered handles).
  metrics_->describe("argus_object_invocations_total",
                     "Operations invoked, per object", "counter");
  metrics_->describe("argus_object_commits_total",
                     "Commit events applied, per object", "counter");
  metrics_->describe("argus_object_aborts_total",
                     "Abort events applied, per object", "counter");
  metrics_->describe("argus_object_waits_total",
                     "Invocations that blocked in await(), per object",
                     "counter");
  metrics_->describe("argus_object_wait_timeouts_total",
                     "Waits that doomed their transaction, per object",
                     "counter");
  metrics_->describe("argus_object_deadlock_dooms_total",
                     "Waits doomed as deadlock victims, per object",
                     "counter");
  metrics_->add_collector([this]() {
    std::vector<MetricSample> out;
    for (const auto& [id, obj] : objects_) {
      auto base = std::dynamic_pointer_cast<ObjectBase>(obj);
      if (!base) continue;
      const ObjectCounters c = base->counters();
      const MetricLabels labels{{"object", base->name()}};
      out.push_back(
          {"argus_object_invocations_total", labels, double(c.invocations)});
      out.push_back({"argus_object_commits_total", labels, double(c.commits)});
      out.push_back({"argus_object_aborts_total", labels, double(c.aborts)});
      if (!base->admission_blocks()) continue;  // lock-only telemetry
      out.push_back({"argus_object_waits_total", labels, double(c.waits)});
      out.push_back({"argus_object_wait_timeouts_total", labels,
                     double(c.wait_timeouts)});
      out.push_back({"argus_object_deadlock_dooms_total", labels,
                     double(c.deadlock_dooms)});
    }
    return out;
  });

  // Executor pool (empty until a TxnExecutor publishes its stats block).
  metrics_->describe("argus_executor_workers", "Executor pool size", "gauge");
  metrics_->describe("argus_executor_queue_depth",
                     "Tasks waiting for a pool worker", "gauge");
  metrics_->describe("argus_executor_submitted_total",
                     "Tasks submitted to the executor", "counter");
  metrics_->describe("argus_executor_completed_total",
                     "Tasks completed (committed or given up)", "counter");
  metrics_->describe("argus_executor_retries_total",
                     "Transaction re-begins after an abort", "counter");
  metrics_->describe("argus_executor_validation_aborts_total",
                     "Aborts from OCC/MVCC commit validation", "counter");
  metrics_->describe("argus_executor_gave_up_total",
                     "Tasks that exhausted their retry budget", "counter");
  metrics_->describe("argus_executor_attempts",
                     "Completed tasks that took at most `le` attempts",
                     "counter");
  metrics_->add_collector([this]() {
    std::vector<MetricSample> out;
    std::shared_ptr<const ExecutorStatsBlock> stats;
    {
      const std::scoped_lock lock(executor_mu_);
      stats = executor_stats_;
    }
    if (!stats) return out;
    const ExecutorStatsSnapshot s = snapshot_of(*stats);
    out.push_back({"argus_executor_workers", {}, double(s.workers)});
    out.push_back({"argus_executor_queue_depth", {}, double(s.queue_depth)});
    out.push_back({"argus_executor_submitted_total", {}, double(s.submitted)});
    out.push_back({"argus_executor_completed_total", {}, double(s.completed)});
    out.push_back({"argus_executor_retries_total", {}, double(s.retries)});
    out.push_back({"argus_executor_validation_aborts_total",
                   {},
                   double(s.validation_aborts)});
    out.push_back({"argus_executor_gave_up_total", {}, double(s.gave_up)});
    std::uint64_t within = 0;  // cumulative, as Prometheus buckets are
    for (std::size_t i = 0; i < kAttemptBands; ++i) {
      within += s.attempts[i];
      const std::string le = i < kAttemptBounds.size()
                                 ? std::to_string(kAttemptBounds[i])
                                 : "+Inf";
      out.push_back({"argus_executor_attempts", {{"le", le}}, double(within)});
    }
    return out;
  });

  // Fault injection (empty until set_fault_injector attaches one).
  metrics_->describe("argus_fault_injected_total",
                     "Faults injected, by site", "counter");
  metrics_->describe("argus_fault_arrivals_total",
                     "Arrivals at fault-injection sites, by site", "counter");
  metrics_->describe("argus_fault_crashes_total",
                     "Pinned whole-node crashes fired by the injector",
                     "counter");
  metrics_->add_collector([this]() {
    std::vector<MetricSample> out;
    std::shared_ptr<FaultInjector> fault;
    {
      const std::scoped_lock lock(fault_mu_);
      fault = fault_injector_;
    }
    if (!fault) return out;
    for (std::size_t i = 0; i < kFaultSiteCount; ++i) {
      const auto site = static_cast<FaultSite>(i);
      const MetricLabels labels{{"site", to_string(site)}};
      out.push_back({"argus_fault_injected_total", labels,
                     double(fault->injected_at(site))});
      out.push_back({"argus_fault_arrivals_total", labels,
                     double(fault->arrivals_at(site))});
    }
    out.push_back(
        {"argus_fault_crashes_total", {}, double(fault->crashes_fired())});
    return out;
  });

  // Recorder health.
  metrics_->describe("argus_recorder_events_total",
                     "Events ever recorded (including ring-evicted)",
                     "counter");
  metrics_->describe("argus_recorder_dropped_total",
                     "Events evicted by bounded shards", "counter");
  metrics_->describe("argus_recorder_shards",
                     "Flight-recorder shards (distinct recording threads)",
                     "gauge");
  metrics_->add_collector([this]() {
    std::vector<MetricSample> out;
    if (flight_) {
      out.push_back(
          {"argus_recorder_events_total", {}, double(flight_->total_recorded())});
      out.push_back(
          {"argus_recorder_dropped_total", {}, double(flight_->dropped())});
      out.push_back(
          {"argus_recorder_shards", {}, double(flight_->shard_count())});
    }
    return out;
  });
}

std::shared_ptr<HybridFifoQueue> Runtime::create_hybrid_queue(
    const std::string& name) {
  const ObjectId oid = allocate_object_id();
  auto obj = std::make_shared<HybridFifoQueue>(oid, name, tm_, recorder());
  objects_[oid] = obj;
  system_.add_object(oid, std::make_shared<AdtSpec<FifoQueueAdt>>());
  return obj;
}

std::shared_ptr<HybridBag> Runtime::create_hybrid_bag(
    const std::string& name) {
  const ObjectId oid = allocate_object_id();
  auto obj = std::make_shared<HybridBag>(oid, name, tm_, recorder());
  objects_[oid] = obj;
  system_.add_object(oid, std::make_shared<AdtSpec<BagAdt>>());
  return obj;
}

void Runtime::adopt(std::shared_ptr<ManagedObject> object,
                    std::shared_ptr<const SequentialSpec> spec) {
  const ObjectId oid = object->id();
  if (objects_.contains(oid)) {
    throw UsageError("object id already in use: " + to_string(oid));
  }
  system_.add_object(oid, std::move(spec));
  objects_[oid] = std::move(object);
}

std::shared_ptr<ManagedObject> Runtime::object(ObjectId id) const {
  auto it = objects_.find(id);
  if (it == objects_.end()) {
    throw UsageError("unknown object " + to_string(id));
  }
  return it->second;
}

std::vector<std::shared_ptr<ManagedObject>> Runtime::objects() const {
  std::vector<std::shared_ptr<ManagedObject>> out;
  out.reserve(objects_.size());
  for (const auto& [id, obj] : objects_) out.push_back(obj);
  return out;
}

void Runtime::set_wait_timeout_all(std::chrono::milliseconds timeout) {
  for (const auto& [id, obj] : objects_) {
    if (auto base = std::dynamic_pointer_cast<ObjectBase>(obj)) {
      base->set_wait_timeout(timeout);
    }
  }
}

void Runtime::crash() {
  tm_.doom_all_active(AbortReason::kCrash);
  if (flight_ && !crash_dump_path_.empty()) {
    // Black-box dump: the recorder tail in the parse.h notation, replayable
    // through examples/check_history_file. The fault trace rides along as
    // '#'-comment lines the parser skips, so a failing seed's dump shows
    // exactly which injected faults led up to the crash.
    std::ofstream out(crash_dump_path_, std::ios::trunc);
    if (out) {
      out << flight_->tail(crash_dump_events_).to_string();
      if (FaultInjector* fault = fault_injector()) {
        out << fault->trace_to_string();
      }
    }
  }
}

void Runtime::recover() {
  for (const auto& [id, obj] : objects_) obj->reset_for_recovery();
  for (const CommitLogRecord& record : tm_.log().records()) {
    recovery_replayed_records_.fetch_add(1, std::memory_order_relaxed);
    const ReplayContext ctx{record.txn, record.commit_ts, record.start_ts};
    for (const CommitLogRecord::Entry& entry : record.entries) {
      auto it = objects_.find(entry.object);
      if (it == objects_.end()) continue;  // object not recreated: skip
      for (const LoggedOp& logged : entry.ops) {
        it->second->replay(ctx, logged);
        recovery_replayed_ops_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
}

}  // namespace argus

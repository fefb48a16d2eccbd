// Runtime: owns the transaction manager, the observability stack (flight
// recorder, metrics registry, optional atomicity sentinel), the objects,
// and the system specification mirror used to check recorded histories
// against the formal definitions.
//
// Typical use:
//
//   Runtime rt;
//   auto acct = rt.create_dynamic<BankAccountAdt>("checking");
//   auto tx = rt.begin();
//   acct->invoke(*tx, account::deposit(100));
//   rt.commit(tx);
//   auto verdict = check_dynamic_atomic(rt.system(), rt.history());
//
// Observability (see DESIGN.md "Observability"):
//
//   * Events are captured by a sharded FlightRecorder stamped from the
//     manager's Lamport clock (RecorderMode::kFlight, the default); kOff
//     disables capture.
//   * metrics() is a MetricsRegistry pre-wired with collectors for the
//     commit pipeline, clock/watermark, per-object counters, recorder
//     and recovery — export with metrics().prometheus_text() / .json().
//   * start_sentinel() attaches an AtomicitySentinel that continuously
//     checks the committed projection of the recorded history
//     (create objects first; the sentinel snapshots the system spec).
//
// crash()/recover() simulate a whole-node failure: crash dooms every
// active transaction (their threads unwind with TransactionAborted) and
// drains the commit pipeline — group-commit records not yet forced are
// discarded and their committers abort, while records already forced
// complete their apply. If a crash-dump path is set, crash() also writes
// the flight-recorder tail in the parse.h notation so the last moments
// before the failure can be replayed through examples/check_history_file.
// After the caller has joined its worker threads, recover() resets every
// object and replays the stable intentions log (forced records only, in
// commit-timestamp order), restoring exactly the committed effects.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "check/system.h"
#include "core/dynamic_object.h"
#include "core/executor_stats.h"
#include "fault/fault.h"
#include "core/hybrid_bag.h"
#include "core/hybrid_object.h"
#include "core/hybrid_queue.h"
#include "core/occ_object.h"
#include "core/static_object.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"
#include "obs/sentinel.h"
#include "txn/manager.h"

namespace argus {

/// How the runtime's blocking points are scheduled. kOs (the default) is
/// byte-identical to the pre-dsched runtime: plain mutexes and condition
/// variables under OS scheduling. kDeterministic routes every blocking
/// point through a WaitPolicy (src/dsched) so a cooperative scheduler
/// owns every context switch and runs replay byte-for-byte.
enum class SchedMode {
  kOs,
  kDeterministic,
};

class Runtime {
 public:
  enum class RecorderMode {
    kOff,     // no capture (objects get a null sink)
    kFlight,  // sharded flight recorder (default)
  };

  explicit Runtime(RecorderMode mode = RecorderMode::kFlight,
                   FlightRecorderOptions recorder_options = {})
      : Runtime(mode, SchedMode::kOs, nullptr, std::move(recorder_options)) {}

  /// Deterministic-scheduling construction: every blocking point in this
  /// runtime routes through `policy` (required non-null for
  /// kDeterministic; must outlive the Runtime). Workload threads must be
  /// spawned as lanes of the owning DeterministicScheduler.
  Runtime(RecorderMode mode, SchedMode sched_mode, WaitPolicy* policy,
          FlightRecorderOptions recorder_options = {});

  ~Runtime();

  [[nodiscard]] TransactionManager& tm() { return tm_; }

  /// The sink protocol objects record through; nullptr iff capture is
  /// off.
  [[nodiscard]] EventSink* recorder() { return flight_.get(); }

  [[nodiscard]] RecorderMode recorder_mode() const { return mode_; }
  [[nodiscard]] SchedMode sched_mode() const { return sched_mode_; }
  /// The deterministic wait policy (nullptr in SchedMode::kOs).
  [[nodiscard]] WaitPolicy* wait_policy() const { return wait_policy_; }
  [[nodiscard]] bool recording() const { return mode_ != RecorderMode::kOff; }

  /// The flight recorder (nullptr unless the mode is kFlight).
  [[nodiscard]] FlightRecorder* flight_recorder() { return flight_.get(); }

  [[nodiscard]] const SystemSpec& system() const { return system_; }

  /// The recorded global history so far. With recording off this is
  /// explicitly the empty history — check recording() (or recorder() !=
  /// nullptr) to distinguish "no events yet" from "not recording".
  [[nodiscard]] History history() const;

  /// The runtime-wide metrics registry (commit pipeline, clock and
  /// watermark, per-object counters, recorder, recovery, sentinel).
  /// The lock-only series follow the objects held: an OCC/MVCC object
  /// never blocks, so its argus_object_wait*/deadlock_dooms series are
  /// left out, and argus_deadlocks_resolved_total is left out when every
  /// object held is one.
  [[nodiscard]] MetricsRegistry& metrics() { return *metrics_; }

  /// Starts the online atomicity sentinel over the flight recorder.
  /// Requires RecorderMode::kFlight; create objects first (the sentinel
  /// snapshots the system spec). Returns the running sentinel.
  AtomicitySentinel& start_sentinel(SentinelOptions options = {});

  /// Stops and destroys the sentinel, if one is running (its final
  /// window flushes whatever the recorder still holds).
  void stop_sentinel();

  [[nodiscard]] AtomicitySentinel* sentinel() { return sentinel_.get(); }

  /// When set, crash() writes the last `events` flight-recorder events
  /// to `path` in the parse.h notation (replayable by
  /// examples/check_history_file). With a fault injector attached the
  /// dump also carries the fault trace as '#'-comment lines.
  void set_crash_dump(std::string path, std::size_t events = 4096) {
    crash_dump_path_ = std::move(path);
    crash_dump_events_ = events;
  }

  /// Attaches (or, with nullptr, detaches) a deterministic fault
  /// injector: wires it through the stable log, the commit pipeline's
  /// crash points and every object wait path, stamps its trace from the
  /// runtime clock, makes its crash hook this->crash(), and exports
  /// argus_fault_* metrics. See src/fault/fault.h.
  void set_fault_injector(std::shared_ptr<FaultInjector> injector);

  /// The attached injector (nullptr when fault injection is off).
  [[nodiscard]] FaultInjector* fault_injector() const;

  std::shared_ptr<Transaction> begin() { return tm_.begin(TxnKind::kUpdate); }
  std::shared_ptr<Transaction> begin_read_only() {
    return tm_.begin(TxnKind::kReadOnly);
  }
  void commit(const std::shared_ptr<Transaction>& t) { tm_.commit(t); }
  void abort(const std::shared_ptr<Transaction>& t) { tm_.abort(t); }

  template <AdtTraits A>
  std::shared_ptr<DynamicAtomicObject<A>> create_dynamic(
      const std::string& name) {
    return create_impl<DynamicAtomicObject<A>, A>(name);
  }

  template <AdtTraits A>
  std::shared_ptr<StaticAtomicObject<A>> create_static(
      const std::string& name) {
    return create_impl<StaticAtomicObject<A>, A>(name);
  }

  template <AdtTraits A>
  std::shared_ptr<HybridAtomicObject<A>> create_hybrid(
      const std::string& name) {
    return create_impl<HybridAtomicObject<A>, A>(name);
  }

  template <AdtTraits A>
  std::shared_ptr<OccAtomicObject<A>> create_occ(const std::string& name) {
    return create_occ_impl<A>(name, OccStorage::kSingleVersion);
  }

  template <AdtTraits A>
  std::shared_ptr<OccAtomicObject<A>> create_mvcc(const std::string& name) {
    return create_occ_impl<A>(name, OccStorage::kMultiVersion);
  }

  std::shared_ptr<HybridFifoQueue> create_hybrid_queue(const std::string& name);

  std::shared_ptr<HybridBag> create_hybrid_bag(const std::string& name);

  /// Registers an externally constructed object (used by the
  /// scheduler-model baselines in src/sched). The ObjectId must have been
  /// obtained from allocate_object_id().
  void adopt(std::shared_ptr<ManagedObject> object,
             std::shared_ptr<const SequentialSpec> spec);

  [[nodiscard]] ObjectId allocate_object_id() {
    return ObjectId{next_object_id_++};
  }

  /// Starts object-id allocation at `base` (multi-site deployments give
  /// each Site's runtime a disjoint id range, so the merged cross-site
  /// SystemSpec and history never alias two sites' objects). Call before
  /// creating any object.
  void set_object_id_base(std::uint64_t base) { next_object_id_ = base; }

  [[nodiscard]] std::shared_ptr<ManagedObject> object(ObjectId id) const;
  [[nodiscard]] std::vector<std::shared_ptr<ManagedObject>> objects() const;

  /// Sets the blocking-wait timeout on every object created so far
  /// (benchmarks use short timeouts so pathological waits convert to
  /// aborts+retries instead of stalling the run).
  void set_wait_timeout_all(std::chrono::milliseconds timeout);

  /// Publishes a TxnExecutor's stats block to the argus_executor_*
  /// metrics (latest pool wins; nullptr detaches). The runtime keeps the
  /// shared_ptr so scrapes outliving the pool read its final values.
  void set_executor_stats(std::shared_ptr<const ExecutorStatsBlock> stats);

  /// Node failure: dooms all active transactions and discards un-forced
  /// group-commit records; writes the crash dump if configured. Join
  /// your worker threads, then call recover().
  void crash();

  /// Rebuilds every object from the stable intentions log.
  void recover();

 private:
  template <typename Obj, AdtTraits A>
  std::shared_ptr<Obj> create_impl(const std::string& name) {
    const ObjectId oid = allocate_object_id();
    auto obj = std::make_shared<Obj>(oid, name, tm_, recorder());
    objects_[oid] = obj;
    system_.add_object(oid, std::make_shared<AdtSpec<A>>());
    return obj;
  }

  template <AdtTraits A>
  std::shared_ptr<OccAtomicObject<A>> create_occ_impl(const std::string& name,
                                                      OccStorage storage) {
    const ObjectId oid = allocate_object_id();
    auto obj =
        std::make_shared<OccAtomicObject<A>>(oid, name, tm_, recorder(),
                                             storage);
    objects_[oid] = obj;
    system_.add_object(oid, std::make_shared<AdtSpec<A>>());
    return obj;
  }

  void register_collectors();

  RecorderMode mode_;
  SchedMode sched_mode_{SchedMode::kOs};
  WaitPolicy* wait_policy_{nullptr};
  TransactionManager tm_;
  mutable std::mutex fault_mu_;  // guards fault_injector_ (scrapes race sets)
  std::shared_ptr<FaultInjector> fault_injector_;
  mutable std::mutex executor_mu_;  // guards executor_stats_ vs scrapes
  std::shared_ptr<const ExecutorStatsBlock> executor_stats_;
  std::unique_ptr<FlightRecorder> flight_;  // kFlight mode
  std::unique_ptr<MetricsRegistry> metrics_;
  std::unique_ptr<AtomicitySentinel> sentinel_;
  SystemSpec system_;
  std::string crash_dump_path_;
  std::size_t crash_dump_events_{4096};
  std::atomic<std::uint64_t> recovery_replayed_records_{0};
  std::atomic<std::uint64_t> recovery_replayed_ops_{0};
  std::uint64_t next_object_id_{0};
  std::unordered_map<ObjectId, std::shared_ptr<ManagedObject>> objects_;
};

}  // namespace argus

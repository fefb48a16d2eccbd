// ObjectBase: shared machinery for runtime atomic objects — the object's
// monitor (mutex + condition variable), event recording, per-object
// telemetry counters, and a blocking wait primitive integrated with
// deadlock detection and doom wake-up.
//
// All protocol objects follow the same discipline: take the monitor,
// record the invocation event, await() until the protocol's admission
// predicate holds (registering waits-for edges while blocked), perform the
// operation, record the response inside the monitor. Recording inside the
// critical section guarantees the captured history is a faithful
// observation: any response that depends on a commit is recorded after
// that commit event.
//
// Events flow through an EventSink (obs/event_sink.h) — the sharded
// FlightRecorder, or nullptr when capture is off. Counters are
// maintained unconditionally (relaxed atomics); the runtime's metrics
// registry scrapes them per object.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/adaptive_lock.h"
#include "dsched/wait_policy.h"
#include "obs/event_sink.h"
#include "txn/managed_object.h"
#include "txn/manager.h"

namespace argus {

/// Per-object telemetry, scraped by the metrics registry
/// (argus_object_* series; see README "Observability").
struct ObjectCounters {
  std::uint64_t invocations{0};
  std::uint64_t commits{0};
  std::uint64_t aborts{0};
  std::uint64_t waits{0};          // invocations that blocked in await()
  std::uint64_t wait_timeouts{0};  // waits that doomed their transaction
  std::uint64_t deadlock_dooms{0};  // waits doomed as deadlock victims
};

class ObjectBase : public ManagedObject {
 public:
  [[nodiscard]] ObjectId id() const override { return id_; }
  [[nodiscard]] std::string name() const override { return name_; }

  void wake_all() override { notify_object(); }

  /// Maximum time a single invocation may block before the waiter dooms
  /// itself with AbortReason::kWaitTimeout (liveness backstop).
  void set_wait_timeout(std::chrono::milliseconds timeout) {
    wait_timeout_ = timeout;
  }

  /// False for objects whose admission never waits (OCC/MVCC): their
  /// wait and deadlock-doom counters stay zero by construction, so the
  /// runtime leaves those series out of its metrics.
  [[nodiscard]] virtual bool admission_blocks() const { return true; }

  [[nodiscard]] ObjectCounters counters() const {
    ObjectCounters out;
    out.invocations = invocations_.load(std::memory_order_relaxed);
    out.commits = commits_.load(std::memory_order_relaxed);
    out.aborts = aborts_.load(std::memory_order_relaxed);
    out.waits = waits_.load(std::memory_order_relaxed);
    out.wait_timeouts = wait_timeouts_.load(std::memory_order_relaxed);
    out.deadlock_dooms = deadlock_dooms_.load(std::memory_order_relaxed);
    return out;
  }

 protected:
  ObjectBase(ObjectId id, std::string name, TransactionManager& tm,
             EventSink* sink)
      : tm_(tm), sink_(sink), id_(id), name_(std::move(name)) {}

  /// Wakes every waiter on this object's monitor — the real condition
  /// variable always, plus any parked deterministic lanes.
  void notify_object() {
    cv_.notify_all();
    if (WaitPolicy* policy = tm_.wait_policy()) policy->notify(&cv_);
  }

  /// Scheduling point at an invocation's door: called *before* taking the
  /// object monitor, carrying the operation so DFS sleep sets can prune
  /// commuting invocations. No-op in SchedMode::kOs.
  void sched_point(const Operation& op) {
    if (WaitPolicy* policy = tm_.wait_policy()) {
      LaneHint hint;
      hint.point = WaitPoint::kObjectInvoke;
      hint.object = id_;
      hint.has_object = true;
      hint.op = op;
      hint.has_op = true;
      policy->yield(hint);
    }
  }

  /// Counts an invocation and records its invoke event. The event (which
  /// copies `op`) is built only when a sink is attached.
  void record_invoke(ActivityId activity, const Operation& op) {
    invocations_.fetch_add(1, std::memory_order_relaxed);
    if (sink_ != nullptr) sink_->record(argus::invoke(id_, activity, op));
  }

  void record(Event e) {
    switch (e.kind) {
      case EventKind::kInvoke:
        invocations_.fetch_add(1, std::memory_order_relaxed);
        break;
      case EventKind::kCommit:
        commits_.fetch_add(1, std::memory_order_relaxed);
        break;
      case EventKind::kAbort:
        aborts_.fetch_add(1, std::memory_order_relaxed);
        break;
      case EventKind::kRespond:
      case EventKind::kInitiate:
        break;
    }
    if (sink_ != nullptr) sink_->record(std::move(e));
  }

  /// Blocks (releasing `lock`) until pred() holds. While blocked:
  /// registers waits-for edges against blockers() (re-evaluated each
  /// round), wakes deadlock victims, and honours txn dooming and the wait
  /// timeout by throwing TransactionAborted. pred and blockers are called
  /// with the object mutex held.
  void await(std::unique_lock<std::mutex>& lock, Transaction& txn,
             const std::function<bool()>& pred,
             const std::function<std::vector<std::shared_ptr<Transaction>>()>&
                 blockers);

  TransactionManager& tm_;
  EventSink* sink_;
  mutable std::mutex mu_;
  std::condition_variable cv_;

 private:
  const ObjectId id_;
  const std::string name_;
  std::chrono::milliseconds wait_timeout_{std::chrono::milliseconds(10000)};

  std::atomic<std::uint64_t> invocations_{0};
  std::atomic<std::uint64_t> commits_{0};
  std::atomic<std::uint64_t> aborts_{0};
  std::atomic<std::uint64_t> waits_{0};
  std::atomic<std::uint64_t> wait_timeouts_{0};
  std::atomic<std::uint64_t> deadlock_dooms_{0};
};

}  // namespace argus

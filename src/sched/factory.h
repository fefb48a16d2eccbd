// Uniform object construction across every protocol, so workloads and
// benchmarks can sweep "same ADT, same workload, different concurrency
// control" — the comparison structure of every experiment in
// EXPERIMENTS.md.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "core/runtime.h"
#include "sched/lock_scheduler.h"
#include "sched/timestamp_scheduler.h"

namespace argus {

enum class Protocol {
  kDynamic,         // §4.1 — intentions lists + data-dependent admission
  kStatic,          // §4.2 — generalized multi-version timestamp ordering
  kHybrid,          // §4.3 — dynamic updates + commit-time timestamps
  kTwoPhase,        // baseline: strict 2PL, read/write locks
  kCommutativity,   // baseline: static commutativity locking
  kTimestamp,       // baseline: strict single-version timestamp ordering
  kOcc,             // foil: validate-at-commit, first-committer-wins
  kMvcc,            // foil: OCC updates + version log, snapshot reads
};

[[nodiscard]] std::string to_string(Protocol p);
[[nodiscard]] std::optional<Protocol> protocol_from_string(
    const std::string& name);

/// Creates an object of the given ADT under the given protocol, registers
/// it (and its spec) with the runtime, and returns it.
template <AdtTraits A>
std::shared_ptr<ManagedObject> make_object(Runtime& rt, Protocol protocol,
                                           const std::string& name) {
  switch (protocol) {
    case Protocol::kDynamic:
      return rt.create_dynamic<A>(name);
    case Protocol::kStatic:
      return rt.create_static<A>(name);
    case Protocol::kHybrid:
      return rt.create_hybrid<A>(name);
    case Protocol::kTwoPhase:
    case Protocol::kCommutativity: {
      const LockRule rule = protocol == Protocol::kTwoPhase
                                ? LockRule::kReadWrite
                                : LockRule::kStaticCommutativity;
      auto obj = std::make_shared<LockSchedulerObject<A>>(
          rt.allocate_object_id(), name, rt.tm(), rt.recorder(), rule);
      rt.adopt(obj, std::make_shared<AdtSpec<A>>());
      return obj;
    }
    case Protocol::kTimestamp: {
      auto obj = std::make_shared<TimestampSchedulerObject<A>>(
          rt.allocate_object_id(), name, rt.tm(), rt.recorder());
      rt.adopt(obj, std::make_shared<AdtSpec<A>>());
      return obj;
    }
    case Protocol::kOcc:
      return rt.create_occ<A>(name);
    case Protocol::kMvcc:
      return rt.create_mvcc<A>(name);
  }
  throw UsageError("unknown protocol");
}

/// Does this protocol give read-only transactions a timestamp snapshot
/// (i.e. should workloads open audits with begin_read_only)? All
/// protocols accept read-only transactions; under hybrid this unlocks the
/// non-interference fast path.
[[nodiscard]] bool supports_snapshot_reads(Protocol p);

}  // namespace argus

// One round of a workload: build a fresh runtime (timed as set-up), run
// the task list as a closed loop to completion (the measured phase), then
// check the outputs. Each round starts from an empty history, so per-
// transaction cost does not compound across rounds.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "dist/dist_runtime.h"
#include "tasks.h"
#include "trace.h"
#include "txn/manager.h"
#include "txn/stable_log.h"

namespace perfbench {

/// The simulated disk a workload commits to.
struct DiskModel {
  std::chrono::microseconds force_delay{0};  // StableLog::set_force_delay
  std::uint32_t leader_latency_us{0};        // FaultPlan leader latency

  [[nodiscard]] double modelled_us() const {
    return static_cast<double>(force_delay.count() + leader_latency_us);
  }
};
DiskModel disk_of(Workload w);

/// Median wall time of one single-threaded StableLog::append_group on the
/// workload's disk model, in microseconds.
double calibrate_force_us(const DiskModel& disk, int samples);

struct SentinelDelta {
  double stop_ms{0};
  std::uint64_t violations{0};
  std::uint64_t activities_checked{0};
  std::uint64_t windows{0};
  std::uint64_t fastpath_windows{0};
  std::uint64_t escalations{0};
};

struct RoundResult {
  double setup_s{0};
  double wall_s{0};  // measured phase: first submit -> last completion
  double cpu_s{0};   // process user+sys CPU over the measured phase
  std::uint64_t submitted{0};
  std::uint64_t committed{0};
  std::uint64_t failed{0};    // retries exhausted
  std::uint64_t attempts{0};  // summed over tasks
  std::uint64_t max_attempts{0};
  std::vector<double> update_us;  // first begin -> commit, per task
  std::vector<double> audit_us;
  std::vector<double> cross_us;

  // Deltas of the runtime's cumulative counters over the measured phase
  // (summed over sites for multisite).
  argus::CommitPipelineStats pipeline;
  argus::StableLog::GroupStats group;
  std::uint64_t deadlocks{0};
  std::uint64_t executor_retries{0};
  argus::DistStats dist;
  std::uint64_t decisions_logged{0};
  std::uint64_t decisions_outstanding{0};  // at the end of the phase
  SentinelDelta sentinel;

  std::vector<Span> spans;          // traced rounds only
  std::vector<std::string> errors;  // failed output checks
};

RoundResult run_round(Workload w, const std::vector<TaskSpec>& tasks,
                      bool traced);

}  // namespace perfbench

// Deterministic interleaving explorer: enumerate {schedule source x
// object family x fault mix}, run each cell under the deterministic
// cooperative scheduler (src/dsched), and certify every explored
// interleaving with the formal atomicity checkers plus the live sentinel.
//
// One seed drives both dimensions of nondeterminism: the schedule
// source's choices and the fault injector's decisions derive from the
// same SchedCase::plan.seed, so a case replays byte-for-byte from its
// config alone — the same contract the fault sweep established for FaultPlan,
// extended to thread interleavings. Every run additionally emits a
// compact schedule string; replaying it (ScheduleKind::kReplay) pins the
// exact interleaving, and prefix-length bisection over that string is
// the schedule minimizer (minimize(const SchedCase&, ...)).
//
// Exploration strategies per case: seeded-random, PCT-style priority
// schedules with k change points, and (run_dfs_explore) exhaustive DFS
// over small configurations with sleep-set-style pruning of commuting
// steps, using the ADTs' static commutativity as the independence
// relation.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dsched/schedule_source.h"
#include "fault/fault.h"
#include "sched/factory.h"
#include "sim/sweep.h"

namespace argus {

enum class ScheduleKind {
  kRandom,  // uniform over the ready set, seeded
  kPct,     // PCT priority schedule with k change points
  kDfs,     // leftmost DFS path (use run_dfs_explore for the full tree)
  kReplay,  // replay SchedCase::schedule exactly
};

[[nodiscard]] std::string to_string(ScheduleKind kind);

/// One explorer configuration. Round-trips through
/// to_config_string/parse_case (the tests/corpus/sched file format).
struct SchedCase {
  ScheduleKind kind{ScheduleKind::kRandom};
  /// plan.seed drives the schedule source AND the fault injector.
  FaultPlan plan;
  std::uint32_t pct_change_points{2};
  Protocol protocol{Protocol::kDynamic};
  std::string adt{"bank"};  // "bank" | "queue"
  int objects{2};
  int lanes{3};
  int txns_per_lane{2};
  std::int64_t initial_balance{3};
  bool live_sentinel{true};
  /// Seeded regression knob: replaces the dynamic objects' admission
  /// test with admit-everything (AdmissionMode::kChaosAdmitAll). Runs
  /// under it must FAIL certification; the explorer minimizes them.
  /// Only meaningful for adt=bank, protocol=dynamic.
  bool weaken_admission{false};
  /// Recorded schedule to replay (kReplay); ignored otherwise.
  std::string schedule;

  friend bool operator==(const SchedCase&, const SchedCase&) = default;
};

/// Renders a case as `key value` lines ('#' comments allowed).
[[nodiscard]] std::string to_config_string(const SchedCase& c);

/// Parses the to_config_string format. Unknown keys and malformed lines
/// are errors. On failure returns false and sets *error.
[[nodiscard]] bool parse_case(const std::string& text, SchedCase* out,
                              std::string* error);

struct SchedCaseResult : CaseResult {
  std::string schedule;  // the schedule string this run took
  std::uint64_t steps{0};
  bool overflowed{false};
  bool crashed_mid_run{false};
  std::uint64_t sentinel_violations{0};
};

/// Runs one case start to finish under the deterministic scheduler:
/// build the objects, attach the injector, drive the lanes to
/// completion, crash, recover, certify. Deterministic: same case, same
/// result, byte-equal trace, identical schedule string.
[[nodiscard]] SchedCaseResult run_case(const SchedCase& c);

/// Shrinks a failing case to the shortest replay prefix of
/// failed_run.schedule (the schedule its failing run took) that still
/// reproduces the failure (past the prefix, replay defaults to the
/// lowest-id ready lane). `still_fails` decides reproduction (normally
/// !run_case(c).ok). Returns the kReplay case; if even the empty prefix
/// fails, that is the answer.
[[nodiscard]] SchedCase minimize(
    const SchedCase& failing, const SchedCaseResult& failed_run,
    const std::function<bool(const SchedCase&)>& still_fails);

/// The independence relation used for sleep-set pruning: two steps
/// commute when they are object invocations by different lanes that
/// either target different objects or statically commute under the ADT.
/// Sound under-approximation — anything else is treated as dependent.
[[nodiscard]] DfsIndependence sched_independence(const std::string& adt);

struct DfsExploreResult {
  std::uint64_t runs{0};
  std::uint64_t certified{0};
  std::uint64_t pruned_branches{0};
  bool exhausted{false};  // full tree explored (vs. max_runs truncation)
  struct Failure {
    std::string schedule;
    std::string failure;
  };
  std::vector<Failure> failures;
};

/// Exhaustive DFS over `base`'s configuration (live_sentinel is forced
/// off: the daemon lane would inflate the branching factor), certifying
/// every non-pruned interleaving. Stops after max_runs executions.
[[nodiscard]] DfsExploreResult run_dfs_explore(const SchedCase& base,
                                               std::uint64_t max_runs = 4096,
                                               std::size_t max_depth = 4096);

/// Sweep shape: {random, pct} x object families x fault mixes x seeds.
struct SchedExploreOptions {
  std::uint64_t seeds_per_cell{16};
  int objects{2};
  int lanes{3};
  int txns_per_lane{2};
  std::int64_t initial_balance{3};
  bool weaken_admission{false};  // seeded-regression sweep when true
};

/// The enumerated configurations (deterministic order). With the default
/// options: 2 kinds x 6 families x 4 mixes x 16 seeds = 768 cases.
[[nodiscard]] std::vector<SchedCase> enumerate_sched_cases(
    const SchedExploreOptions& options = {});

/// run_sweep<SchedExploreSummary>(enumerate_sched_cases(...)) tallies:
struct SchedExploreSummary : SweepSummary<SchedCase> {
  std::uint64_t crashed_mid_run{0};
  std::uint64_t committed{0};
  std::uint64_t faults_injected{0};
  std::uint64_t schedule_steps{0};

  void add(const SchedCaseResult& r) {
    if (r.crashed_mid_run) ++crashed_mid_run;
    committed += r.committed;
    faults_injected += r.faults_injected;
    schedule_steps += r.steps;
  }
};

}  // namespace argus

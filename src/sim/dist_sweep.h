// Cross-site sweep driver: enumerate {site count x fault mix x seed},
// run a deterministic bank workload over a sharded + replicated
// DistRuntime with injected site churn and pipeline faults, recover
// every failed site, and certify the outcome with the atomicity
// checkers plus distributed invariant probes.
//
// Each case is single-threaded on purpose, exactly like the single-site
// fault sweep (sim/fault_sweep.h): with one driver thread every injector
// arrival, every Lamport stamp (per-site clocks draw from disjoint
// residue classes) and every recorded event is a pure function of the
// DistSweepCase, so re-running a case reproduces the merged cross-site
// trace byte for byte — a failing configuration replays from its seed.
//
// Liveness is part of the schedule: the coordinator injector decides
// site fail/recover per tick, and ticks run between transactions *and
// between 2PC protocol steps*, so the sweep explores participants dying
// after prepare, before the decision, and between deliveries.
//
// The coordinator itself is a fault axis (PR 8): a pinned coordinator
// crash at any of the four 2PC protocol steps, decision-log force
// failures, and per-message loss/latency on prepare/decide/ack — all
// crossed with message mixes and seeds at a fixed 3-site deployment
// (two participants to strand, one surviving peer for cooperative
// termination). The workload loop runs the termination protocol between
// transactions, so fenced participants rejoin mid-run the way a real
// deployment would, and the epilogue asserts total resolution: no
// prepared record anywhere, and (absent torn-batch faults) a fully
// drained decision log.
//
// Certification per case, after the epilogue recovers every down site:
//
//   * conservation — the summed balance over every logical variable
//     (one physical copy each) equals what the setup deposited; no
//     partial 2PC, lost promotion, or catch-up slip may break it.
//   * replica agreement — every copy of every replicated variable holds
//     the same value at every site, and no replica diverged mid-run.
//   * per-site log order / watermark coverage — each site's stable log
//     is timestamp-sorted and covered, as in the single-site sweep.
//   * formal checkers — each site's history AND the merged cross-site
//     history (one activity per global transaction) are well-formed and
//     satisfy the protocol's local atomicity property.
//   * sentinels — each site's online checker saw no violation at any
//     point, including mid-crash windows.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dist/dist_runtime.h"
#include "fault/fault.h"
#include "sched/factory.h"
#include "sim/sweep.h"

namespace argus {

/// One sweep configuration. Round-trips through to_config_string/
/// parse_case (the corpus file format in tests/corpus/dist/).
struct DistSweepCase {
  FaultPlan plan;
  Protocol protocol{Protocol::kHybrid};
  int sites{2};
  int sharded{4};     // sharded (single-copy) accounts, round-robin placed
  int replicated{2};  // fully replicated accounts (one copy per site)
  int transactions{24};
  std::int64_t initial_balance{100};

  friend bool operator==(const DistSweepCase&, const DistSweepCase&) = default;
};

/// Renders a case as `key value` lines ('#' comments allowed).
[[nodiscard]] std::string to_config_string(const DistSweepCase& c);

/// Parses the to_config_string format. Unknown keys and malformed lines
/// are errors, and so is a protocol other than dynamic or hybrid (2PC
/// needs one that can hold a decision open); returns false and sets
/// *error.
[[nodiscard]] bool parse_case(const std::string& text, DistSweepCase* out,
                              std::string* error);

/// Outcome of one case. Its trace is the merged cross-site dump;
/// committed counts one-phase, 2PC and read-only commits;
/// faults_injected sums the coordinator and every site injector.
struct DistCaseResult : CaseResult {
  DistStats stats;  // the deployment's counters at the end of the run
};

/// Runs one case start to finish: build the deployment, seed the bank,
/// attach the fault plan, drive the workload (ticking liveness), recover
/// every down site, certify. Deterministic: same case, same result,
/// byte-equal merged trace.
[[nodiscard]] DistCaseResult run_case(const DistSweepCase& c);

/// Shrinks a failing case to the smallest fault budget in
/// [0, failed_run.faults_injected] that still reproduces it (site churn
/// counts against the budget like every other fault class).
/// `still_fails` decides reproduction (normally !run_case(c).ok).
[[nodiscard]] DistSweepCase minimize(
    const DistSweepCase& failing, const DistCaseResult& failed_run,
    const std::function<bool(const DistSweepCase&)>& still_fails);

/// Sweep shape: every site count x every fault mix x every protocol x
/// seeds_per_cell seeds.
struct DistSweepOptions {
  std::vector<int> site_counts{1, 2, 3, 4};
  std::vector<Protocol> protocols{Protocol::kDynamic, Protocol::kHybrid};
  std::uint64_t seeds_per_cell{5};
  int sharded{4};
  int replicated{2};
  int transactions{24};
  std::int64_t initial_balance{100};
};

/// The enumerated configurations (deterministic order; >= 320 with the
/// defaults: 4 site counts x 5 mixes x 2 protocols x 5 seeds, plus the
/// coordinator-fault axis appended after them — 4 pinned coordinator
/// crash steps x 3 message mixes x 2 protocols x 5 seeds at 3 sites).
[[nodiscard]] std::vector<DistSweepCase> enumerate_dist_cases(
    const DistSweepOptions& options = {});

/// run_sweep<DistSweepSummary>(enumerate_dist_cases(...)) tallies:
struct DistSweepSummary : SweepSummary<DistSweepCase> {
  std::uint64_t faults_injected{0};
  std::uint64_t site_fails{0};
  std::uint64_t committed{0};
  std::uint64_t two_pc_commits{0};
  std::uint64_t promoted_commits{0};
  std::uint64_t coord_crashes{0};
  /// In-doubt records resolved by the termination protocol, via the
  /// recovered commit list or a surviving peer's stable log.
  std::uint64_t termination_promotions{0};

  void add(const DistCaseResult& r) {
    faults_injected += r.faults_injected;
    site_fails += r.stats.site_fails;
    committed += r.committed;
    two_pc_commits += r.stats.two_pc_commits;
    promoted_commits += r.stats.promoted_commits;
    coord_crashes += r.stats.coord_crashes;
    termination_promotions += r.stats.termination_promoted +
                              r.stats.termination_peer_promotions;
  }
};

}  // namespace argus

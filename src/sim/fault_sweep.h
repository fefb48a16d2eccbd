// Crash-point sweep driver: enumerate {crash point x fault mix x seed},
// run a deterministic bank workload under injected faults, crash,
// recover, and certify the outcome with the atomicity checker plus
// invariant probes.
//
// Each case is single-threaded on purpose: with one driver thread every
// injector arrival index, every Lamport stamp and every recorded event is
// a pure function of the FaultSweepCase, so re-running a case reproduces
// the flight-recorder trace byte for byte — a failing configuration is a
// bug report you can replay from its seed (see tests/corpus/).
//
// Certification per case, after crash + recover:
//
//   * conservation — the summed balance equals what the setup deposited
//     (transfers move money or do nothing; an escrow-style conservation
//     invariant no partial commit may break).
//   * watermark coverage — every forced record's commit timestamp is
//     covered by the visibility watermark (nothing stable is invisible).
//   * log order — the stable log is sorted by commit timestamp, so
//     recovery replays in serialization order.
//   * formal checkers — the recorded history is well-formed and satisfies
//     the protocol's local atomicity property (dynamic / static / hybrid
//     atomic, §4.1/§4.2.2/§4.3.2).
//   * sentinel — the online checker saw no violation at any point,
//     including mid-crash.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "sched/factory.h"
#include "sim/sweep.h"

namespace argus {

/// One sweep configuration: a fault plan plus the workload shape. The
/// whole struct round-trips through to_config_string/parse_case (the
/// corpus file format).
struct FaultSweepCase {
  FaultPlan plan;
  Protocol protocol{Protocol::kDynamic};
  int accounts{4};
  int transactions{24};
  std::int64_t initial_balance{100};

  friend bool operator==(const FaultSweepCase&, const FaultSweepCase&) =
      default;
};

/// Renders a case as `key value` lines (one per field, '#' comments
/// allowed) — the format checked into tests/corpus/*.txt.
[[nodiscard]] std::string to_config_string(const FaultSweepCase& c);

/// Parses the to_config_string format. Unknown keys and malformed lines
/// are errors (a corpus file that silently half-applies would defeat the
/// point of replay). On failure returns false and sets *error.
[[nodiscard]] bool parse_case(const std::string& text, FaultSweepCase* out,
                              std::string* error);

/// Outcome of one case: the certification verdict plus enough context to
/// report and replay it.
struct FaultCaseResult : CaseResult {
  bool crashed_mid_run{false};  // the pinned crash fired during the workload
  std::uint64_t log_records{0};
};

/// Runs one case start to finish: build the bank, attach the injector,
/// drive the workload until done (or the pinned crash fires), crash,
/// recover, certify. Deterministic: same case, same result, byte-equal
/// trace.
[[nodiscard]] FaultCaseResult run_case(const FaultSweepCase& c);

/// Shrinks a failing case to the smallest fault budget in
/// [0, failed_run.faults_injected] that still reproduces it (any budget
/// past the faults its failing run injected changes nothing).
/// `still_fails` decides reproduction (normally !run_case(c).ok); if
/// even budget 0 fails, the failure needs no probabilistic faults at all.
[[nodiscard]] FaultSweepCase minimize(
    const FaultSweepCase& failing, const FaultCaseResult& failed_run,
    const std::function<bool(const FaultSweepCase&)>& still_fails);

/// Sweep shape: every crash point (plus "no pinned crash") x every fault
/// mix x every protocol x seeds_per_cell seeds.
struct FaultSweepOptions {
  std::vector<Protocol> protocols{Protocol::kDynamic, Protocol::kHybrid};
  std::uint64_t seeds_per_cell{4};
  int accounts{4};
  int transactions{24};
  std::int64_t initial_balance{100};
};

/// The enumerated configurations (deterministic order).
[[nodiscard]] std::vector<FaultSweepCase> enumerate_fault_cases(
    const FaultSweepOptions& options = {});

/// run_sweep<FaultSweepSummary>(enumerate_fault_cases(...)) tallies:
struct FaultSweepSummary : SweepSummary<FaultSweepCase> {
  std::uint64_t crashed_mid_run{0};
  std::uint64_t faults_injected{0};
  std::uint64_t committed{0};

  void add(const FaultCaseResult& r) {
    if (r.crashed_mid_run) ++crashed_mid_run;
    faults_injected += r.faults_injected;
    committed += r.committed;
  }
};

}  // namespace argus

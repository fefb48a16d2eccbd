// The harness the fault, schedule and dist sweeps share. Each sweep
// supplies a case type with four overloads —
//
//   std::string to_config_string(const Case&);      // corpus file text
//   bool parse_case(const std::string&, Case*, std::string* error);
//   Result run_case(const Case&);                   // deterministic
//   Case minimize(const Case&, const Result& failed_run,
//                 const std::function<bool(const Case&)>& still_fails);
//
// — plus its enumerator and a summary that tallies its own counters.
// Running, minimizing and dumping failures is written once, here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace argus {

/// The smallest x in [lo, hi] for which `fails(x)` holds, for a
/// predicate monotone in x that holds at hi: tries lo first, then
/// bisects. Budget and schedule-prefix minimization both reduce to it.
[[nodiscard]] std::uint64_t smallest_failing(
    std::uint64_t lo, std::uint64_t hi,
    const std::function<bool(std::uint64_t)>& fails);

/// What every case result carries; each sweep's result adds its own
/// counters.
struct CaseResult {
  bool ok{false};
  std::string failure;  // every failed probe/checker, newline-separated
  std::string trace;    // replayable history dump + '#' fault-trace lines
  std::uint64_t committed{0};
  std::uint64_t aborted{0};
  std::uint64_t faults_injected{0};
};

/// The result type of run_case for a case type.
template <typename Case>
using ResultOf = decltype(run_case(std::declval<const Case&>()));

template <typename Case>
struct SweepFailure {
  Case config;            // as enumerated
  ResultOf<Case> result;  // its failing run: failure text, counters, schedule
};

/// What every sweep summary counts; each sweep's summary derives from it
/// and adds its own counters through add(result).
template <typename Case>
struct SweepSummary {
  std::uint64_t cases{0};
  std::uint64_t certified{0};
  std::vector<SweepFailure<Case>> failures;

  [[nodiscard]] bool all_ok() const { return failures.empty(); }
};

/// Runs every case in order, tallies each result into the summary, and
/// keeps every failing case with its run for minimize_and_save_failures.
template <typename Summary, typename Case>
[[nodiscard]] Summary run_sweep(const std::vector<Case>& cases) {
  Summary summary;
  for (const Case& c : cases) {
    auto result = run_case(c);
    ++summary.cases;
    summary.add(result);
    if (result.ok) {
      ++summary.certified;
    } else {
      summary.failures.push_back({c, std::move(result)});
    }
  }
  return summary;
}

/// Writes one minimized failing config, its failure text as '#' comment
/// lines, to $ARGUS_SWEEP_ARTIFACT_DIR (CI uploads the directory). A
/// no-op when the variable is unset or empty.
void write_sweep_artifact(const std::string& name, const std::string& failure,
                          const std::string& config);

/// Minimization costs a few runs per failure; past this many failures a
/// broken build is already plain, so the rest are only listed.
inline constexpr std::size_t kMaxMinimizedFailures = 8;

/// Every failure of a sweep as text for a test message (stream it after
/// the assertion, so it runs only when the sweep failed): the config as
/// enumerated and its failure, and for the first kMaxMinimizedFailures
/// the minimized config, each also saved with write_sweep_artifact under
/// a name from its seed.
template <typename Case>
[[nodiscard]] std::string minimize_and_save_failures(
    const SweepSummary<Case>& summary) {
  std::string report;
  for (std::size_t i = 0; i < summary.failures.size(); ++i) {
    const SweepFailure<Case>& f = summary.failures[i];
    report += "---- failing config ----\n" + to_config_string(f.config) +
              f.result.failure + "\n";
    if (i >= kMaxMinimizedFailures) continue;
    const std::string minimized = to_config_string(minimize(
        f.config, f.result,
        [](const Case& probe) { return !run_case(probe).ok; }));
    write_sweep_artifact("minimized_" + std::to_string(f.config.plan.seed),
                         f.result.failure, minimized);
    report += "---- minimized ----\n" + minimized;
  }
  return report;
}

}  // namespace argus

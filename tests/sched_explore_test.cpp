// The model-checking tier's main gate: enumerate {schedule source x
// object family x fault mix x seed}, run every cell under the
// deterministic scheduler, and certify each explored interleaving with
// the formal checkers plus the live sentinel.
//
//   * Default: 768 configurations (2 sources x 6 families x 4 mixes x 16
//     seeds), all of which must certify with zero atomicity violations.
//   * ARGUS_DSCHED_DEEP=<n> scales seeds_per_cell to n (the nightly /
//     workflow-input CI mode).
//   * ARGUS_SWEEP_ARTIFACT_DIR=<dir>: on failure, the first failing
//     configurations (kMaxMinimizedFailures) are written there,
//     minimized to their shortest failing schedule prefix, as
//     replayable config files (uploaded by CI).
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>

#include "sim/sched_explore.h"

namespace argus {
namespace {

std::uint64_t deep_seeds_or(std::uint64_t fallback) {
  const char* deep = std::getenv("ARGUS_DSCHED_DEEP");
  if (deep == nullptr || *deep == '\0') return fallback;
  const unsigned long long n = std::strtoull(deep, nullptr, 10);
  return n > 0 ? n : fallback;
}

TEST(SchedExplore, EveryEnumeratedConfigurationCertifies) {
  SchedExploreOptions options;
  options.seeds_per_cell = deep_seeds_or(16);
  const auto cases = enumerate_sched_cases(options);
  ASSERT_GE(cases.size(), 500u)
      << "the explorer must cover at least 500 {schedule x fault} cells";

  const auto summary = run_sweep<SchedExploreSummary>(cases);

  EXPECT_EQ(summary.cases, cases.size());
  EXPECT_EQ(summary.certified, summary.cases);
  EXPECT_TRUE(summary.all_ok()) << minimize_and_save_failures(summary);

  // The sweep must actually exercise both dimensions: schedules moved
  // (steps accrued) and the fault mixes injected faults somewhere.
  EXPECT_GT(summary.schedule_steps, summary.cases * 10);
  EXPECT_GT(summary.faults_injected, 0u);
  EXPECT_GT(summary.crashed_mid_run, 0u)
      << "the pinned-crash mix never fired";
  EXPECT_GT(summary.committed, summary.cases)
      << "workloads barely committed anything — scheduler starvation?";
}

TEST(SchedExplore, EnumerationIsDeterministic) {
  const auto a = enumerate_sched_cases();
  const auto b = enumerate_sched_cases();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "case " << i;
  }
  // Seeds are pairwise distinct: no two cells share a decision stream.
  std::set<std::uint64_t> seeds;
  for (const SchedCase& c : a) seeds.insert(c.plan.seed);
  EXPECT_EQ(seeds.size(), a.size());
}

}  // namespace
}  // namespace argus

// The crash-point sweep: every {crash point x fault mix x seed}
// configuration must come through crash + recovery with the atomicity
// checker and every invariant probe green — and any single configuration
// must replay from its seed to a byte-equal trace. Labeled `faultsweep`
// (its own CI job) on top of the tier-1 suite.
//
//   * ARGUS_SWEEP_ARTIFACT_DIR=<dir>: on failure, the first failing
//     configurations (kMaxMinimizedFailures) are written there
//     budget-minimized, as replayable config files (uploaded by CI;
//     replay with examples/fault_replay).
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "sim/fault_sweep.h"
#include "test_util.h"

namespace argus {
namespace {

TEST(FaultSweepConfig, RoundTripsThroughConfigString) {
  FaultSweepCase c;
  c.protocol = Protocol::kHybrid;
  c.accounts = 3;
  c.transactions = 17;
  c.initial_balance = 250;
  c.plan.seed = 987654321;
  c.plan.force_fail_permille = 120;
  c.plan.force_max_retries = 5;
  c.plan.force_retry_backoff_us = 7;
  c.plan.torn_batch_permille = 333;
  c.plan.leader_latency_permille = 44;
  c.plan.leader_latency_us = 55;
  c.plan.crash_point = FaultSite::kMidApply;
  c.plan.crash_at_arrival = 2;
  c.plan.spurious_timeout_permille = 66;
  c.plan.delayed_wakeup_permille = 77;
  c.plan.delayed_wakeup_us = 88;
  c.plan.max_faults = 9;

  FaultSweepCase back;
  std::string error;
  ASSERT_TRUE(parse_case(to_config_string(c), &back, &error)) << error;
  EXPECT_EQ(back, c);
}

TEST(FaultSweepConfig, RejectsMalformedInput) {
  FaultSweepCase c;
  std::string error;
  EXPECT_FALSE(parse_case("no_such_key 1\n", &c, &error));
  EXPECT_NE(error.find("unknown key"), std::string::npos);
  EXPECT_FALSE(parse_case("seed banana\n", &c, &error));
  EXPECT_NE(error.find("not a number"), std::string::npos);
  EXPECT_FALSE(parse_case("protocol vaporware\n", &c, &error));
  EXPECT_NE(error.find("unknown protocol"), std::string::npos);
  EXPECT_FALSE(parse_case("crash_point nowhere\n", &c, &error));
  EXPECT_NE(error.find("unknown crash point"), std::string::npos);
  // A pinned crash at a site the pipeline never reaches could not fire.
  EXPECT_FALSE(parse_case("crash_point coord-pre-prepare\n", &c, &error));
  EXPECT_NE(error.find("unknown crash point"), std::string::npos);
  EXPECT_FALSE(parse_case("crash_point log-force\n", &c, &error));
  EXPECT_FALSE(parse_case("seed 1 2\n", &c, &error));
  // Whole tokens only, no sign, and within the field's width.
  EXPECT_FALSE(parse_case("accounts -1\n", &c, &error));
  EXPECT_NE(error.find("not a number"), std::string::npos);
  EXPECT_FALSE(parse_case("seed 12abc\n", &c, &error));
  EXPECT_NE(error.find("not a number"), std::string::npos);
  EXPECT_FALSE(parse_case("transactions 1e3\n", &c, &error));
  EXPECT_FALSE(parse_case("seed +5\n", &c, &error));
  EXPECT_FALSE(parse_case("force_fail_permille 4294967297\n", &c, &error));
  EXPECT_NE(error.find("out of range"), std::string::npos);
  EXPECT_FALSE(parse_case("accounts 2147483648\n", &c, &error));
  EXPECT_FALSE(parse_case("seed 18446744073709551616\n", &c, &error));
  // Multi-site knobs belong to the dist format only.
  EXPECT_FALSE(parse_case("site_fail_permille 10\n", &c, &error));
  // Comments and blank lines are fine.
  EXPECT_TRUE(parse_case("# comment\n\n  seed 5\n", &c, &error))
      << error;
  EXPECT_EQ(c.plan.seed, 5u);
}

TEST(FaultSweep, EnumeratesTheFullGrid) {
  const auto cases = enumerate_fault_cases();
  // 5 crash placements (none + 4 pipeline stages) x 5 mixes x 2 protocols
  // x 4 seeds.
  EXPECT_EQ(cases.size(), 200u);
  // No two cells share a decision stream.
  std::set<std::uint64_t> seeds;
  for (const auto& c : cases) seeds.insert(c.plan.seed);
  EXPECT_EQ(seeds.size(), cases.size());
}

TEST(FaultSweep, EveryConfigurationCertifiesCleanAfterCrashRecover) {
  const auto summary =
      run_sweep<FaultSweepSummary>(enumerate_fault_cases());
  EXPECT_EQ(summary.cases, 200u);
  EXPECT_TRUE(summary.all_ok()) << minimize_and_save_failures(summary);
  // The sweep genuinely exercised the fault machinery: pinned crashes
  // fired mid-workload and probabilistic faults were injected.
  EXPECT_GT(summary.crashed_mid_run, 0u);
  EXPECT_GT(summary.faults_injected, 0u);
  EXPECT_GT(summary.committed, 0u);
}

TEST(FaultSweep, OccAndMvccComeThroughTheSweepClean) {
  // The optimistic modes against the same crash-point grid the
  // data-dependent protocols face: versioned storage must recover from
  // the timestamp-sorted stable log, and serial validation must never
  // leave a half-admitted record behind a crash. Separate from the
  // default sweep so its 200-case shape stays pinned.
  FaultSweepOptions options;
  options.protocols = {Protocol::kOcc, Protocol::kMvcc};
  options.seeds_per_cell = 2;
  const auto summary =
      run_sweep<FaultSweepSummary>(enumerate_fault_cases(options));
  // 5 crash placements x 5 mixes x 2 protocols x 2 seeds.
  EXPECT_EQ(summary.cases, 100u);
  EXPECT_TRUE(summary.all_ok()) << minimize_and_save_failures(summary);
  EXPECT_GT(summary.crashed_mid_run, 0u);
  EXPECT_GT(summary.committed, 0u);
}

TEST(FaultSweep, OccReplayIsByteForByteToo) {
  FaultSweepCase c;
  c.protocol = Protocol::kOcc;
  c.plan.seed = 7654321;
  c.plan.force_fail_permille = 120;
  c.plan.force_max_retries = 2;
  c.plan.force_retry_backoff_us = 10;
  c.plan.torn_batch_permille = 150;
  c.plan.crash_point = FaultSite::kMidApply;
  c.plan.crash_at_arrival = 1;

  const FaultCaseResult first = testutil::expect_replays_byte_equal(c);
  EXPECT_TRUE(first.ok) << first.failure;
}

TEST(FaultSweep, ReplayingASeedReproducesTheTraceByteForByte) {
  // The chaos mix with a mid-apply pinned crash — the nastiest cell.
  FaultSweepCase c;
  c.protocol = Protocol::kDynamic;
  c.plan.seed = 1234567;
  c.plan.force_fail_permille = 120;
  c.plan.force_max_retries = 2;
  c.plan.force_retry_backoff_us = 10;
  c.plan.torn_batch_permille = 150;
  c.plan.leader_latency_permille = 100;
  c.plan.leader_latency_us = 50;
  c.plan.crash_point = FaultSite::kMidApply;
  c.plan.crash_at_arrival = 1;

  const FaultCaseResult first = testutil::expect_replays_byte_equal(c);
  EXPECT_TRUE(first.ok) << first.failure;
  EXPECT_FALSE(first.trace.empty());
}

TEST(FaultSweep, MinimizeFindsTheSmallestReproducingBudget) {
  // Stand-in failure predicate: "at least three faults were injected".
  // Monotone in the budget, so the bisection must land exactly on 3.
  FaultSweepCase c;
  c.plan.seed = 99;
  c.plan.torn_batch_permille = 600;
  c.plan.force_fail_permille = 200;
  c.plan.force_max_retries = 1;
  c.plan.force_retry_backoff_us = 1;

  const auto full = run_case(c);
  ASSERT_GE(full.faults_injected, 3u) << "pick a hotter seed";
  const auto still_fails = [](const FaultSweepCase& probe) {
    return run_case(probe).faults_injected >= 3;
  };
  const FaultSweepCase minimized = minimize(c, full, still_fails);
  EXPECT_EQ(minimized.plan.max_faults, 3u);
  EXPECT_TRUE(still_fails(minimized));
}

TEST(FaultSweep, MinimizeReturnsZeroWhenNoFaultsAreNeeded) {
  FaultSweepCase c;
  c.plan.seed = 5;
  c.plan.torn_batch_permille = 500;
  const auto always_fails = [](const FaultSweepCase&) { return true; };
  const FaultSweepCase minimized = minimize(c, run_case(c), always_fails);
  EXPECT_EQ(minimized.plan.max_faults, 0u);
}

}  // namespace
}  // namespace argus

// The cross-site sweep: every {site count x fault mix x seed}
// configuration must come through site churn, mid-2PC failures and
// recovery with the atomicity checkers and every distributed invariant
// probe green — and any single configuration must replay from its seed
// to a byte-equal merged trace. Labeled `dist` (its own CI job).
//
//   * ARGUS_SWEEP_ARTIFACT_DIR=<dir>: on failure, the first failing
//     configurations (kMaxMinimizedFailures) are written there
//     budget-minimized, as replayable config files (uploaded by CI;
//     replay with examples/dist_replay).
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "sim/dist_sweep.h"
#include "test_util.h"

namespace argus {
namespace {

TEST(DistSweepConfig, RoundTripsThroughConfigString) {
  DistSweepCase c;
  c.protocol = Protocol::kDynamic;
  c.sites = 3;
  c.sharded = 5;
  c.replicated = 2;
  c.transactions = 17;
  c.initial_balance = 250;
  c.plan.seed = 987654321;
  c.plan.site_fail_permille = 90;
  c.plan.site_recover_permille = 400;
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
  c.plan.coord_crash_point = FaultSite::kCoordMidDelivery;
  c.plan.coord_crash_at_arrival = 3;
  c.plan.coord_recover_permille = 450;
  c.plan.decision_force_fail_permille = 110;
  c.plan.msg_loss_permille = 130;
  c.plan.msg_latency_permille = 140;
  c.plan.msg_latency_us = 150;
  c.plan.msg_retries = 4;
  c.plan.max_faults = 9;

  DistSweepCase back;
  std::string error;
  ASSERT_TRUE(parse_case(to_config_string(c), &back, &error)) << error;
  EXPECT_EQ(back, c);
}

TEST(DistSweepConfig, RejectsMalformedInput) {
  DistSweepCase c;
  std::string error;
  EXPECT_FALSE(parse_case("no_such_key 1\n", &c, &error));
  EXPECT_NE(error.find("unknown key"), std::string::npos);
  EXPECT_FALSE(parse_case("sites banana\n", &c, &error));
  EXPECT_NE(error.find("not a number"), std::string::npos);
  EXPECT_FALSE(parse_case("sites 0\n", &c, &error));
  EXPECT_FALSE(parse_case("protocol occ\n", &c, &error))
      << "2PC needs a protocol that can hold a decision open";
  EXPECT_FALSE(parse_case("sharded 0\nreplicated 0\n", &c, &error));
  // Each pinned crash accepts only the sites it can fire at.
  EXPECT_FALSE(parse_case("coord_crash_point mid-apply\n", &c, &error));
  EXPECT_NE(error.find("unknown coordinator crash point"), std::string::npos);
  EXPECT_FALSE(parse_case("coord_crash_point site-fail\n", &c, &error));
  EXPECT_FALSE(parse_case("crash_point coord-pre-prepare\n", &c, &error));
  EXPECT_NE(error.find("unknown crash point"), std::string::npos);
  // Whole tokens only, no sign, and within the field's width.
  EXPECT_FALSE(parse_case("sharded -1\n", &c, &error));
  EXPECT_NE(error.find("not a number"), std::string::npos);
  EXPECT_FALSE(parse_case("seed 12abc\n", &c, &error));
  EXPECT_FALSE(parse_case("transactions 1e3\n", &c, &error));
  EXPECT_FALSE(parse_case("msg_retries 4294967297\n", &c, &error));
  EXPECT_NE(error.find("out of range"), std::string::npos);
  EXPECT_FALSE(parse_case("sites 2147483648\n", &c, &error));
  // Comments and blank lines are fine.
  EXPECT_TRUE(parse_case("# comment\n\n  seed 5\n", &c, &error)) << error;
  EXPECT_EQ(c.plan.seed, 5u);
}

TEST(DistSweep, EnumeratesTheFullGrid) {
  const auto cases = enumerate_dist_cases();
  // 4 site counts x 5 mixes x 2 protocols x 5 seeds, plus the
  // coordinator-fault axis: 4 pinned crash steps x 3 message mixes x
  // 2 protocols x 5 seeds at 3 sites.
  EXPECT_EQ(cases.size(), 320u);
  // No two cells share a decision stream.
  std::set<std::uint64_t> seeds;
  for (const auto& c : cases) seeds.insert(c.plan.seed);
  EXPECT_EQ(seeds.size(), cases.size());
  // The grid includes single-site deployments (degenerate but legal) and
  // the full four-site spread.
  std::set<int> sites;
  for (const auto& c : cases) sites.insert(c.sites);
  EXPECT_EQ(sites, (std::set<int>{1, 2, 3, 4}));
  // The coordinator axis pins a crash at every 2PC protocol step.
  std::set<FaultSite> steps;
  for (const auto& c : cases) {
    if (c.plan.coord_crash_at_arrival > 0) steps.insert(c.plan.coord_crash_point);
  }
  EXPECT_EQ(steps,
            (std::set<FaultSite>{
                FaultSite::kCoordPrePrepare, FaultSite::kCoordPostPrepare,
                FaultSite::kCoordPostDecision, FaultSite::kCoordMidDelivery}));
}

TEST(DistSweep, EveryConfigurationCertifiesClean) {
  const auto summary = run_sweep<DistSweepSummary>(enumerate_dist_cases());
  EXPECT_EQ(summary.cases, 320u);
  EXPECT_TRUE(summary.all_ok()) << minimize_and_save_failures(summary);
  // The sweep genuinely exercised the distributed machinery: sites
  // failed (including mid-2PC), transactions committed through both the
  // one-phase and the two-phase paths, faults were injected, and at
  // least one in-doubt prepared record was resolved to a commit at
  // recovery.
  EXPECT_GT(summary.site_fails, 0u);
  EXPECT_GT(summary.faults_injected, 0u);
  EXPECT_GT(summary.committed, 0u);
  EXPECT_GT(summary.two_pc_commits, 0u);
  EXPECT_GT(summary.promoted_commits, 0u);
  // The coordinator axis genuinely fired: coordinators crashed at 2PC
  // protocol steps, and the termination protocol resolved stranded
  // prepared participants back to commit.
  EXPECT_GT(summary.coord_crashes, 0u);
  EXPECT_GT(summary.termination_promotions, 0u);
}

TEST(DistSweep, CoordinatorCrashCaseReplaysByteForByte) {
  // A pinned mid-delivery coordinator crash with lossy messaging: the
  // 2PC decision lands at some participants, the rest fence and resolve
  // through the termination protocol once the coordinator returns.
  DistSweepCase c;
  c.protocol = Protocol::kHybrid;
  c.sites = 3;
  c.plan.seed = 777001;
  c.plan.coord_crash_point = FaultSite::kCoordMidDelivery;
  c.plan.coord_crash_at_arrival = 1;
  c.plan.coord_recover_permille = 400;
  c.plan.msg_loss_permille = 150;
  c.plan.msg_retries = 2;
  c.plan.spurious_timeout_permille = 120;

  const DistCaseResult first = testutil::expect_replays_byte_equal(c);
  EXPECT_TRUE(first.ok) << first.failure;
  EXPECT_FALSE(first.trace.empty());
  EXPECT_GT(first.stats.coord_crashes, 0u);
}

TEST(DistSweep, ReplayingASeedReproducesTheMergedTraceByteForByte) {
  // The chaos mix on a three-site deployment — churn, log faults and a
  // pinned mid-apply crash all at once.
  DistSweepCase c;
  c.protocol = Protocol::kHybrid;
  c.sites = 3;
  c.plan.seed = 20260808;
  c.plan.site_fail_permille = 60;
  c.plan.site_recover_permille = 300;
  c.plan.force_fail_permille = 100;
  c.plan.force_max_retries = 2;
  c.plan.force_retry_backoff_us = 10;
  c.plan.torn_batch_permille = 120;
  c.plan.crash_point = FaultSite::kMidApply;
  c.plan.crash_at_arrival = 2;

  const DistCaseResult first = testutil::expect_replays_byte_equal(c);
  EXPECT_TRUE(first.ok) << first.failure;
  EXPECT_FALSE(first.trace.empty());
}

TEST(DistSweep, MinimizeShrinksTheFaultBudget) {
  // Minimization contract on a *passing* case flipped by a synthetic
  // predicate: "fails whenever at least 3 faults fire". The bisection
  // must find exactly budget 3.
  DistSweepCase c;
  c.protocol = Protocol::kDynamic;
  c.sites = 2;
  c.plan.seed = 424242;
  c.plan.site_fail_permille = 200;
  c.plan.site_recover_permille = 500;
  c.plan.force_fail_permille = 150;
  c.plan.force_max_retries = 1;
  c.plan.force_retry_backoff_us = 1;
  const DistCaseResult full = run_case(c);
  ASSERT_GE(full.faults_injected, 3u)
      << "seed must inject enough faults for the predicate to bite";

  const DistSweepCase minimized =
      minimize(c, full, [](const DistSweepCase& probe) {
        return run_case(probe).faults_injected >= 3;
      });
  EXPECT_EQ(minimized.plan.max_faults, 3u);
}

}  // namespace
}  // namespace argus

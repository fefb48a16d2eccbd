// Tests for the simulation layer: metrics aggregation, workload driver
// behaviour (weights, retries, skew), and the prebuilt scenarios.
#include <gtest/gtest.h>

#include "sim/scenarios.h"
#include "sim/workload.h"
#include "spec/adts/bank_account.h"
#include "test_util.h"

namespace argus {
namespace {

TEST(LatencyStats, BasicAggregation) {
  LatencyStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.percentile(0.5), 0.0);
  for (double v : {1.0, 2.0, 3.0, 4.0}) stats.add(v);
  EXPECT_EQ(stats.count(), 4u);
  EXPECT_DOUBLE_EQ(stats.mean(), 2.5);
  EXPECT_DOUBLE_EQ(stats.max(), 4.0);
  EXPECT_DOUBLE_EQ(stats.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(stats.percentile(1.0), 4.0);
  EXPECT_DOUBLE_EQ(stats.percentile(0.5), 2.5);
}

TEST(LatencyStats, Merge) {
  LatencyStats a;
  LatencyStats b;
  a.add(1.0);
  a.add(3.0);
  b.add(5.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.mean(), 3.0);
  EXPECT_DOUBLE_EQ(a.max(), 5.0);
}

TEST(LatencyStats, ReservoirRetainsLateObservations) {
  // The first-N truncation this replaced kept only the earliest kSampleCap
  // observations, so percentiles of a long run reflected warm-up only.
  // Under Algorithm R every observation has equal retention probability:
  // after 2x cap increasing values, the sample must contain second-half
  // values, so the top percentile lands far above the cap boundary.
  LatencyStats stats;
  const auto n = 2 * LatencyStats::kSampleCap;
  for (std::size_t i = 0; i < n; ++i) stats.add(static_cast<double>(i));
  EXPECT_EQ(stats.count(), n);
  EXPECT_DOUBLE_EQ(stats.mean(), static_cast<double>(n - 1) / 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), static_cast<double>(n - 1));
  EXPECT_GT(stats.percentile(1.0),
            static_cast<double>(LatencyStats::kSampleCap));
  // And the retained sample stays representative: the median of uniform
  // 0..n-1 is near n/2, which first-N truncation would report as ~cap/2.
  EXPECT_NEAR(stats.percentile(0.5), static_cast<double>(n) / 2.0,
              static_cast<double>(n) * 0.05);
}

TEST(LatencyStats, MergeOfOverCapStreamsKeepsBothPopulations) {
  LatencyStats a;
  LatencyStats b;
  const auto n = LatencyStats::kSampleCap + LatencyStats::kSampleCap / 2;
  for (std::size_t i = 0; i < n; ++i) a.add(100.0);
  for (std::size_t i = 0; i < n; ++i) b.add(200.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2 * n);
  EXPECT_DOUBLE_EQ(a.mean(), 150.0);  // exact: totals merge outside the sample
  // Equal-weight sides: the merged reservoir holds roughly half of each,
  // so the outer quartiles expose both populations.
  EXPECT_DOUBLE_EQ(a.percentile(0.25), 100.0);
  EXPECT_DOUBLE_EQ(a.percentile(0.75), 200.0);
}

TEST(WorkloadResult, DerivedMetrics) {
  WorkloadResult r;
  r.seconds = 2.0;
  r.committed = 100;
  r.aborted = 50;
  EXPECT_DOUBLE_EQ(r.throughput(), 50.0);
  EXPECT_DOUBLE_EQ(r.abort_rate(), 50.0 / 150.0);
  r.aborts_by_reason[AbortReason::kDeadlock] = 50;
  const std::string s = r.summary();
  EXPECT_NE(s.find("committed=100"), std::string::npos);
  EXPECT_NE(s.find("aborts by reason"), std::string::npos);
  EXPECT_NE(s.find("deadlock"), std::string::npos);
  EXPECT_NE(s.find("50"), std::string::npos);
}

TEST(WorkloadResult, ZeroDivisionSafe) {
  WorkloadResult r;
  EXPECT_DOUBLE_EQ(r.throughput(), 0.0);
  EXPECT_DOUBLE_EQ(r.abort_rate(), 0.0);
}

TEST(WorkloadDriver, WeightsRoughlyRespected) {
  Runtime rt(Runtime::RecorderMode::kOff);
  auto bank = BankScenario::create(rt, Protocol::kDynamic, 4, 1000);
  WorkloadOptions options;
  options.threads = 2;
  options.transactions_per_thread = 200;
  options.seed = 17;
  WorkloadDriver driver(rt, options);
  const auto result =
      driver.run({bank.transfer_mix(1, 3), bank.audit_mix(false, 1)});
  ASSERT_TRUE(result.by_label.contains("transfer"));
  ASSERT_TRUE(result.by_label.contains("audit"));
  const double transfers =
      static_cast<double>(result.by_label.at("transfer").committed);
  const double audits =
      static_cast<double>(result.by_label.at("audit").committed);
  // 3:1 weights; allow generous sampling slack.
  EXPECT_GT(transfers / audits, 1.8);
  EXPECT_LT(transfers / audits, 5.0);
}

TEST(WorkloadDriver, DeterministicPerSeed) {
  auto run_once = [](std::uint64_t seed) {
    Runtime rt(Runtime::RecorderMode::kOff);
    auto bank = BankScenario::create(rt, Protocol::kDynamic, 2, 100);
    WorkloadOptions options;
    options.threads = 1;  // single thread: fully deterministic
    options.transactions_per_thread = 50;
    options.seed = seed;
    WorkloadDriver driver(rt, options);
    const auto result = driver.run({bank.transfer_mix(3, 1)});
    return bank.total_balance(rt, false);
  };
  EXPECT_EQ(run_once(5), run_once(5));
}

TEST(BankScenario, SetupDepositsInitialBalance) {
  Runtime rt(Runtime::RecorderMode::kOff);
  auto bank = BankScenario::create(rt, Protocol::kDynamic, 3, 250);
  EXPECT_EQ(bank.accounts.size(), 3u);
  EXPECT_EQ(bank.total_balance(rt, false), 750);
}

TEST(BankScenario, TransferPreservesTotal) {
  Runtime rt(Runtime::RecorderMode::kOff);
  auto bank = BankScenario::create(rt, Protocol::kDynamic, 2, 100);
  auto mix = bank.transfer_mix(10, 1);
  SplitMix64 rng(3);
  for (int i = 0; i < 20; ++i) {
    auto t = rt.begin();
    mix.body(*t, rng);
    rt.commit(t);
  }
  EXPECT_EQ(bank.total_balance(rt, false), 200);
}

TEST(QueueScenario, HybridUsesTypeSpecificQueue) {
  Runtime rt(Runtime::RecorderMode::kOff);
  auto scenario = QueueScenario::create(rt, Protocol::kHybrid);
  EXPECT_NE(std::dynamic_pointer_cast<HybridFifoQueue>(scenario.queue),
            nullptr);
  auto generic = QueueScenario::create(rt, Protocol::kDynamic, "q2");
  EXPECT_EQ(std::dynamic_pointer_cast<HybridFifoQueue>(generic.queue),
            nullptr);
}

TEST(QueueScenario, ProducerConsumerBodies) {
  Runtime rt(Runtime::RecorderMode::kOff);
  auto scenario = QueueScenario::create(rt, Protocol::kHybrid);
  SplitMix64 rng(1);
  auto t1 = rt.begin();
  scenario.producer_mix(3, 1).body(*t1, rng);
  rt.commit(t1);
  auto t2 = rt.begin();
  scenario.consumer_mix(3, 1).body(*t2, rng);
  rt.commit(t2);
  auto q = std::dynamic_pointer_cast<HybridFifoQueue>(scenario.queue);
  EXPECT_TRUE(q->committed_items().empty());
}

TEST(AccountScenario, BurstMixHoldsTransactionOpen) {
  Runtime rt(Runtime::RecorderMode::kOff);
  auto scenario = AccountScenario::create(rt, Protocol::kDynamic, 100);
  SplitMix64 rng(1);
  auto t = rt.begin();
  scenario.withdraw_burst_mix(1, 5, 0, 1).body(*t, rng);
  rt.commit(t);
  auto check = rt.begin();
  EXPECT_EQ(scenario.account->invoke(*check, account::balance()), Value{95});
  rt.commit(check);
}

TEST(WorkloadDriver, TimestampSkewOptionRuns) {
  Runtime rt(Runtime::RecorderMode::kOff);
  auto bank = BankScenario::create(rt, Protocol::kStatic, 2, 100);
  WorkloadOptions options;
  options.threads = 2;
  options.transactions_per_thread = 10;
  options.timestamp_skew_us = 100;
  WorkloadDriver driver(rt, options);
  const auto result = driver.run({bank.transfer_mix(1, 1)});
  EXPECT_EQ(result.gave_up, 0u);
  EXPECT_EQ(bank.total_balance(rt, true), 200);
}

}  // namespace
}  // namespace argus

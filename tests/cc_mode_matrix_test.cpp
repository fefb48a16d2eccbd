// The CC-mode executor tier (ctest -L ccmodes), part 2: the matrix.
// Every executor protocol drives the same seeded workloads through the
// same TxnExecutor pool, and every run is held to the same bar:
//
//   * money conservation over concurrent transfers (no partial commits);
//   * a recorded run certifies against the mode's formal atomicity
//     property with the online sentinel watching (0 violations);
//   * the executor accounts for every task (submitted == completed, no
//     task silently dropped, retry budget never exhausted);
//   * under MVCC, read-only audits are abort-free and every audit —
//     committed or not — reads a consistent snapshot total.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "sim/certifier.h"
#include "sim/scenarios.h"
#include "spec/adts/bank_account.h"
#include "test_util.h"

namespace argus {
namespace {

// The five protocols the executor sweeps: the paper's three local
// atomicity properties and the two optimistic foils.
constexpr Protocol kExecutorProtocols[] = {
    Protocol::kDynamic, Protocol::kStatic, Protocol::kHybrid, Protocol::kOcc,
    Protocol::kMvcc};

std::string param_name(Protocol m) {
  std::string name = to_string(m);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

constexpr std::int64_t kAccounts = 4;
constexpr std::int64_t kInitialBalance = 100;
constexpr std::int64_t kTotal = kAccounts * kInitialBalance;

class CCModeMatrix : public ::testing::TestWithParam<Protocol> {};

TEST_P(CCModeMatrix, MoneyConservedThroughTheExecutor) {
  const Protocol mode = GetParam();
  Runtime rt(Runtime::RecorderMode::kOff);
  auto bank = BankScenario::create(rt, mode, kAccounts, kInitialBalance);
  rt.set_wait_timeout_all(std::chrono::milliseconds(1000));

  WorkloadOptions options;
  options.threads = 4;
  options.transactions_per_thread = 40;
  options.seed = 42;
  WorkloadDriver driver(rt, options);
  const auto result = driver.run({bank.transfer_mix(7, 1)});

  EXPECT_GT(result.committed, 0u);
  EXPECT_EQ(result.gave_up, 0u);
  EXPECT_EQ(result.executor.submitted, 160u);
  EXPECT_EQ(result.executor.completed, 160u);
  EXPECT_EQ(bank.total_balance(rt, supports_snapshot_reads(mode)), kTotal);
  if (mode == Protocol::kOcc || mode == Protocol::kMvcc) {
    // Optimistic modes never deadlock — their objects never block.
    EXPECT_EQ(result.deadlocks, 0u);
    EXPECT_EQ(result.aborts_by_reason.count(AbortReason::kDeadlock), 0u);
    EXPECT_EQ(result.aborts_by_reason.count(AbortReason::kWaitTimeout), 0u);
  }
}

TEST_P(CCModeMatrix, RecordedRunCertifiesAgainstTheModeProperty) {
  const Protocol mode = GetParam();
  Runtime rt;
  auto bank = BankScenario::create(rt, mode, /*n=*/3, kInitialBalance);
  rt.set_wait_timeout_all(std::chrono::milliseconds(1000));
  AtomicitySentinel& sentinel = rt.start_sentinel();

  // Small on purpose: the dynamic checker enumerates precedes-consistent
  // activity orders. Update transactions only, so the hybrid read-only
  // set below is empty for every mode.
  WorkloadOptions options;
  options.threads = 3;
  options.transactions_per_thread = 2;
  options.seed = 7;
  WorkloadDriver driver(rt, options);
  const auto result = driver.run({bank.transfer_mix(5, 1)});
  EXPECT_GT(result.committed, 0u);

  sentinel.stop();
  EXPECT_EQ(sentinel.violations(), 0u) << sentinel.last_violation();
  rt.stop_sentinel();

  const History h = rt.history();
  Certifier cert;
  const auto verdict = cert.check_history(mode, rt.system(), h, {});
  ASSERT_TRUE(verdict.well_formed) << cert.failure() << "\n" << h.to_string();
  EXPECT_TRUE(verdict.atomic) << cert.failure() << "\n" << h.to_string();
}

INSTANTIATE_TEST_SUITE_P(AllModes, CCModeMatrix,
                         ::testing::ValuesIn(kExecutorProtocols),
                         [](const auto& info) {
                           return param_name(info.param);
                         });

TEST(MvccWorkload, ReadOnlyAuditsAreAbortFreeAndConsistent) {
  Runtime rt(Runtime::RecorderMode::kOff);
  auto bank = BankScenario::create(rt, Protocol::kMvcc, kAccounts,
                                   kInitialBalance);

  std::atomic<std::uint64_t> audits{0};
  std::atomic<std::uint64_t> inconsistent{0};
  MixItem audit{"audit", TxnKind::kReadOnly, 1,
                [&, accounts = bank.accounts](Transaction& txn, SplitMix64&) {
                  std::int64_t total = 0;
                  for (const auto& account : accounts) {
                    total += account->invoke(txn, account::balance()).as_int();
                  }
                  ++audits;
                  if (total != kTotal) ++inconsistent;
                }};

  WorkloadOptions options;
  options.threads = 4;
  options.transactions_per_thread = 30;
  options.seed = 7;
  WorkloadDriver driver(rt, options);
  const auto result = driver.run({bank.transfer_mix(5, 3), audit});

  EXPECT_GT(audits.load(), 0u);
  // Every audit — even a hypothetical retried one — reads one
  // initiation-time snapshot: totals are consistent unconditionally.
  EXPECT_EQ(inconsistent.load(), 0u);
  // And the snapshot path is abort-free: no audit ever lost validation.
  ASSERT_TRUE(result.by_label.contains("audit"));
  EXPECT_EQ(result.by_label.at("audit").aborted, 0u);
  EXPECT_EQ(result.gave_up, 0u);
}

TEST(OccWorkload, HighContentionStaysLiveAndConserved) {
  // Everyone read-modify-writes one account: the worst case for
  // optimism, since every commit invalidates every in-flight balance
  // read. The pool must stay live (retry budget never exhausted) and
  // the final state must account for every committed increment.
  Runtime rt(Runtime::RecorderMode::kOff);
  auto x = rt.create_occ<BankAccountAdt>("hot");

  MixItem rmw{"rmw", TxnKind::kUpdate, 1,
              [&x](Transaction& txn, SplitMix64&) {
                (void)x->invoke(txn, account::balance());
                // Hold the read open long enough that a concurrent
                // commit lands inside the window and invalidates it.
                std::this_thread::sleep_for(std::chrono::microseconds(200));
                x->invoke(txn, account::deposit(1));
              }};

  WorkloadOptions options;
  options.threads = 4;
  options.transactions_per_thread = 30;
  options.seed = 11;
  options.max_retries = 1000;
  WorkloadDriver driver(rt, options);
  const auto result = driver.run({rmw});

  EXPECT_EQ(result.gave_up, 0u);
  EXPECT_EQ(result.committed, 120u);
  EXPECT_EQ(x->committed_state(), 120);
  // Contention on a single account must actually have produced
  // validation losses — otherwise this test exercises nothing.
  EXPECT_GT(result.executor.retries, 0u);
  EXPECT_GT(result.executor.validation_aborts, 0u);
}

}  // namespace
}  // namespace argus

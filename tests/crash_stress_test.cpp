// Crash-under-load stress: the all-or-nothing property when the node
// fails while worker threads are mid-transaction. After crash + join +
// recover, the recovered state must equal a replay of exactly the
// transactions the stable log recorded as committed — and application
// invariants (money conservation) must hold for every crash point.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/rng.h"
#include "core/runtime.h"
#include "sched/factory.h"
#include "spec/adts/bank_account.h"
#include "test_util.h"

namespace argus {
namespace {

class CrashStress
    : public ::testing::TestWithParam<std::tuple<Protocol, std::uint64_t>> {};

TEST_P(CrashStress, MoneyConservedAcrossMidFlightCrash) {
  const auto& [protocol, seed] = GetParam();
  constexpr int kAccounts = 4;
  constexpr std::int64_t kInitial = 100;

  Runtime rt;  // flight recording on: the sentinel audits the whole run
  std::vector<std::shared_ptr<ManagedObject>> accounts;
  for (int i = 0; i < kAccounts; ++i) {
    accounts.push_back(make_object<BankAccountAdt>(
        rt, protocol, "a" + std::to_string(i)));
  }
  rt.set_wait_timeout_all(std::chrono::milliseconds(100));
  SentinelOptions sentinel_options;
  sentinel_options.window = std::chrono::milliseconds(2);
  auto& sentinel = rt.start_sentinel(sentinel_options);
  {
    auto setup = rt.begin();
    for (auto& a : accounts) a->invoke(*setup, account::deposit(kInitial));
    rt.commit(setup);
  }

  // A mild seeded fault mix rides along under the whole sweep: transient
  // force failures, torn batch tails, leader latency and wait-path chaos
  // shrink and reshape the committed set, but conservation and the
  // sentinel verdict below must be untouched by any of it.
  FaultPlan fault_plan;
  fault_plan.seed = seed * 1315423911ULL + 7;
  fault_plan.force_fail_permille = 60 + 20 * (seed % 3);
  fault_plan.force_max_retries = 2;
  fault_plan.force_retry_backoff_us = 5;
  fault_plan.torn_batch_permille = 80 + 30 * (seed % 2);
  fault_plan.leader_latency_permille = 50;
  fault_plan.leader_latency_us = 30;
  fault_plan.spurious_timeout_permille = 20;
  fault_plan.delayed_wakeup_permille = 30;
  fault_plan.delayed_wakeup_us = 50;
  rt.set_fault_injector(std::make_shared<FaultInjector>(fault_plan));

  // Workers transfer money until crashed.
  std::atomic<bool> stop{false};
  auto worker = [&](int index) {
    SplitMix64 rng(seed * 97ULL + static_cast<std::uint64_t>(index));
    while (!stop.load(std::memory_order_relaxed)) {
      auto t = rt.begin();
      try {
        const std::size_t from = rng.below(accounts.size());
        const std::size_t to = (from + 1) % accounts.size();
        const Value got = accounts[from]->invoke(*t, account::withdraw(3));
        if (got.is_unit()) {
          accounts[to]->invoke(*t, account::deposit(3));
        }
        rt.commit(t);
      } catch (const TransactionAborted& e) {
        rt.abort(t);
        if (e.reason() == AbortReason::kCrash) return;
      }
    }
  };
  std::vector<std::thread> workers;
  for (int i = 0; i < 3; ++i) workers.emplace_back(worker, i);

  // Crash at a pseudo-random moment mid-load.
  std::this_thread::sleep_for(
      std::chrono::microseconds(500 + 137 * (seed % 23)));
  rt.crash();
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : workers) w.join();

  rt.set_fault_injector(nullptr);  // recovery itself is fault-free
  rt.recover();

  // Conservation: transfers move money or do nothing; every committed
  // transaction is fully replayed, every uncommitted one fully absent.
  auto check = rt.begin();
  std::int64_t total = 0;
  for (auto& a : accounts) {
    total += a->invoke(*check, account::balance()).as_int();
  }
  rt.commit(check);
  EXPECT_EQ(total, kAccounts * kInitial);
  EXPECT_GT(rt.tm().log().size(), 0u);  // something committed before the crash

  // Atomicity held continuously, through the crash and after recovery:
  // the online sentinel found no unserializable committed projection.
  sentinel.stop();
  EXPECT_EQ(sentinel.violations(), 0u) << sentinel.last_violation();
  EXPECT_GT(sentinel.activities_checked(), 0u);
  rt.stop_sentinel();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CrashStress,
    ::testing::Combine(::testing::Values(Protocol::kDynamic, Protocol::kHybrid,
                                         Protocol::kTwoPhase),
                       ::testing::Range<std::uint64_t>(1, 7)),
    [](const auto& info) {
      std::string name = to_string(std::get<0>(info.param)) + "_seed" +
                         std::to_string(std::get<1>(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(CrashStress, RepeatedCrashRecoverCyclesUnderLoad) {
  Runtime rt(Runtime::RecorderMode::kOff);
  auto acct = rt.create_dynamic<BankAccountAdt>("a");
  {
    auto setup = rt.begin();
    acct->invoke(*setup, account::deposit(1000));
    rt.commit(setup);
  }
  std::int64_t committed_delta = 0;
  SplitMix64 rng(5);
  for (int cycle = 0; cycle < 5; ++cycle) {
    for (int i = 0; i < 10; ++i) {
      auto t = rt.begin();
      const std::int64_t amount = rng.range(1, 5);
      acct->invoke(*t, account::deposit(amount));
      if (rng.chance(1, 3)) {
        rt.abort(t);
      } else {
        rt.commit(t);
        committed_delta += amount;
      }
    }
    rt.crash();
    rt.recover();
    EXPECT_EQ(acct->committed_state(), 1000 + committed_delta)
        << "cycle " << cycle;
  }
}

}  // namespace
}  // namespace argus

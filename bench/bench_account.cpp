// E2 — §5.1 bank account.
//
// Claim reproduced: "Dynamic atomicity allows activities to execute
// withdraw operations concurrently as long as there is sufficient money
// in the account to cover all of the requests" — a state-dependent fact
// the static conflict tables of the locking protocols cannot use, so
// commutativity locking serializes *every* pair of withdraws.
//
// Workload: N threads of withdraw(small)/deposit(small) against a single
// account; the balance headroom is the swept parameter. Expected shape:
//   * high headroom: dynamic >> comm-lock (withdraws all commute in
//     state); 2pl worst.
//   * zero headroom: dynamic degrades toward comm-lock (withdraws
//     genuinely conflict when the balance can't cover both).
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "sim/scenarios.h"

namespace argus {
namespace {

void run_account(benchmark::State& state, Protocol protocol) {
  const std::int64_t headroom = state.range(0);
  for (auto _ : state) {
    Runtime rt(Runtime::RecorderMode::kOff);
    auto scenario = AccountScenario::create(rt, protocol, headroom);
    rt.set_wait_timeout_all(std::chrono::milliseconds(200));

    WorkloadOptions options;
    options.threads = 4;
    options.transactions_per_thread = 60;
    options.seed = 99;
    WorkloadDriver driver(rt, options);
    // Bursts of 4 withdraws/deposits with 50us of application work per
    // operation: the transaction holds its locks across ~200us, so
    // conflicting protocols serialize visibly.
    const auto result = driver.run({
        scenario.withdraw_burst_mix(1, 4, 50, 3),
        scenario.deposit_burst_mix(1, 4, 50, 1),
    });
    const std::string key =
        "account/" + to_string(protocol) + "/h" + std::to_string(headroom);
    bench::report(state, result, key);
    bench::report_label(state, result, "withdraw", key);
    bench::report_label(state, result, "deposit", key);
  }
}

void BM_Account_TwoPhase(benchmark::State& state) {
  run_account(state, Protocol::kTwoPhase);
}
void BM_Account_CommLock(benchmark::State& state) {
  run_account(state, Protocol::kCommutativity);
}
void BM_Account_Dynamic(benchmark::State& state) {
  run_account(state, Protocol::kDynamic);
}
void BM_Account_Hybrid(benchmark::State& state) {
  run_account(state, Protocol::kHybrid);
}

// Arg = initial balance (headroom for the 1-unit withdraws).
BENCHMARK(BM_Account_TwoPhase)->Arg(0)->Arg(100000)->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_Account_CommLock)->Arg(0)->Arg(100000)->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_Account_Dynamic)->Arg(0)->Arg(100000)->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_Account_Hybrid)->Arg(0)->Arg(100000)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace
}  // namespace argus

BENCHMARK_MAIN();

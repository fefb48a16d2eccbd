// E14 — deterministic scheduling overhead and explorer throughput.
//
// Claims measured:
//   1. SchedMode::kOs (the default) costs nothing: the wait-policy hook
//      is a null-pointer check on the blocking paths, so a contended
//      bank workload on the stock runtime runs at the same throughput it
//      did before the dsched layer existed. `os_txn_per_s` in the BENCH
//      json is the number to diff across PRs.
//   2. Deterministic exploration is fast enough to be a test tier: a
//      full {schedule x fault} case — build a runtime, run the lanes
//      under a seeded schedule source, crash, recover, run all three
//      certifiers — completes in single-digit milliseconds, and the
//      exhaustive DFS over the 2-lane dynamic-atomicity tree replays
//      hundreds of interleavings per second. `cases_per_s` /
//      `dfs_runs_per_s` quantify the budget a CI sweep buys.
//
// Workload: the same cross-account transfer mix the explorer uses, so
// the kOs and deterministic numbers describe the same program under the
// two scheduling modes.
#include <benchmark/benchmark.h>

#include <map>
#include <string>

#include "bench_common.h"
#include "sim/sched_explore.h"
#include "sim/workload.h"
#include "spec/adts/bank_account.h"

namespace argus {
namespace {

constexpr int kAccounts = 4;

/// The kOs baseline: stock runtime, OS threads, no wait policy. This is
/// the path every production-shaped workload takes; the dsched layer
/// must not show up here.
void BM_Dsched_OsBaseline(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Runtime rt(Runtime::RecorderMode::kFlight);
    std::vector<std::shared_ptr<ManagedObject>> accounts;
    for (int i = 0; i < kAccounts; ++i) {
      accounts.push_back(
          rt.create_dynamic<BankAccountAdt>("a" + std::to_string(i)));
    }
    rt.set_wait_timeout_all(std::chrono::milliseconds(500));
    {  // seed balances so transfers have something to move
      auto txn = rt.begin();
      for (auto& account : accounts) {
        account->invoke(*txn, account::deposit(64));
      }
      rt.commit(txn);
    }

    WorkloadOptions options;
    options.threads = threads;
    options.transactions_per_thread = 300;
    options.seed = 11;
    WorkloadDriver driver(rt, options);
    const auto result = driver.run({MixItem{
        "transfer", TxnKind::kUpdate, 1,
        [&](Transaction& txn, SplitMix64& rng) {
          const std::size_t from = rng.below(accounts.size());
          const std::size_t to =
              (from + 1 + rng.below(accounts.size() - 1)) % accounts.size();
          auto got = accounts[from]->invoke(txn, account::withdraw(1));
          if (got.is_unit()) accounts[to]->invoke(txn, account::deposit(1));
        }}});

    const std::string key = "dsched/os_baseline/t" + std::to_string(threads);
    bench::report(state, result, key);
    bench::JsonSink::instance().update(
        key, {{"os_txn_per_s", result.throughput()}});
  }
}

/// Deterministic-mode cost per explored case: one full run_case —
/// runtime build, scheduled lanes, crash/recover, certification — per
/// iteration. `state.range(0)` picks the schedule source.
void run_case_bench(benchmark::State& state, ScheduleKind kind) {
  SchedCase c;
  c.kind = kind;
  c.adt = "bank";
  c.protocol = Protocol::kDynamic;
  c.objects = 2;
  c.lanes = 3;
  c.txns_per_lane = 2;
  c.initial_balance = 3;
  std::uint64_t seed = 1;
  std::uint64_t steps = 0;
  std::uint64_t certified = 0;
  for (auto _ : state) {
    c.plan.seed = seed++;
    const SchedCaseResult result = run_case(c);
    steps += result.steps;
    certified += result.ok ? 1 : 0;
    benchmark::DoNotOptimize(result.trace.data());
  }
  state.counters["steps_per_case"] =
      benchmark::Counter(static_cast<double>(steps),
                         benchmark::Counter::kAvgIterations);
  state.counters["cases_per_s"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
  state.counters["certified"] = static_cast<double>(certified);
  bench::JsonSink::instance().update(
      std::string("dsched/case/") +
          (kind == ScheduleKind::kRandom ? "random" : "pct"),
      {{"steps_per_case",
        static_cast<double>(steps) /
            static_cast<double>(std::max<std::int64_t>(1, state.iterations()))},
       {"certified", static_cast<double>(certified)}});
}

void BM_Dsched_CaseRandom(benchmark::State& state) {
  run_case_bench(state, ScheduleKind::kRandom);
}
void BM_Dsched_CasePct(benchmark::State& state) {
  run_case_bench(state, ScheduleKind::kPct);
}

/// Exhaustive DFS throughput on the canonical 2-lane/1-object tree: how
/// many interleavings per second the model-checking tier replays.
void BM_Dsched_DfsExhaust(benchmark::State& state) {
  SchedCase base;
  base.adt = "bank";
  base.protocol = Protocol::kDynamic;
  base.objects = 1;
  base.lanes = 2;
  base.txns_per_lane = 1;
  base.initial_balance = 3;
  base.plan.seed = 3;
  std::uint64_t runs = 0;
  std::uint64_t pruned = 0;
  for (auto _ : state) {
    const DfsExploreResult dfs = run_dfs_explore(base, /*max_runs=*/4096);
    runs += dfs.runs;
    pruned += dfs.pruned_branches;
  }
  state.counters["dfs_runs_per_s"] =
      benchmark::Counter(static_cast<double>(runs),
                         benchmark::Counter::kIsRate);
  state.counters["runs_per_tree"] =
      benchmark::Counter(static_cast<double>(runs),
                         benchmark::Counter::kAvgIterations);
  state.counters["pruned_per_tree"] =
      benchmark::Counter(static_cast<double>(pruned),
                         benchmark::Counter::kAvgIterations);
  bench::JsonSink::instance().update(
      "dsched/dfs/2lane",
      {{"runs_per_tree",
        static_cast<double>(runs) /
            static_cast<double>(std::max<std::int64_t>(1, state.iterations()))},
       {"pruned_per_tree",
        static_cast<double>(pruned) /
            static_cast<double>(
                std::max<std::int64_t>(1, state.iterations()))}});
}

BENCHMARK(BM_Dsched_OsBaseline)
    ->Arg(1)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK(BM_Dsched_CaseRandom)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Dsched_CasePct)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Dsched_DfsExhaust)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace argus

BENCHMARK_MAIN();

// E3 — §4.2.3: "Comparison of Dynamic and Static Atomicity".
//
// Claims reproduced:
//   1. "Dynamic atomicity works poorly for long read-only activities such
//      as audits. ... long read-only activities can be quite prone to
//      deadlock." — audits run as locking transactions block transfers
//      and produce deadlock aborts.
//   2. "Static atomicity, however, works reasonably well for long
//      read-only activities ... read-only activities are never forced to
//      abort." — counters must show zero protocol aborts for audits
//      under the multi-version static object.
//   3. "Static atomicity works poorly for updating activities unless
//      timestamps are generated using closely synchronized clocks" —
//      injected timestamp skew (a delay between drawing the initiation
//      timestamp and executing) turns update transactions into
//      timestamp-order aborts under static; under dynamic they merely
//      wait.
//
// Workload: transfers over kAccounts accounts + audits reading all of
// them; sweep audit share and timestamp skew. The single-version
// timestamp-ordering baseline is included to show what Reed's versions
// buy on top of plain TO.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "sim/scenarios.h"

namespace argus {
namespace {

constexpr int kAccounts = 16;
constexpr std::int64_t kInitialBalance = 1000;

void run_mixed(benchmark::State& state, Protocol protocol) {
  const int audit_weight = static_cast<int>(state.range(0));
  const int skew_us = static_cast<int>(state.range(1));
  for (auto _ : state) {
    Runtime rt(Runtime::RecorderMode::kOff);
    auto bank = BankScenario::create(rt, protocol, kAccounts, kInitialBalance);
    rt.set_wait_timeout_all(std::chrono::milliseconds(200));

    WorkloadOptions options;
    options.threads = 4;
    options.transactions_per_thread = 120;
    options.seed = 2026;
    options.timestamp_skew_us = skew_us;
    WorkloadDriver driver(rt, options);
    // Long audits (40us per account scanned): the §4.2.3 regime where
    // "long read-only activities can be quite prone to deadlock" under
    // locking.
    const auto result = driver.run({
        bank.transfer_mix(5, 10, /*hold_us=*/10),
        bank.audit_mix(supports_snapshot_reads(protocol), audit_weight,
                       /*hold_us=*/40),
    });
    const std::string key = "mixed/" + to_string(protocol) + "/w" +
                            std::to_string(audit_weight) + "/skew" +
                            std::to_string(skew_us);
    bench::report(state, result, key);
    bench::report_label(state, result, "transfer", key);
    bench::report_label(state, result, "audit", key);
  }
}

void BM_Mixed_Dynamic(benchmark::State& state) {
  run_mixed(state, Protocol::kDynamic);
}
void BM_Mixed_Static(benchmark::State& state) {
  run_mixed(state, Protocol::kStatic);
}
void BM_Mixed_TimestampSingleVersion(benchmark::State& state) {
  run_mixed(state, Protocol::kTimestamp);
}

// Args: {audit weight (vs 10 transfer weight), timestamp skew in us}.
static void MixedArgs(benchmark::internal::Benchmark* b) {
  b->Args({0, 0})->Args({3, 0})->Args({3, 200})->Args({3, 1000});
  b->Unit(benchmark::kMillisecond)->Iterations(1);
}

BENCHMARK(BM_Mixed_Dynamic)->Apply(MixedArgs);
BENCHMARK(BM_Mixed_Static)->Apply(MixedArgs);
BENCHMARK(BM_Mixed_TimestampSingleVersion)->Apply(MixedArgs);

}  // namespace
}  // namespace argus

BENCHMARK_MAIN();

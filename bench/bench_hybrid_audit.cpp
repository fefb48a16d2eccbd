// E4 — §4.3.3: the Lamport banking example under hybrid atomicity.
//
// Claims reproduced: "Hybrid atomicity solves the problem addressed by
// Lamport, namely the performance problems with read-only activities
// under dynamic atomicity. ... audits under the implementation of hybrid
// atomicity do not interfere with any updates." Expected shape, sweeping
// the audit fraction:
//   * transfer throughput under hybrid stays flat as audits increase
//     (audits take no locks);
//   * under dynamic, transfer throughput collapses and deadlock aborts
//     appear as audits scan more accounts;
//   * static handles the audits but pays timestamp-order aborts on the
//     transfers;
//   * audit latency under hybrid is low and abort-free.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "sim/scenarios.h"

namespace argus {
namespace {

constexpr std::int64_t kInitialBalance = 1000;

void run_audit(benchmark::State& state, Protocol protocol) {
  const int accounts = static_cast<int>(state.range(0));
  const int audit_weight = static_cast<int>(state.range(1));
  for (auto _ : state) {
    Runtime rt(Runtime::RecorderMode::kOff);
    auto bank = BankScenario::create(rt, protocol, accounts, kInitialBalance);
    rt.set_wait_timeout_all(std::chrono::milliseconds(200));

    WorkloadOptions options;
    options.threads = 6;
    options.transactions_per_thread = 60;
    options.seed = 7;
    WorkloadDriver driver(rt, options);
    // Long audits (100us of work per account scanned) against short
    // transfers (20us mid-transaction): the §4.3.3 regime.
    const auto result = driver.run({
        bank.transfer_mix(5, 10, /*hold_us=*/20),
        bank.audit_mix(supports_snapshot_reads(protocol), audit_weight,
                       /*hold_us=*/100),
    });
    const std::string key = "audit/" + to_string(protocol) + "/a" +
                            std::to_string(accounts) + "/w" +
                            std::to_string(audit_weight);
    bench::report(state, result, key);
    bench::report_label(state, result, "transfer", key);
    bench::report_label(state, result, "audit", key);
  }
}

void BM_Audit_Dynamic(benchmark::State& state) {
  run_audit(state, Protocol::kDynamic);
}
void BM_Audit_Static(benchmark::State& state) {
  run_audit(state, Protocol::kStatic);
}
void BM_Audit_Hybrid(benchmark::State& state) {
  run_audit(state, Protocol::kHybrid);
}
void BM_Audit_CommLock(benchmark::State& state) {
  run_audit(state, Protocol::kCommutativity);
}

// Args: {number of accounts each audit scans, audit weight vs 10}.
static void AuditArgs(benchmark::internal::Benchmark* b) {
  b->Args({8, 2})->Args({32, 2})->Args({32, 5});
  b->Unit(benchmark::kMillisecond)->Iterations(1);
}

BENCHMARK(BM_Audit_Dynamic)->Apply(AuditArgs);
BENCHMARK(BM_Audit_Static)->Apply(AuditArgs);
BENCHMARK(BM_Audit_Hybrid)->Apply(AuditArgs);
BENCHMARK(BM_Audit_CommLock)->Apply(AuditArgs);

}  // namespace
}  // namespace argus

BENCHMARK_MAIN();

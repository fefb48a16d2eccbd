// E15 — CC-mode executor head-to-head: data-dependent admission vs the
// classical foils, on identical seeded workloads through one fixed
// worker pool (TxnExecutor).
//
// Question answered: what do Weihl's data-dependent protocols buy (or
// cost) against optimistic validation and multi-version snapshot reads
// when everything else — workload, seeds, pool size, retry budget,
// commit pipeline — is held fixed? The modes differ *only* in the
// admission decision:
//
//   dynamic  — block until the invocation commutes with every
//              uncommitted intention (§4.1); aborts only on deadlock.
//   static   — multi-version timestamp ordering (§4.2); update losers
//              abort on timestamp order, read-only never aborts.
//   hybrid   — dynamic updates + commit-time stamps (§4.3).
//   occ      — never block: execute against committed state, validate
//              at commit, first committer wins, losers retry.
//   mvcc     — occ updates + a timestamp-keyed version log; read-only
//              transactions read an initiation-time snapshot abort-free.
//
// Two passes per mode:
//
//   * BM_E15_Certify_* — a small recorded run, online sentinel attached,
//     then the mode's offline checker over the full history (dynamic /
//     static / hybrid atomicity; OCC and MVCC certify against hybrid —
//     updates serialize at commit timestamps). Publishes cert_ok and
//     sentinel_violations; a 0 in cert_ok means the perf numbers next to
//     it are numbers for a broken protocol and must be discarded.
//   * BM_E15_<mode>/threads — the measured run (recording off):
//     transfers + audits over a seeded bank, threads in {1,2,4,8},
//     reporting txn/s, abort breakdown (incl. validation losses),
//     executor retries and money conservation.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "sim/certifier.h"
#include "sim/scenarios.h"

namespace argus {
namespace {

constexpr int kAccounts = 8;
constexpr std::int64_t kInitialBalance = 1000;
constexpr std::int64_t kTotal = kAccounts * kInitialBalance;

// ---------------------------------------------------------------------------
// Certification pass: small, recorded, sentinel on, offline checkers.

void run_certify(benchmark::State& state, Protocol mode) {
  for (auto _ : state) {
    Runtime rt;
    auto bank = BankScenario::create(rt, mode, /*n=*/3, kInitialBalance);
    rt.set_wait_timeout_all(std::chrono::milliseconds(500));
    AtomicitySentinel& sentinel = rt.start_sentinel();

    // Update transactions only: the read-only snapshot path is certified
    // by the property/dsched tiers; keeping perm(h) all-update keeps the
    // dynamic checker's linear-extension enumeration tractable.
    WorkloadOptions options;
    options.threads = 3;
    options.transactions_per_thread = 2;
    options.seed = 2026;
    WorkloadDriver driver(rt, options);
    const auto result = driver.run({bank.transfer_mix(5, 1)});

    sentinel.stop();
    const std::uint64_t violations = sentinel.violations();
    rt.stop_sentinel();

    const History h = rt.history();
    Certifier cert;
    cert.check_history(mode, rt.system(), h, {});
    const bool cert_ok = cert.ok();
    const bool conserved =
        bank.total_balance(rt, supports_snapshot_reads(mode)) ==
        3 * kInitialBalance;

    const std::string key = "e15/certify/" + to_string(mode);
    std::map<std::string, double> counters;
    counters["cert_ok"] = cert_ok ? 1.0 : 0.0;
    counters["sentinel_violations"] = static_cast<double>(violations);
    counters["conserved"] = conserved ? 1.0 : 0.0;
    counters["committed"] = static_cast<double>(result.committed);
    for (const auto& [k, v] : counters) state.counters[k] = v;
    bench::JsonSink::instance().update(key, counters);
  }
}

// ---------------------------------------------------------------------------
// Measured pass: identical seeded workload, threads in {1,2,4,8}.

void run_mode(benchmark::State& state, Protocol mode) {
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Runtime rt(Runtime::RecorderMode::kOff);
    auto bank = BankScenario::create(rt, mode, kAccounts, kInitialBalance);
    rt.set_wait_timeout_all(std::chrono::milliseconds(200));

    // Same seed and task count for every (mode, threads) cell: the
    // submitted task list is a pure function of (seed, mix), so the modes
    // see byte-identical logical workloads and differ only in admission.
    WorkloadOptions options;
    options.threads = threads;
    options.transactions_per_thread = 600 / threads;  // fixed total work
    options.seed = 2026;
    WorkloadDriver driver(rt, options);
    const auto result = driver.run({
        bank.transfer_mix(5, 8, /*hold_us=*/5),
        bank.audit_mix(supports_snapshot_reads(mode), 2, /*hold_us=*/10),
    });

    const std::string key =
        "e15/" + to_string(mode) + "/t" + std::to_string(threads);
    bench::report(state, result, key);
    bench::report_label(state, result, "transfer", key);
    bench::report_label(state, result, "audit", key);
    const bool conserved =
        bank.total_balance(rt, supports_snapshot_reads(mode)) == kTotal;
    state.counters["conserved"] = conserved ? 1.0 : 0.0;
    bench::JsonSink::instance().update(key,
                                       {{"conserved", conserved ? 1.0 : 0.0}});
  }
}

void BM_E15_Certify_Dynamic(benchmark::State& state) {
  run_certify(state, Protocol::kDynamic);
}
void BM_E15_Certify_Static(benchmark::State& state) {
  run_certify(state, Protocol::kStatic);
}
void BM_E15_Certify_Hybrid(benchmark::State& state) {
  run_certify(state, Protocol::kHybrid);
}
void BM_E15_Certify_Occ(benchmark::State& state) {
  run_certify(state, Protocol::kOcc);
}
void BM_E15_Certify_Mvcc(benchmark::State& state) {
  run_certify(state, Protocol::kMvcc);
}

void BM_E15_Dynamic(benchmark::State& state) {
  run_mode(state, Protocol::kDynamic);
}
void BM_E15_Static(benchmark::State& state) {
  run_mode(state, Protocol::kStatic);
}
void BM_E15_Hybrid(benchmark::State& state) {
  run_mode(state, Protocol::kHybrid);
}
void BM_E15_Occ(benchmark::State& state) { run_mode(state, Protocol::kOcc); }
void BM_E15_Mvcc(benchmark::State& state) { run_mode(state, Protocol::kMvcc); }

static void CertifyArgs(benchmark::internal::Benchmark* b) {
  b->Unit(benchmark::kMillisecond)->Iterations(1);
}
static void ModeArgs(benchmark::internal::Benchmark* b) {
  b->Arg(1)->Arg(2)->Arg(4)->Arg(8);
  b->Unit(benchmark::kMillisecond)->Iterations(1);
}

BENCHMARK(BM_E15_Certify_Dynamic)->Apply(CertifyArgs);
BENCHMARK(BM_E15_Certify_Static)->Apply(CertifyArgs);
BENCHMARK(BM_E15_Certify_Hybrid)->Apply(CertifyArgs);
BENCHMARK(BM_E15_Certify_Occ)->Apply(CertifyArgs);
BENCHMARK(BM_E15_Certify_Mvcc)->Apply(CertifyArgs);

BENCHMARK(BM_E15_Dynamic)->Apply(ModeArgs);
BENCHMARK(BM_E15_Static)->Apply(ModeArgs);
BENCHMARK(BM_E15_Hybrid)->Apply(ModeArgs);
BENCHMARK(BM_E15_Occ)->Apply(ModeArgs);
BENCHMARK(BM_E15_Mvcc)->Apply(ModeArgs);

}  // namespace
}  // namespace argus

BENCHMARK_MAIN();

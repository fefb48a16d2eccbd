// E17 — sentinel check-mode overhead: what linear-time certification
// buys.
//
// Claim measured: with the vector-clock fast path (kVectorClock and
// kEscalating), always-on atomicity checking stays within a few percent
// of running with the sentinel off, because commuting production traffic
// folds in O(1) per operation and never replays. kExact pays the full
// NFA subset replay on every window and falls behind as the committed
// prefix grows. The foreground workload is untouched either way — the
// sentinel drains the flight recorder from a background thread — so the
// ratio isolates the drain + check cost.
//
// Workload: hybrid bank accounts under a commuting deposit mix (same
// shape as E11/E12, so the numbers compose), force delay modelling an
// fsync. Swept: check mode x thread count. BENCH json carries
// `throughput_vs_off` plus the sentinel's fast-path counters, so the
// "zero escalations on commuting traffic" claim is checkable from the
// artifact alone.
#include <benchmark/benchmark.h>

#include <map>

#include "bench_common.h"
#include "sim/workload.h"
#include "spec/adts/bank_account.h"

namespace argus {
namespace {

constexpr int kAccounts = 8;
constexpr auto kForceDelay = std::chrono::microseconds(20);

enum class SentinelConfig { kOff, kExact, kVectorClock, kEscalating };

const char* config_name(SentinelConfig c) {
  switch (c) {
    case SentinelConfig::kOff:
      return "off";
    case SentinelConfig::kExact:
      return "exact";
    case SentinelConfig::kVectorClock:
      return "vc";
    case SentinelConfig::kEscalating:
      return "escalating";
  }
  return "?";
}

/// Sentinel-off throughput per thread count, measured first in this
/// process; the checked configs report their ratio against it.
std::map<int, double>& off_baseline() {
  static std::map<int, double> baseline;
  return baseline;
}

void run_sentinel_mode(benchmark::State& state, SentinelConfig config) {
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Runtime rt(Runtime::RecorderMode::kFlight);
    rt.tm().log().set_force_delay(kForceDelay);
    std::vector<std::shared_ptr<ManagedObject>> accounts;
    for (int i = 0; i < kAccounts; ++i) {
      accounts.push_back(
          rt.create_hybrid<BankAccountAdt>("a" + std::to_string(i)));
    }
    rt.set_wait_timeout_all(std::chrono::milliseconds(500));

    AtomicitySentinel* sentinel = nullptr;
    if (config != SentinelConfig::kOff) {
      SentinelOptions so;
      so.window = std::chrono::milliseconds(5);
      so.checkpoint_threshold = 4096;  // bounded memory, incremental folds
      switch (config) {
        case SentinelConfig::kExact:
          so.mode = CheckMode::kExact;
          break;
        case SentinelConfig::kVectorClock:
          so.mode = CheckMode::kVectorClock;
          break;
        default:
          so.mode = CheckMode::kEscalating;
          break;
      }
      sentinel = &rt.start_sentinel(so);
    }

    WorkloadOptions options;
    options.threads = threads;
    options.transactions_per_thread = 400;
    options.seed = 7;
    WorkloadDriver driver(rt, options);
    const auto result = driver.run({MixItem{
        "deposit", TxnKind::kUpdate, 1,
        [&](Transaction& txn, SplitMix64& rng) {
          auto& account = accounts[rng.below(accounts.size())];
          account->invoke(txn, account::deposit(1));
        }}});

    std::map<std::string, double> extra;
    if (sentinel != nullptr) {
      sentinel->stop();
      extra["sentinel_violations"] =
          static_cast<double>(sentinel->violations());
      extra["sentinel_activities"] =
          static_cast<double>(sentinel->activities_checked());
      extra["sentinel_windows"] = static_cast<double>(sentinel->windows());
      extra["sentinel_fastpath_windows"] =
          static_cast<double>(sentinel->fastpath_windows());
      extra["sentinel_escalations"] =
          static_cast<double>(sentinel->escalations());
      extra["sentinel_suspicious"] =
          static_cast<double>(sentinel->suspicious());
      extra["sentinel_vc_ops"] = static_cast<double>(sentinel->vc_ops());
      extra["sentinel_clean_seals"] =
          static_cast<double>(sentinel->clean_seals());
      extra["sentinel_reseals"] = static_cast<double>(sentinel->reseals());
      extra["sentinel_stragglers"] =
          static_cast<double>(sentinel->stragglers());
      rt.stop_sentinel();
    }
    if (config == SentinelConfig::kOff) {
      off_baseline()[threads] = result.throughput();
    } else if (auto it = off_baseline().find(threads);
               it != off_baseline().end() && it->second > 0.0) {
      extra["throughput_vs_off"] = result.throughput() / it->second;
    }

    const std::string key = std::string("sentinel_mode/") +
                            config_name(config) + "/t" +
                            std::to_string(threads);
    bench::report(state, result, key);
    for (const auto& [k, v] : extra) state.counters[k] = v;
    bench::JsonSink::instance().update(key, extra);
  }
}

void BM_SentinelMode_Off(benchmark::State& state) {
  run_sentinel_mode(state, SentinelConfig::kOff);
}
void BM_SentinelMode_Exact(benchmark::State& state) {
  run_sentinel_mode(state, SentinelConfig::kExact);
}
void BM_SentinelMode_VectorClock(benchmark::State& state) {
  run_sentinel_mode(state, SentinelConfig::kVectorClock);
}
void BM_SentinelMode_Escalating(benchmark::State& state) {
  run_sentinel_mode(state, SentinelConfig::kEscalating);
}

// Arg = worker thread count. The off baseline must run first for a given
// thread count so the ratios have a denominator (benchmarks execute in
// registration order).
BENCHMARK(BM_SentinelMode_Off)
    ->Arg(1)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK(BM_SentinelMode_Exact)
    ->Arg(1)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK(BM_SentinelMode_VectorClock)
    ->Arg(1)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK(BM_SentinelMode_Escalating)
    ->Arg(1)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace
}  // namespace argus

BENCHMARK_MAIN();

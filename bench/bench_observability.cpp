// E12 — observability overhead: what always-on tracing costs.
//
// Claim measured: the sharded flight recorder makes event capture cheap
// enough to leave on in production — committed-transaction throughput
// with recording on stays within a few percent of recording off at 8
// threads. The online atomicity sentinel rides the same stream from a
// background thread, so continuous serializability checking adds only
// the drain cost to the foreground.
//
// Workload: hybrid bank accounts under a commuting deposit mix plus
// transfers (same shape as E11, so the commit path — not admission — is
// the foreground cost), force delay modelling an fsync. Swept: recording
// config x thread count. BENCH json carries `throughput_vs_off`, the
// ratio against the recording-off baseline measured in the same process.
#include <benchmark/benchmark.h>

#include <map>

#include "bench_common.h"
#include "sim/workload.h"
#include "spec/adts/bank_account.h"

namespace argus {
namespace {

constexpr int kAccounts = 8;
constexpr auto kForceDelay = std::chrono::microseconds(20);

enum class ObsConfig { kOff, kFlight, kFlightSentinel };

const char* config_name(ObsConfig c) {
  switch (c) {
    case ObsConfig::kOff:
      return "off";
    case ObsConfig::kFlight:
      return "flight";
    case ObsConfig::kFlightSentinel:
      return "flight_sentinel";
  }
  return "?";
}

/// Recording-off throughput per thread count, measured first in this
/// process; the other configs report their ratio against it.
std::map<int, double>& off_baseline() {
  static std::map<int, double> baseline;
  return baseline;
}

void run_observability(benchmark::State& state, ObsConfig config) {
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Runtime rt(config == ObsConfig::kOff ? Runtime::RecorderMode::kOff
                                         : Runtime::RecorderMode::kFlight);
    rt.tm().log().set_force_delay(kForceDelay);
    std::vector<std::shared_ptr<ManagedObject>> accounts;
    for (int i = 0; i < kAccounts; ++i) {
      accounts.push_back(
          rt.create_hybrid<BankAccountAdt>("a" + std::to_string(i)));
    }
    rt.set_wait_timeout_all(std::chrono::milliseconds(500));

    AtomicitySentinel* sentinel = nullptr;
    if (config == ObsConfig::kFlightSentinel) {
      SentinelOptions so;
      so.window = std::chrono::milliseconds(5);
      so.checkpoint_threshold = 4096;  // bounded memory, incremental folds
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
      rt.stop_sentinel();
    }
    if (FlightRecorder* rec = rt.flight_recorder()) {
      extra["recorder_events"] = static_cast<double>(rec->total_recorded());
      extra["recorder_shards"] = static_cast<double>(rec->shard_count());
    }
    if (config == ObsConfig::kOff) {
      off_baseline()[threads] = result.throughput();
    } else if (auto it = off_baseline().find(threads);
               it != off_baseline().end() && it->second > 0.0) {
      extra["throughput_vs_off"] = result.throughput() / it->second;
    }

    const std::string key =
        std::string("obs/") + config_name(config) + "/t" +
        std::to_string(threads);
    bench::report(state, result, key);
    for (const auto& [k, v] : extra) state.counters[k] = v;
    bench::JsonSink::instance().update(key, extra);
  }
}

void BM_Observability_Off(benchmark::State& state) {
  run_observability(state, ObsConfig::kOff);
}
void BM_Observability_Flight(benchmark::State& state) {
  run_observability(state, ObsConfig::kFlight);
}
void BM_Observability_FlightSentinel(benchmark::State& state) {
  run_observability(state, ObsConfig::kFlightSentinel);
}

// Arg = worker thread count. The off baseline must run first for a given
// thread count so the ratios have a denominator (benchmarks execute in
// registration order).
BENCHMARK(BM_Observability_Off)
    ->Arg(1)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK(BM_Observability_Flight)
    ->Arg(1)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK(BM_Observability_FlightSentinel)
    ->Arg(1)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace
}  // namespace argus

BENCHMARK_MAIN();

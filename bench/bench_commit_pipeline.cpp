// E11 — commit pipeline scaling.
//
// Claim measured: restructuring the commit path into validate → timestamp
// → group-commit log force → ordered apply+publish shrinks the global
// critical section to a timestamp allocation, so committed-transaction
// throughput scales with thread count on a commuting-updates workload.
//
// Workload: hybrid bank accounts, deposit-only transactions (deposits
// commute in every state, so admission never blocks and the commit path
// itself is the bottleneck). Swept: thread count 1..16. The simulated
// force delay models an fsync that group commit amortizes across a
// batch.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "sim/workload.h"
#include "spec/adts/bank_account.h"

namespace argus {
namespace {

constexpr int kAccounts = 8;
constexpr auto kForceDelay = std::chrono::microseconds(20);

void BM_CommitPipeline_Pipelined(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Runtime rt(Runtime::RecorderMode::kOff);
    rt.tm().log().set_force_delay(kForceDelay);
    std::vector<std::shared_ptr<ManagedObject>> accounts;
    for (int i = 0; i < kAccounts; ++i) {
      accounts.push_back(
          rt.create_hybrid<BankAccountAdt>("a" + std::to_string(i)));
    }
    rt.set_wait_timeout_all(std::chrono::milliseconds(500));

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
    const std::string key = "commit/pipelined/t" + std::to_string(threads);
    bench::report(state, result, key);
    bench::report_label(state, result, "deposit", key);
  }
}

// Arg = worker thread count.
BENCHMARK(BM_CommitPipeline_Pipelined)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace
}  // namespace argus

BENCHMARK_MAIN();

// E8 (ablation) — what the data-dependent admission test buys and costs.
//
// DESIGN.md calls out the central implementation choice: the dynamic
// object's admission is a state-dependent all-orders validation layered
// over a static-commutativity fast path. This ablation runs the same
// object with the exact test disabled (AdmissionMode::kConflictTableOnly,
// i.e. classical commutativity locking) and enabled, on two regimes:
//
//   * covered-withdraw contention (the §5.1 case the exact test admits):
//     exact should win throughput despite its CPU cost;
//   * commuting-only traffic (deposits): both modes take the fast path,
//     so the exact machinery must cost ~nothing.
//
// A second axis measures raw admission-test CPU: single-threaded
// invocations with N pending conflicting transactions staged.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/escrow_account.h"
#include "core/runtime.h"
#include "sim/workload.h"
#include "spec/adts/bank_account.h"

namespace argus {
namespace {

std::shared_ptr<DynamicAtomicObject<BankAccountAdt>> make_account(
    Runtime& rt, AdmissionMode mode, std::int64_t initial) {
  auto obj = std::make_shared<DynamicAtomicObject<BankAccountAdt>>(
      rt.allocate_object_id(), "account", rt.tm(), rt.recorder(), mode);
  rt.adopt(obj, std::make_shared<AdtSpec<BankAccountAdt>>());
  if (initial > 0) {
    auto t = rt.begin();
    obj->invoke(*t, account::deposit(initial));
    rt.commit(t);
  }
  return obj;
}

void run_contended_on(benchmark::State& state,
                      const std::shared_ptr<ManagedObject>& acct, Runtime& rt,
                      bool commuting_only, int threads,
                      const std::string& key) {
  rt.set_wait_timeout_all(std::chrono::milliseconds(200));
  MixItem body{"op", TxnKind::kUpdate, 1,
               [acct, commuting_only](Transaction& txn, SplitMix64&) {
                 for (int i = 0; i < 4; ++i) {
                   if (commuting_only) {
                     acct->invoke(txn, account::deposit(1));
                   } else {
                     acct->invoke(txn, account::withdraw(1));
                   }
                   std::this_thread::sleep_for(std::chrono::microseconds(20));
                 }
               }};
  WorkloadOptions options;
  options.threads = threads;
  options.transactions_per_thread = 200 / threads + 1;
  options.seed = 5;
  WorkloadDriver driver(rt, options);
  bench::report(state, driver.run({body}), key);
}

void run_contended(benchmark::State& state, AdmissionMode mode,
                   bool commuting_only) {
  for (auto _ : state) {
    Runtime rt(Runtime::RecorderMode::kOff);
    auto acct = make_account(rt, mode, 1'000'000);
    run_contended_on(state, acct, rt, commuting_only, 4,
                     std::string("ablation/") +
                         (mode == AdmissionMode::kExact ? "exact" : "table") +
                         (commuting_only ? "/deposits" : "/withdraws"));
  }
}

// Type-specific escrow protocol on the same workload — O(1) admission and
// no concurrency cap; included to show what a type-specific object buys
// over the generic brute-force validation (third rung of the ablation).
void run_contended_escrow(benchmark::State& state, bool commuting_only,
                          int threads) {
  for (auto _ : state) {
    Runtime rt(Runtime::RecorderMode::kOff);
    auto acct = std::make_shared<EscrowAccount>(rt.allocate_object_id(),
                                                "escrow", rt.tm(), nullptr);
    rt.adopt(acct, std::make_shared<AdtSpec<BankAccountAdt>>());
    {
      auto t = rt.begin();
      acct->invoke(*t, account::deposit(1'000'000));
      rt.commit(t);
    }
    run_contended_on(state, acct, rt, commuting_only, threads,
                     std::string("ablation/escrow") +
                         (commuting_only ? "/deposits" : "/withdraws") + "/t" +
                         std::to_string(threads));
  }
}

void BM_Ablation_Withdraws_Escrow(benchmark::State& state) {
  run_contended_escrow(state, /*commuting_only=*/false, 4);
}
void BM_Ablation_Withdraws_Escrow8(benchmark::State& state) {
  run_contended_escrow(state, /*commuting_only=*/false, 8);
}

void BM_Ablation_Withdraws_Exact(benchmark::State& state) {
  run_contended(state, AdmissionMode::kExact, /*commuting_only=*/false);
}
void BM_Ablation_Withdraws_TableOnly(benchmark::State& state) {
  run_contended(state, AdmissionMode::kConflictTableOnly,
                /*commuting_only=*/false);
}
void BM_Ablation_Deposits_Exact(benchmark::State& state) {
  run_contended(state, AdmissionMode::kExact, /*commuting_only=*/true);
}
void BM_Ablation_Deposits_TableOnly(benchmark::State& state) {
  run_contended(state, AdmissionMode::kConflictTableOnly,
                /*commuting_only=*/true);
}

BENCHMARK(BM_Ablation_Withdraws_Exact)->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_Ablation_Withdraws_TableOnly)->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_Ablation_Withdraws_Escrow)->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_Ablation_Withdraws_Escrow8)->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_Ablation_Deposits_Exact)->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_Ablation_Deposits_TableOnly)->Unit(benchmark::kMillisecond)->Iterations(1);

// Raw admission CPU: the invoking transaction validates against N staged
// conflicting transactions (each holding one covered withdraw).
void BM_Ablation_AdmissionCpu(benchmark::State& state) {
  const int pending = static_cast<int>(state.range(0));
  Runtime rt(Runtime::RecorderMode::kOff);
  auto acct = make_account(rt, AdmissionMode::kExact, 1'000'000);

  std::vector<std::shared_ptr<Transaction>> stage;
  for (int i = 0; i < pending; ++i) {
    auto t = rt.begin();
    acct->invoke(*t, account::withdraw(1));
    stage.push_back(std::move(t));
  }
  for (auto _ : state) {
    auto t = rt.begin();
    benchmark::DoNotOptimize(acct->invoke(*t, account::withdraw(1)));
    rt.abort(t);
  }
  for (auto& t : stage) rt.abort(t);
}

BENCHMARK(BM_Ablation_AdmissionCpu)->DenseRange(0, 6);

}  // namespace
}  // namespace argus

BENCHMARK_MAIN();

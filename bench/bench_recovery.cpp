// E7 — recoverability online (§1, §3: atomicity is serializability AND
// recoverability, treated together).
//
// Measures the machinery our runtime pays for the all-or-nothing
// property: intentions-list commit vs. abort cost as transaction size
// grows, and full crash-recovery replay time as a function of committed
// log size. Shape expectations: abort is O(1)-ish (discard intentions);
// commit is linear in the intentions list; recovery is linear in the
// stable log.
// E13 — the price of the fault-injection harness (DESIGN.md "Fault
// model"): the per-commit cost of the injector hooks when no injector is
// attached (one relaxed atomic load per site), when an injector is
// attached but quiet (decisions drawn, no faults fire), and under an
// active chaos mix (force failures retried, torn tails requeued). The
// off/attached ratio is the overhead every production commit pays for
// the harness existing; EXPERIMENTS.md E13 records the measured ratios.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/runtime.h"
#include "fault/fault.h"
#include "spec/adts/int_set.h"

namespace argus {
namespace {

void BM_Recovery_CommitCost(benchmark::State& state) {
  const int ops = static_cast<int>(state.range(0));
  Runtime rt(Runtime::RecorderMode::kOff);
  auto set = rt.create_dynamic<IntSetAdt>("s");
  for (auto _ : state) {
    auto t = rt.begin();
    for (int i = 0; i < ops; ++i) {
      set->invoke(*t, intset::insert(i % 64));
    }
    rt.commit(t);
  }
  state.SetItemsProcessed(state.iterations() * ops);
}

void BM_Recovery_AbortCost(benchmark::State& state) {
  const int ops = static_cast<int>(state.range(0));
  Runtime rt(Runtime::RecorderMode::kOff);
  auto set = rt.create_dynamic<IntSetAdt>("s");
  for (auto _ : state) {
    auto t = rt.begin();
    for (int i = 0; i < ops; ++i) {
      set->invoke(*t, intset::insert(i % 64));
    }
    rt.abort(t);
  }
  state.SetItemsProcessed(state.iterations() * ops);
}

void BM_Recovery_ReplayCost(benchmark::State& state) {
  const int committed_txns = static_cast<int>(state.range(0));
  Runtime rt(Runtime::RecorderMode::kOff);
  auto set = rt.create_dynamic<IntSetAdt>("s");
  for (int i = 0; i < committed_txns; ++i) {
    auto t = rt.begin();
    set->invoke(*t, intset::insert(i % 256));
    rt.commit(t);
  }
  for (auto _ : state) {
    rt.crash();
    rt.recover();
  }
  state.counters["log_records"] =
      static_cast<double>(rt.tm().log().size());
}

// E13: arg 0 = no injector, 1 = injector attached but quiet, 2 = active
// chaos mix (transient force failures + torn tails).
void BM_Fault_CommitOverhead(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  Runtime rt(Runtime::RecorderMode::kOff);
  auto set = rt.create_dynamic<IntSetAdt>("s");
  std::shared_ptr<FaultInjector> injector;
  if (mode >= 1) {
    FaultPlan plan;
    plan.seed = 7;
    if (mode == 2) {
      plan.force_fail_permille = 150;
      plan.force_max_retries = 1;
      plan.force_retry_backoff_us = 0;
      plan.torn_batch_permille = 200;
    }
    injector = std::make_shared<FaultInjector>(plan);
    rt.set_fault_injector(injector);
  }

  int key = 0;
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    auto t = rt.begin();
    set->invoke(*t, intset::insert(key++ % 64));
    try {
      rt.commit(t);
      ++committed;
    } catch (const TransactionAborted&) {
      rt.abort(t);
      ++aborted;
    }
  }
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  state.SetItemsProcessed(state.iterations());

  static const char* kModeNames[] = {"off", "attached", "chaos"};
  std::map<std::string, double> counters;
  counters["commit_ns"] = state.iterations() == 0
                              ? 0.0
                              : 1e9 * elapsed_s /
                                    static_cast<double>(state.iterations());
  counters["txn_per_s"] = elapsed_s == 0.0
                              ? 0.0
                              : static_cast<double>(state.iterations()) /
                                    elapsed_s;
  counters["committed"] = static_cast<double>(committed);
  counters["aborted"] = static_cast<double>(aborted);
  counters["faults_injected"] =
      injector ? static_cast<double>(injector->faults_injected()) : 0.0;
  bench::JsonSink::instance().update(
      std::string("fault_commit_overhead/") + kModeNames[mode], counters);
  state.counters["committed"] = static_cast<double>(committed);
  state.counters["aborted"] = static_cast<double>(aborted);
}

BENCHMARK(BM_Recovery_CommitCost)->Arg(1)->Arg(8)->Arg(32);
BENCHMARK(BM_Recovery_AbortCost)->Arg(1)->Arg(8)->Arg(32);
BENCHMARK(BM_Recovery_ReplayCost)->Arg(100)->Arg(1000)->Arg(5000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Fault_CommitOverhead)->Arg(0)->Arg(1)->Arg(2);

}  // namespace
}  // namespace argus

BENCHMARK_MAIN();

// E1 — Fig 5-1 / §5.1 FIFO queue.
//
// Claim reproduced: scheduler-model conflict tables serialize enqueues of
// distinct values (enqueue(1) vs enqueue(2) never commute), while the
// commit-order hybrid queue lets producers run fully concurrently. 2PL is
// worse still (every operation is a writer). Expected shape:
//     hybrid >> comm-lock >= 2pl, dynamic ~ comm-lock on this workload
// (the generic dynamic object gains nothing on distinct-value enqueues —
// its extra power only shows on argument collisions, cf. E2).
//
// Workload: P producer threads (burst enqueues of random values) and
// consumer threads (burst dequeues) over one queue, pre-filled so
// consumers never starve.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "sim/scenarios.h"

namespace argus {
namespace {

void run_queue(benchmark::State& state, Protocol protocol) {
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Runtime rt(Runtime::RecorderMode::kOff);
    auto scenario = QueueScenario::create(rt, protocol);
    rt.set_wait_timeout_all(std::chrono::milliseconds(200));

    // Pre-fill in small transactions (a single huge one would make the
    // intentions-list replay quadratic and measure setup, not steady
    // state).
    for (int batch = 0; batch < 20; ++batch) {
      auto t = rt.begin();
      for (int i = 0; i < 50; ++i) {
        scenario.queue->invoke(*t, fifo::enqueue(batch * 50 + i));
      }
      rt.commit(t);
    }

    WorkloadOptions options;
    options.threads = threads;
    options.transactions_per_thread = 300 / threads + 1;
    options.seed = 42;
    WorkloadDriver driver(rt, options);
    const auto result =
        driver.run({scenario.producer_mix(4, 3), scenario.consumer_mix(2, 1)});
    const std::string key =
        "queue/" + to_string(protocol) + "/t" + std::to_string(threads);
    bench::report(state, result, key);
    bench::report_label(state, result, "producer", key);
    bench::report_label(state, result, "consumer", key);
  }
}

void BM_Queue_TwoPhase(benchmark::State& state) {
  run_queue(state, Protocol::kTwoPhase);
}
void BM_Queue_CommLock(benchmark::State& state) {
  run_queue(state, Protocol::kCommutativity);
}
void BM_Queue_Dynamic(benchmark::State& state) {
  run_queue(state, Protocol::kDynamic);
}
void BM_Queue_Hybrid(benchmark::State& state) {
  run_queue(state, Protocol::kHybrid);
}

BENCHMARK(BM_Queue_TwoPhase)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_Queue_CommLock)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_Queue_Dynamic)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_Queue_Hybrid)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace
}  // namespace argus

BENCHMARK_MAIN();

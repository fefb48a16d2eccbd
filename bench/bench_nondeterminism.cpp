// E9 — the nondeterminism dividend (§1, citing [Weihl & Liskov 83]:
// "non-determinism may be needed to achieve a reasonable level of
// concurrency among actions").
//
// Identical producer/consumer workload over two type-specific hybrid
// objects differing only in their consumer specification:
//
//   HybridFifoQueue — deterministic dequeue (the front): concurrent
//                     consumers serialize on the tentative front;
//   HybridBag       — nondeterministic remove (any element): concurrent
//                     consumers claim disjoint instances and never wait
//                     for each other.
//
// Expected shape: bag consumer throughput scales with consumer threads,
// queue throughput plateaus; the gap is bought purely by weakening the
// specification, with both histories fully hybrid atomic.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/runtime.h"
#include "sim/workload.h"
#include "spec/adts/bag.h"
#include "spec/adts/fifo_queue.h"

namespace argus {
namespace {

void run_consumers(benchmark::State& state, bool use_bag) {
  const int consumers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Runtime rt(Runtime::RecorderMode::kOff);
    std::shared_ptr<ManagedObject> obj;
    if (use_bag) {
      obj = rt.create_hybrid_bag("b");
    } else {
      obj = rt.create_hybrid_queue("q");
    }
    rt.set_wait_timeout_all(std::chrono::milliseconds(200));

    // Pre-fill with plenty of committed items.
    for (int batch = 0; batch < 20; ++batch) {
      auto t = rt.begin();
      for (int i = 0; i < 60; ++i) {
        obj->invoke(*t, use_bag ? bag::insert(batch * 60 + i)
                                : fifo::enqueue(batch * 60 + i));
      }
      rt.commit(t);
    }

    // Consumers take one item each, holding the claim across simulated
    // processing work — the window in which deterministic consumers
    // collide and nondeterministic ones do not.
    MixItem consume{"consume", TxnKind::kUpdate, 1,
                    [obj, use_bag](Transaction& txn, SplitMix64&) {
                      obj->invoke(txn,
                                  use_bag ? bag::remove() : fifo::dequeue());
                      std::this_thread::sleep_for(
                          std::chrono::microseconds(100));
                    }};

    WorkloadOptions options;
    options.threads = consumers;
    options.transactions_per_thread = 400 / consumers + 1;
    options.seed = 11;
    WorkloadDriver driver(rt, options);
    bench::report(state, driver.run({consume}),
                  std::string("consumers/") + (use_bag ? "bag" : "fifo") +
                      "/c" + std::to_string(consumers));
  }
}

void BM_Consumers_FifoQueue(benchmark::State& state) {
  run_consumers(state, /*use_bag=*/false);
}
void BM_Consumers_Bag(benchmark::State& state) {
  run_consumers(state, /*use_bag=*/true);
}

BENCHMARK(BM_Consumers_FifoQueue)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_Consumers_Bag)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace
}  // namespace argus

BENCHMARK_MAIN();

// The §5.1 FIFO queue as a transactional work pipeline.
//
// Stage 1 producers enqueue jobs, stage 2 workers dequeue them, process,
// and enqueue results onto a second queue — each step a transaction, so
// a crash mid-pipeline never loses or duplicates a job. Uses the
// type-specific HybridFifoQueue, whose commit-time ordering lets
// producers with *different* payloads run concurrently (impossible under
// any static conflict table, as the paper's Fig 5-1 discussion shows).
//
// Build & run:  ./build/examples/queue_pipeline
#include <atomic>
#include <iostream>
#include <thread>
#include <vector>

#include "core/runtime.h"
#include "spec/adts/fifo_queue.h"

int main() {
  using namespace argus;

  Runtime rt(Runtime::RecorderMode::kOff);
  auto jobs = rt.create_hybrid_queue("jobs");
  auto results = rt.create_hybrid_queue("results");

  constexpr int kJobs = 300;
  constexpr int kProducers = 3;
  constexpr int kWorkers = 4;

  std::atomic<int> produced{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = p; i < kJobs; i += kProducers) {
        while (true) {
          auto t = rt.begin();
          try {
            jobs->invoke(*t, fifo::enqueue(i));
            rt.commit(t);
            ++produced;
            break;
          } catch (const TransactionAborted&) {
            rt.abort(t);
          }
        }
      }
    });
  }

  std::atomic<int> processed{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&] {
      while (true) {
        const int claim = processed.fetch_add(1);
        if (claim >= kJobs) return;
        while (true) {
          auto t = rt.begin();
          try {
            const std::int64_t job =
                jobs->invoke(*t, fifo::dequeue()).as_int();
            // "Process": square the job id, atomically with the dequeue —
            // if this transaction aborts, the job goes back to the queue.
            results->invoke(*t, fifo::enqueue(job * job));
            rt.commit(t);
            break;
          } catch (const TransactionAborted&) {
            rt.abort(t);
          }
        }
      }
    });
  }

  for (auto& t : producers) t.join();
  for (auto& t : workers) t.join();

  // Crash and recover: the pipeline state is rebuilt from the log.
  rt.crash();
  rt.recover();

  std::int64_t sum = 0;
  const auto out = results->committed_items();
  for (std::int64_t v : out) sum += v;

  std::int64_t expected = 0;
  for (int i = 0; i < kJobs; ++i) expected += static_cast<std::int64_t>(i) * i;

  std::cout << "jobs produced:   " << produced.load() << "\n"
            << "results present: " << out.size() << " (expected " << kJobs
            << ")\n"
            << "checksum:        " << sum << " (expected " << expected
            << ")\n"
            << "jobs left over:  " << jobs->committed_items().size()
            << " (expected 0)\n";
  return (out.size() == kJobs && sum == expected &&
          jobs->committed_items().empty())
             ? 0
             : 1;
}

// StableLog failure semantics under fault injection: torn forces
// stabilize exactly a prefix, the requeued tail either restabilizes or is
// failed by drop_pending (never silently lost, never half-applied),
// transient force failures retry then surface as I/O errors, and the
// crash path is idempotent. Concurrency here is real (committer threads),
// so these tests double as TSan coverage for the injector hooks.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <thread>

#include "core/runtime.h"
#include "fault/fault.h"
#include "spec/adts/bank_account.h"
#include "txn/stable_log.h"

namespace argus {
namespace {

CommitLogRecord record_with_ts(std::uint64_t ts) {
  CommitLogRecord r;
  r.txn = ActivityId{ts};
  r.commit_ts = ts;
  r.start_ts = ts;
  return r;
}

std::vector<Timestamp> forced_timestamps(const StableLog& log) {
  std::vector<Timestamp> out;
  for (const auto& r : log.records()) out.push_back(r.commit_ts);
  return out;
}

TEST(StableLogFaults, SingleRecordTornForceRequeuesThenRestabilizes) {
  // A torn force over a batch of one stabilizes prefix 0: the record goes
  // back to the queue and the next (budget-exhausted, clean) force lands
  // it. The committer never observes the tear — only the stats do.
  FaultPlan plan;
  plan.seed = 11;
  plan.torn_batch_permille = 1000;
  plan.max_faults = 1;
  FaultInjector injector(plan);

  StableLog log;
  log.set_fault_injector(&injector);
  EXPECT_EQ(log.append_group(record_with_ts(1)), AppendResult::kForced);

  const auto stats = log.group_stats();
  EXPECT_EQ(stats.torn_forces, 1u);
  EXPECT_EQ(stats.records_requeued, 1u);
  EXPECT_EQ(stats.forces, 2u);  // the torn attempt + the clean retry
  EXPECT_EQ(stats.records_forced, 1u);
  EXPECT_EQ(log.size(), 1u);
  log.set_fault_injector(nullptr);
}

TEST(StableLogFaults, TornForceStabilizesExactlyThePrefix) {
  // Build a three-record batch deterministically: the first committer
  // parks as flush leader on hold_flushes (its clean decision predates
  // the injector), three more enqueue behind it, and the injector is
  // attached before release — so the *second* force (the full
  // three-record batch) is injector arrival 1. Pick a seed whose arrival
  // 1 tears at prefix 1 by asking a scratch injector.
  FaultPlan plan;
  plan.torn_batch_permille = 1000;
  plan.max_faults = 1;
  bool found = false;
  for (std::uint64_t seed = 1; seed <= 512 && !found; ++seed) {
    plan.seed = seed;
    FaultInjector scratch(plan);
    const auto d = scratch.on_force(3);
    found = d.torn && d.stable_prefix == 1;
  }
  ASSERT_TRUE(found) << "no seed tears a 3-batch at prefix 1";
  FaultInjector injector(plan);

  StableLog log;
  log.hold_flushes();
  std::array<AppendResult, 4> results{};
  std::thread leader(
      [&] { results[0] = log.append_group(record_with_ts(1)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::vector<std::thread> followers;
  for (std::uint64_t i = 2; i <= 4; ++i) {
    followers.emplace_back(
        [&, i] { results[i - 1] = log.append_group(record_with_ts(i)); });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  log.set_fault_injector(&injector);
  log.release_flushes();
  leader.join();
  for (auto& t : followers) t.join();

  // Every committer eventually stabilized: the torn tail was requeued and
  // the next (clean) leader landed it.
  for (const auto r : results) EXPECT_EQ(r, AppendResult::kForced);
  const auto stats = log.group_stats();
  EXPECT_EQ(stats.torn_forces, 1u);
  EXPECT_EQ(stats.records_requeued, 2u);  // 3-batch minus prefix 1
  EXPECT_EQ(stats.forces, 3u);  // [r1], torn 3-batch, requeued pair
  EXPECT_EQ(stats.records_forced, 4u);
  EXPECT_EQ(stats.max_batch, 2u);
  EXPECT_EQ(log.size(), 4u);
  log.set_fault_injector(nullptr);
}

TEST(StableLogFaults, DropPendingAfterTornForceFailsExactlyTheUnstabilized) {
  // Torn forces forever (every leader tears, every force pays a latency
  // spike). Once the first tear completes, the requeued tail sits behind
  // a leader sleeping its latency out — drop_pending lands in that window
  // and must fail exactly the committers whose records never stabilized.
  FaultPlan plan;
  plan.seed = 23;
  plan.torn_batch_permille = 1000;
  plan.leader_latency_permille = 1000;
  plan.leader_latency_us = 50000;
  plan.max_faults = 10;  // livelock backstop: eventually forces go clean
  FaultInjector injector(plan);

  StableLog log;
  log.set_fault_injector(&injector);

  std::array<AppendResult, 4> results{};
  std::vector<std::thread> committers;
  for (std::uint64_t i = 1; i <= 4; ++i) {
    committers.emplace_back(
        [&, i] { results[i - 1] = log.append_group(record_with_ts(i)); });
  }
  while (log.group_stats().torn_forces == 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  log.drop_pending();
  for (auto& t : committers) t.join();

  std::vector<Timestamp> forced_ts;
  std::size_t dropped = 0;
  for (std::uint64_t i = 1; i <= 4; ++i) {
    switch (results[i - 1]) {
      case AppendResult::kForced:
        forced_ts.push_back(i);
        break;
      case AppendResult::kDropped:
        ++dropped;
        break;
      case AppendResult::kIoError:
        ADD_FAILURE() << "no force failures were planned";
    }
  }
  // Exactness: the committers told "forced" are exactly the records the
  // log holds; everyone else was told "dropped"; nobody is missing.
  auto in_log = forced_timestamps(log);
  std::sort(in_log.begin(), in_log.end());
  EXPECT_EQ(forced_ts, in_log);
  EXPECT_EQ(forced_ts.size() + dropped, 4u);
  EXPECT_GE(dropped, 1u);  // the requeued tail was pending at the drop
  EXPECT_GE(log.group_stats().torn_forces, 1u);
  EXPECT_GE(log.group_stats().records_requeued, 1u);
  log.set_fault_injector(nullptr);
}

TEST(StableLogFaults, ExhaustedForceRetriesFailTheBatchAsIoError) {
  FaultPlan plan;
  plan.seed = 31;
  plan.force_fail_permille = 1000;  // every attempt fails
  plan.force_max_retries = 2;
  plan.force_retry_backoff_us = 1;
  FaultInjector injector(plan);

  StableLog log;
  log.set_fault_injector(&injector);
  EXPECT_EQ(log.append_group(record_with_ts(1)), AppendResult::kIoError);
  const auto stats = log.group_stats();
  EXPECT_EQ(stats.force_failures, 3u);  // initial attempt + 2 retries
  EXPECT_EQ(stats.forces, 0u);          // nothing ever reached storage
  EXPECT_EQ(log.size(), 0u);
  log.set_fault_injector(nullptr);
}

TEST(StableLogFaults, TransientForceFailureRecoversOnRetry) {
  FaultPlan plan;
  plan.seed = 31;
  plan.force_fail_permille = 1000;
  plan.force_max_retries = 3;
  plan.force_retry_backoff_us = 1;
  plan.max_faults = 1;  // only the first attempt fails
  FaultInjector injector(plan);

  StableLog log;
  log.set_fault_injector(&injector);
  EXPECT_EQ(log.append_group(record_with_ts(1)), AppendResult::kForced);
  const auto stats = log.group_stats();
  EXPECT_EQ(stats.force_failures, 1u);
  EXPECT_EQ(stats.forces, 1u);
  EXPECT_EQ(log.size(), 1u);
  log.set_fault_injector(nullptr);
}

TEST(StableLogFaults, DropPendingIsIdempotent) {
  StableLog log;
  EXPECT_EQ(log.append_group(record_with_ts(1)), AppendResult::kForced);
  log.drop_pending();
  log.drop_pending();  // second crash on an already-drained log: no-op
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log.append_group(record_with_ts(2)), AppendResult::kForced);
  EXPECT_EQ(log.size(), 2u);
}

TEST(StableLogFaults, DoubleRuntimeCrashIsIdempotent) {
  Runtime rt(Runtime::RecorderMode::kOff);
  auto acct = rt.create_dynamic<BankAccountAdt>("a");
  {
    auto t = rt.begin();
    acct->invoke(*t, account::deposit(100));
    rt.commit(t);
  }
  rt.crash();
  rt.crash();  // a crash while already down changes nothing
  rt.recover();
  EXPECT_EQ(acct->committed_state(), 100);
}

TEST(StableLogFaults, SetForceDelayRacesInFlightLeadersSafely) {
  // The knob is read under the log mutex per force; flipping it from
  // another thread mid-traffic must neither tear a read (TSan) nor lose a
  // record.
  StableLog log;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 32;
  std::atomic<int> forced{0};
  std::vector<std::thread> committers;
  for (int w = 0; w < kThreads; ++w) {
    committers.emplace_back([&, w] {
      for (int i = 0; i < kPerThread; ++i) {
        const auto ts =
            static_cast<std::uint64_t>(w * kPerThread + i + 1);
        if (log.append_group(record_with_ts(ts)) == AppendResult::kForced) {
          forced.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int i = 0; i < 100; ++i) {
    log.set_force_delay(std::chrono::microseconds(i % 2 == 0 ? 0 : 20));
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  for (auto& t : committers) t.join();
  EXPECT_EQ(forced.load(), kThreads * kPerThread);
  EXPECT_EQ(log.size(), static_cast<std::size_t>(kThreads * kPerThread));
}

}  // namespace
}  // namespace argus

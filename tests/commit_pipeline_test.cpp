// Staged commit pipeline: the read-only watermark invariant under
// concurrency, group-commit crash semantics, mode parity, and which
// update transactions skip the log force.
//
// The load-bearing invariant (§4.3.3, preserved by the watermark): a
// read-only activity with start timestamp t observes exactly the
// committed updates with commit timestamps below t. The stress test
// checks it exactly — the stable log is forced before anything applies,
// so "the committed updates below t" can be recomputed after the run
// from the log alone and compared against what each scanner saw live.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "check/atomicity.h"
#include "common/rng.h"
#include "core/runtime.h"
#include "hist/wellformed.h"
#include "sched/factory.h"
#include "spec/adts/bank_account.h"
#include "test_util.h"

namespace argus {
namespace {

/// Sum of deposit amounts at `object` across records with commit_ts < t.
std::int64_t committed_below(const std::vector<CommitLogRecord>& records,
                             ObjectId object, Timestamp t) {
  std::int64_t total = 0;
  for (const CommitLogRecord& record : records) {
    if (record.commit_ts >= t) continue;
    for (const CommitLogRecord::Entry& entry : record.entries) {
      if (entry.object != object) continue;
      for (const LoggedOp& logged : entry.ops) {
        if (logged.op.name == "deposit") total += logged.op.args[0].as_int();
      }
    }
  }
  return total;
}

TEST(CommitPipeline, ReadOnlyScannersSeeExactlyTheCommittedPrefix) {
  Runtime rt(Runtime::RecorderMode::kOff);
  auto account = rt.create_hybrid<BankAccountAdt>("a");
  rt.set_wait_timeout_all(std::chrono::milliseconds(500));

  constexpr int kUpdaters = 4;
  constexpr int kTxnsPerUpdater = 150;
  constexpr int kScanners = 3;

  std::atomic<bool> stop{false};
  auto updater = [&](int index) {
    SplitMix64 rng(31 * static_cast<std::uint64_t>(index) + 7);
    for (int i = 0; i < kTxnsPerUpdater; ++i) {
      auto t = rt.begin();
      try {
        account->invoke(*t, account::deposit(rng.range(1, 5)));
        rt.commit(t);
      } catch (const TransactionAborted&) {
        rt.abort(t);
      }
    }
  };

  struct Observation {
    Timestamp start_ts;
    std::int64_t balance;
  };
  std::mutex observations_mu;
  std::vector<Observation> observations;
  // Each scanner finishes one read before it looks at `stop`: the
  // updaters can finish before a scanner thread is first scheduled.
  auto scanner = [&] {
    do {
      auto t = rt.begin_read_only();
      const Value v = account->invoke(*t, account::balance());
      rt.commit(t);
      const std::scoped_lock lock(observations_mu);
      observations.push_back({t->start_ts(), v.as_int()});
    } while (!stop.load(std::memory_order_relaxed));
  };

  std::vector<std::thread> threads;
  for (int i = 0; i < kUpdaters; ++i) threads.emplace_back(updater, i);
  for (int i = 0; i < kScanners; ++i) threads.emplace_back(scanner);
  for (int i = 0; i < kUpdaters; ++i) threads[static_cast<std::size_t>(i)].join();
  stop.store(true, std::memory_order_relaxed);
  for (std::size_t i = kUpdaters; i < threads.size(); ++i) threads[i].join();

  // Every scanner's view must equal the committed prefix below its start
  // timestamp, recomputed from the write-ahead log.
  const auto records = rt.tm().log().records();
  ASSERT_FALSE(observations.empty());
  for (const Observation& obs : observations) {
    EXPECT_EQ(obs.balance,
              committed_below(records, account->id(), obs.start_ts))
        << "scanner at t=" << obs.start_ts
        << " saw a view that is not the committed prefix below t";
  }
}

TEST(CommitPipeline, ConcurrentHistoryIsHybridAtomic) {
  Runtime rt;  // record history
  auto account = rt.create_hybrid<BankAccountAdt>("a");
  rt.set_wait_timeout_all(std::chrono::milliseconds(500));

  auto updater = [&](int index) {
    for (int i = 0; i < 5; ++i) {
      auto t = rt.begin();
      try {
        account->invoke(*t, account::deposit(index + 1));
        rt.commit(t);
      } catch (const TransactionAborted&) {
        rt.abort(t);
      }
    }
  };
  auto scanner = [&] {
    for (int i = 0; i < 5; ++i) {
      auto t = rt.begin_read_only();
      account->invoke(*t, account::balance());
      rt.commit(t);
    }
  };
  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i) threads.emplace_back(updater, i);
  threads.emplace_back(scanner);
  for (auto& t : threads) t.join();

  const History h = rt.history();
  const auto wf = check_well_formed_hybrid(h, h.initiated());
  EXPECT_TRUE(wf.ok()) << wf.summary();
  const auto verdict = check_hybrid_atomic(rt.system(), h);
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

TEST(CommitPipeline, CrashDuringGroupCommitBatchLosesOnlyUnforcedRecords) {
  Runtime rt(Runtime::RecorderMode::kOff);
  auto account = rt.create_hybrid<BankAccountAdt>("a");

  // Two transactions force normally and must survive.
  for (int i = 0; i < 2; ++i) {
    auto t = rt.begin();
    account->invoke(*t, account::deposit(100));
    rt.commit(t);
  }
  const std::size_t forced_before = rt.tm().log().size();
  ASSERT_EQ(forced_before, 2u);

  // Three committers pile into a held flush: their records are queued or
  // claimed but never stable.
  rt.tm().log().hold_flushes();
  std::atomic<int> crash_aborts{0};
  auto committer = [&] {
    auto t = rt.begin();
    try {
      account->invoke(*t, account::deposit(7));
      rt.commit(t);
    } catch (const TransactionAborted& e) {
      rt.abort(t);
      if (e.reason() == AbortReason::kCrash) ++crash_aborts;
    }
  };
  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i) threads.emplace_back(committer);
  // Wait until all three are blocked inside the commit pipeline.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  rt.crash();
  rt.tm().log().release_flushes();
  for (auto& t : threads) t.join();
  rt.recover();

  // Recovery replayed exactly the forced prefix: the held batch is gone,
  // its committers unwound with crash aborts, and no partial effects
  // survive.
  EXPECT_EQ(rt.tm().log().size(), forced_before);
  EXPECT_EQ(crash_aborts.load(), 3);
  EXPECT_EQ(account->committed_state(), 200);

  // The pipeline is drained, not wedged: normal commits work again.
  auto t = rt.begin();
  account->invoke(*t, account::deposit(1));
  rt.commit(t);
  EXPECT_EQ(account->committed_state(), 201);
  EXPECT_EQ(rt.tm().log().size(), forced_before + 1);
}

TEST(CommitPipeline, CommitTimestampsStayMonotoneAndLogStaysSorted) {
  Runtime rt(Runtime::RecorderMode::kOff);
  auto account = rt.create_hybrid<BankAccountAdt>("a");
  auto worker = [&] {
    for (int i = 0; i < 200; ++i) {
      auto t = rt.begin();
      try {
        account->invoke(*t, account::deposit(1));
        rt.commit(t);
      } catch (const TransactionAborted&) {
        rt.abort(t);
      }
    }
  };
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) threads.emplace_back(worker);
  for (auto& t : threads) t.join();

  const auto records = rt.tm().log().records();
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_LT(records[i - 1].commit_ts, records[i].commit_ts);
  }
  // The watermark caught up: every commit has published.
  EXPECT_GE(rt.tm().clock().watermark(), records.back().commit_ts);
  EXPECT_EQ(rt.tm().clock().inflight(), 0u);
}

TEST(CommitPipeline, PipelineStatsAreObservable) {
  Runtime rt(Runtime::RecorderMode::kOff);
  auto account = rt.create_hybrid<BankAccountAdt>("a");
  auto worker = [&] {
    for (int i = 0; i < 50; ++i) {
      auto t = rt.begin();
      account->invoke(*t, account::deposit(1));
      rt.commit(t);
    }
  };
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) threads.emplace_back(worker);
  for (auto& t : threads) t.join();

  const CommitPipelineStats stats = rt.tm().pipeline_stats();
  EXPECT_EQ(stats.commits, 200u);
  EXPECT_GT(stats.log_forces, 0u);
  EXPECT_EQ(stats.log_records, 200u);
  EXPECT_GE(stats.max_batch, 1u);
  EXPECT_GE(stats.avg_batch(), 1.0);
  EXPECT_GE(stats.clock_now, stats.watermark);
}

TEST(CommitPipeline, ConcurrentCommitsSurviveCrashAndRecover) {
  Runtime rt(Runtime::RecorderMode::kOff);
  auto account = rt.create_hybrid<BankAccountAdt>("a");
  auto worker = [&] {
    for (int i = 0; i < 50; ++i) {
      auto t = rt.begin();
      try {
        account->invoke(*t, account::deposit(2));
        rt.commit(t);
      } catch (const TransactionAborted&) {
        rt.abort(t);
      }
    }
  };
  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i) threads.emplace_back(worker);
  for (auto& t : threads) t.join();

  const std::uint64_t committed = rt.tm().stats().committed;
  EXPECT_EQ(account->committed_state(),
            static_cast<std::int64_t>(2 * committed));
  rt.crash();
  rt.recover();
  EXPECT_EQ(account->committed_state(),
            static_cast<std::int64_t>(2 * committed));
}

// ---------------------------------------------------------------------------
// Observer-only update transactions: nothing to redo, so no log force at
// objects that serialize at commit; everything else still forces.

/// Two accounts under `protocol`, seeded by one forced deposit each.
struct ObserverBank {
  explicit ObserverBank(Protocol protocol)
      : a(make_object<BankAccountAdt>(rt, protocol, "a")),
        b(make_object<BankAccountAdt>(rt, protocol, "b")) {
    auto setup = rt.begin();
    a->invoke(*setup, account::deposit(10));
    b->invoke(*setup, account::deposit(20));
    rt.commit(setup);
  }

  /// Commits one update transaction running `body`; returns it.
  template <typename Body>
  std::shared_ptr<Transaction> commit_update(Body body) {
    auto t = rt.begin();
    body(*t);
    rt.commit(t);
    return t;
  }

  Runtime rt;  // declared first: a and b are built in it
  std::shared_ptr<ManagedObject> a;
  std::shared_ptr<ManagedObject> b;
};

class ObserverSkip : public ::testing::TestWithParam<Protocol> {};

TEST_P(ObserverSkip, ObserverOnlyUpdateCommitsWithoutAForce) {
  ObserverBank bank(GetParam());
  const std::size_t records = bank.rt.tm().log().size();
  const std::uint64_t forces = bank.rt.tm().log().group_stats().forces;

  auto t = bank.commit_update([&](Transaction& txn) {
    EXPECT_EQ(bank.a->invoke(txn, account::balance()), Value{10});
    EXPECT_EQ(bank.b->invoke(txn, account::balance()), Value{20});
  });

  EXPECT_EQ(t->state(), TxnState::kCommitted);
  EXPECT_EQ(bank.rt.tm().log().size(), records);
  EXPECT_EQ(bank.rt.tm().log().group_stats().forces, forces);
  // It still drew a timestamp, took its turn and published.
  EXPECT_NE(t->commit_ts(), kNoTimestamp);
  EXPECT_GE(bank.rt.tm().clock().watermark(), t->commit_ts());
  EXPECT_EQ(bank.rt.tm().clock().inflight(), 0u);
  const CommitPipelineStats stats = bank.rt.tm().pipeline_stats();
  EXPECT_EQ(stats.commits, 2u);
  EXPECT_EQ(stats.unforced_commits, 1u);
  EXPECT_NE(bank.rt.metrics().prometheus_text().find(
                "argus_commit_pipeline_unforced_total 1"),
            std::string::npos);

  // Nothing was lost: the next mutator forces and recovery replays it.
  bank.commit_update(
      [&](Transaction& txn) { bank.a->invoke(txn, account::deposit(1)); });
  EXPECT_EQ(bank.rt.tm().log().size(), records + 1);
  bank.rt.crash();
  bank.rt.recover();
  bank.commit_update([&](Transaction& txn) {
    EXPECT_EQ(bank.a->invoke(txn, account::balance()), Value{11});
  });
}

TEST_P(ObserverSkip, FailedWithdrawIsStillForced) {
  ObserverBank bank(GetParam());
  const std::size_t records = bank.rt.tm().log().size();
  const std::uint64_t forces = bank.rt.tm().log().group_stats().forces;

  // A mutator whose result is insufficient_funds changed nothing, but it
  // is classified by operation, not by result.
  bank.commit_update([&](Transaction& txn) {
    EXPECT_EQ(bank.b->invoke(txn, account::balance()), Value{20});
    EXPECT_EQ(bank.a->invoke(txn, account::withdraw(99)),
              Value{kInsufficientFunds});
  });

  EXPECT_EQ(bank.rt.tm().log().size(), records + 1);
  EXPECT_EQ(bank.rt.tm().log().group_stats().forces, forces + 1);
  EXPECT_EQ(bank.rt.tm().pipeline_stats().unforced_commits, 0u);
}

INSTANTIATE_TEST_SUITE_P(CommitOrderObjects, ObserverSkip,
                         ::testing::Values(Protocol::kDynamic,
                                           Protocol::kHybrid,
                                           Protocol::kTwoPhase,
                                           Protocol::kCommutativity),
                         [](const auto& info) {
                           std::string name = to_string(info.param);
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

class ObserverForced : public ::testing::TestWithParam<Protocol> {};

TEST_P(ObserverForced, ObserverOnlyUpdateIsStillForced) {
  // A static or timestamp read constrains later writers below its start
  // timestamp, and OCC/MVCC validate at commit: these keep the record.
  ObserverBank bank(GetParam());
  const std::size_t records = bank.rt.tm().log().size();
  const std::uint64_t forces = bank.rt.tm().log().group_stats().forces;

  bank.commit_update([&](Transaction& txn) {
    EXPECT_EQ(bank.a->invoke(txn, account::balance()), Value{10});
  });

  EXPECT_EQ(bank.rt.tm().log().size(), records + 1);
  EXPECT_EQ(bank.rt.tm().log().group_stats().forces, forces + 1);
  EXPECT_EQ(bank.rt.tm().pipeline_stats().unforced_commits, 0u);
}

INSTANTIATE_TEST_SUITE_P(StartOrderAndValidatingObjects, ObserverForced,
                         ::testing::Values(Protocol::kStatic,
                                           Protocol::kTimestamp,
                                           Protocol::kOcc, Protocol::kMvcc),
                         [](const auto& info) {
                           return to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// LamportClock hand-offs under stress: the turn and coverage waits spin
// on a published minimum before they park, so these drive them directly,
// with short random delays that land some waits in the spin and some in
// the park.

/// Applies of the stress committers, in the order they ran.
struct ApplyLog {
  std::mutex mu;
  std::vector<Timestamp> applied;  // guarded by mu
};

/// What one read-only begin saw on return: its timestamp and how many
/// applies had run.
struct ReaderSight {
  Timestamp ts;
  std::size_t applied;
};

void sleep_briefly(SplitMix64& rng) {
  const std::uint64_t roll = rng.below(4);
  if (roll == 0) return;
  if (roll == 1) {
    std::this_thread::yield();
    return;
  }
  std::this_thread::sleep_for(std::chrono::microseconds(rng.below(30)));
}

/// Runs 4 committers and 2 readers against one clock. A committer
/// begins, sleeps a random short time, optionally re-stamps its entry
/// upward (the 2PC decision) or gives up without applying, waits for its
/// turn, applies and finishes. A reader takes a read-only start
/// timestamp, alternately drawn by read_only_begin and supplied by the
/// caller (observe + wait_covered, as begin_with_timestamp does), and
/// records how many applies had run when its wait returned.
void stress_clock(bool with_restamp, std::uint64_t seed) {
  LamportClock clock;
  ApplyLog log;
  constexpr int kCommitters = 4;
  constexpr int kCommitsEach = 400;
  constexpr int kReaders = 2;
  std::atomic<int> committers_left{kCommitters};
  std::mutex sights_mu;
  std::vector<ReaderSight> sights;

  auto committer = [&](int index) {
    SplitMix64 rng(seed * 131 + static_cast<std::uint64_t>(index));
    for (int i = 0; i < kCommitsEach; ++i) {
      Timestamp ts = clock.begin_commit();
      sleep_briefly(rng);
      if (with_restamp && rng.below(4) == 0) {
        const Timestamp to = clock.next();
        clock.restamp_commit(ts, to);
        ts = to;
        sleep_briefly(rng);
      }
      if (rng.below(10) == 0) {  // aborted: retires without applying
        clock.finish_commit(ts);
        continue;
      }
      clock.wait_for_turn(ts);
      {
        const std::scoped_lock lock(log.mu);
        log.applied.push_back(ts);
      }
      clock.finish_commit(ts);
    }
    committers_left.fetch_sub(1);
  };
  auto reader = [&](int index) {
    SplitMix64 rng(seed * 977 + static_cast<std::uint64_t>(index));
    std::vector<ReaderSight> mine;
    bool supplied = index % 2 == 1;
    do {
      Timestamp ts;
      if (supplied) {
        ts = clock.now() + 1 + rng.below(3);
        clock.observe(ts);
        clock.wait_covered(ts);
      } else {
        ts = clock.read_only_begin();
      }
      supplied = !supplied;
      std::size_t applied = 0;
      {
        const std::scoped_lock lock(log.mu);
        applied = log.applied.size();
      }
      mine.push_back({ts, applied});
      sleep_briefly(rng);
    } while (committers_left.load() > 0);
    const std::scoped_lock lock(sights_mu);
    sights.insert(sights.end(), mine.begin(), mine.end());
  };

  std::vector<std::thread> threads;
  for (int i = 0; i < kCommitters; ++i) threads.emplace_back(committer, i);
  for (int i = 0; i < kReaders; ++i) threads.emplace_back(reader, i);
  for (auto& t : threads) t.join();

  // Applies ran in strictly ascending timestamp order.
  const std::vector<Timestamp>& applied = log.applied;
  ASSERT_GT(applied.size(), 0U);
  for (std::size_t i = 1; i < applied.size(); ++i) {
    ASSERT_LT(applied[i - 1], applied[i]) << "apply " << i;
  }
  // Every commit below a reader's timestamp had applied when its begin
  // returned. Applies ascend, so those commits are the first
  // count-below entries of the apply order.
  ASSERT_GT(sights.size(), 0U);
  for (const ReaderSight& sight : sights) {
    const auto below = static_cast<std::size_t>(
        std::lower_bound(applied.begin(), applied.end(), sight.ts) -
        applied.begin());
    EXPECT_LE(below, sight.applied)
        << "reader at " << sight.ts << " saw " << sight.applied
        << " applies, " << below << " commits lie below it";
  }
  EXPECT_EQ(clock.inflight(), 0U);
  EXPECT_GE(clock.watermark(), applied.back());
}

TEST(ClockStress, TurnsApplyInOrderAndReadersSeeEveryEarlierCommit) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) stress_clock(false, seed);
}

TEST(ClockStress, RestampedCommitsKeepTheOrderAndTheCoverage) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) stress_clock(true, seed);
}

TEST(ClockStress, OnlyWaitsThatParkAreCounted) {
  LamportClock clock;
  const Timestamp first = clock.begin_commit();
  const Timestamp second = clock.begin_commit();

  // A turn that is already due returns without parking.
  clock.wait_for_turn(first);
  EXPECT_EQ(clock.turn_parks(), 0U);

  // A turn held up far longer than the spin parks once.
  std::thread turn([&] { clock.wait_for_turn(second); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  clock.finish_commit(first);
  turn.join();
  EXPECT_EQ(clock.turn_parks(), 1U);

  // Same for coverage: blocked behind `second`, then free.
  std::thread cover([&] { clock.read_only_begin(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  clock.finish_commit(second);
  cover.join();
  EXPECT_EQ(clock.cover_parks(), 1U);
  clock.read_only_begin();
  clock.wait_covered(second);
  EXPECT_EQ(clock.cover_parks(), 1U);
  EXPECT_EQ(clock.turn_parks(), 1U);

  Runtime rt(Runtime::RecorderMode::kOff);
  const std::string text = rt.metrics().prometheus_text();
  EXPECT_NE(text.find("argus_clock_turn_parks_total 0"), std::string::npos);
  EXPECT_NE(text.find("argus_clock_cover_parks_total 0"), std::string::npos);
}

}  // namespace
}  // namespace argus

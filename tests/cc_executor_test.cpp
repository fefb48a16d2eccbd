// The CC-mode executor tier (ctest -L ccmodes), part 1: the pieces.
//
//   * TxnExecutor — the fixed worker pool: every submitted task runs to
//     completion, stats add up, shutdown is clean and final;
//   * OCC objects — invocations never block, commit-time validation
//     enforces first-committer-wins on write-write races, losers abort
//     with AbortReason::kValidation and retry cleanly;
//   * MVCC objects — read-only transactions read an initiation-time
//     snapshot (no stale or torn reads, no blocking, no aborts) while
//     updates validate like OCC;
//   * retry-limit exhaustion — a task that can never commit gives up
//     after exactly max_retries+1 attempts and leaves the runtime
//     healthy;
//   * telemetry gating — lock-mode-only series (deadlocks resolved,
//     object waits) follow the objects: absent for OCC/MVCC objects,
//     present for any object that can block; argus_executor_* appears
//     once a pool has run.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "check/atomicity.h"
#include "hist/wellformed.h"
#include "sched/executor.h"
#include "sched/factory.h"
#include "spec/adts/bank_account.h"
#include "test_util.h"

namespace argus {
namespace {

ExecutorOptions pool_of(int workers) {
  ExecutorOptions options;
  options.workers = workers;
  return options;
}

// ---------------------------------------------------------------------------
// The pool

TEST(TxnExecutor, RunsEverySubmittedTaskAndStatsAddUp) {
  Runtime rt(Runtime::RecorderMode::kOff);
  auto acct = rt.create_dynamic<BankAccountAdt>("a");

  ExecutorOptions options;
  options.workers = 3;
  TxnExecutor pool(rt, options);
  constexpr int kTasks = 40;
  for (int i = 0; i < kTasks; ++i) {
    pool.submit({"deposit", TxnKind::kUpdate,
                 [&acct](Transaction& txn, SplitMix64&) {
                   acct->invoke(txn, account::deposit(1));
                 },
                 static_cast<std::uint64_t>(i)});
  }
  pool.drain();
  const ExecutorStatsSnapshot stats = pool.stats();
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(stats.committed, static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(stats.gave_up, 0u);
  EXPECT_EQ(stats.queue_depth, 0);
  EXPECT_EQ(stats.workers, 3);

  pool.shutdown();
  EXPECT_EQ(pool.stats().workers, 0);
  EXPECT_THROW(pool.submit({"late", TxnKind::kUpdate,
                            [](Transaction&, SplitMix64&) {}, 0}),
               UsageError);

  auto t = rt.begin();
  EXPECT_EQ(acct->invoke(*t, account::balance()).as_int(), kTasks);
  rt.commit(t);
}

TEST(TxnExecutor, CompletionCallbackSeesEveryOutcome) {
  Runtime rt(Runtime::RecorderMode::kOff);
  auto acct = rt.create_dynamic<BankAccountAdt>("a");
  std::atomic<int> outcomes{0};
  std::atomic<int> committed{0};
  TxnExecutor pool(rt, pool_of(2),
                   [&](const TxnExecutor::Outcome& out) {
                     ++outcomes;
                     if (out.committed) ++committed;
                     EXPECT_EQ(out.label, "d");
                     EXPECT_GE(out.attempts, 1u);
                   });
  for (int i = 0; i < 10; ++i) {
    pool.submit({"d", TxnKind::kUpdate,
                 [&acct](Transaction& txn, SplitMix64&) {
                   acct->invoke(txn, account::deposit(1));
                 },
                 static_cast<std::uint64_t>(i)});
  }
  pool.drain();
  EXPECT_EQ(outcomes.load(), 10);
  EXPECT_EQ(committed.load(), 10);
}

TEST(TxnExecutor, RejectsAnEmptyPool) {
  Runtime rt(Runtime::RecorderMode::kOff);
  EXPECT_THROW(TxnExecutor(rt, pool_of(0)), UsageError);
}

// ---------------------------------------------------------------------------
// OCC: never block, validate at commit, first committer wins

TEST(OccObject, InvocationsNeverBlockOnConcurrentWriters) {
  Runtime rt;
  auto x = rt.create_occ<BankAccountAdt>("x");

  auto a = rt.begin();
  x->invoke(*a, account::deposit(100));
  // Under the locking protocols this second invocation would block until
  // `a` resolves; the optimistic object answers immediately from the
  // committed state.
  auto b = rt.begin();
  EXPECT_EQ(x->invoke(*b, account::balance()).as_int(), 0);
  rt.commit(a);
  // b's recorded read (balance = 0) is now stale: first committer won.
  try {
    rt.commit(b);
    FAIL() << "stale reader must lose validation";
  } catch (const TransactionAborted& e) {
    EXPECT_EQ(e.reason(), AbortReason::kValidation);
  }
}

TEST(OccObject, FirstCommitterWinsUnderWriteWriteRaces) {
  Runtime rt;
  auto x = rt.create_occ<BankAccountAdt>("x");
  {
    auto setup = rt.begin();
    x->invoke(*setup, account::deposit(100));
    rt.commit(setup);
  }

  // Both transactions see 100 of headroom and both withdrawals succeed
  // optimistically; only one can be right.
  auto a = rt.begin();
  auto b = rt.begin();
  EXPECT_EQ(x->invoke(*a, account::withdraw(60)), ok());
  EXPECT_EQ(x->invoke(*b, account::withdraw(60)), ok());

  rt.commit(a);  // first committer wins
  try {
    rt.commit(b);
    FAIL() << "second committer must lose validation";
  } catch (const TransactionAborted& e) {
    EXPECT_EQ(e.reason(), AbortReason::kValidation);
  }

  // The loser's retry sees the truth and takes the other branch.
  auto c = rt.begin();
  EXPECT_NE(x->invoke(*c, account::withdraw(60)), ok());
  rt.commit(c);
  EXPECT_EQ(x->committed_state(), 40);
}

TEST(OccObject, NonConflictingCommitsBothSucceed) {
  Runtime rt;
  auto x = rt.create_occ<BankAccountAdt>("x");

  // Two blind deposits: replay-based validation accepts the loser too,
  // because its recorded results hold in any order (the same insight the
  // paper's data-dependent admission exploits).
  auto a = rt.begin();
  auto b = rt.begin();
  x->invoke(*a, account::deposit(5));
  x->invoke(*b, account::deposit(7));
  rt.commit(a);
  rt.commit(b);
  EXPECT_EQ(x->committed_state(), 12);
}

TEST(OccObject, HistoryIsHybridAtomic) {
  Runtime rt;
  auto x = rt.create_occ<BankAccountAdt>("x");

  auto a = rt.begin();
  auto b = rt.begin();
  x->invoke(*a, account::deposit(10));
  x->invoke(*b, account::deposit(20));
  rt.commit(b);
  rt.commit(a);
  auto c = rt.begin();
  x->invoke(*c, account::withdraw(25));
  rt.commit(c);

  const History h = rt.history();
  const auto wf = check_well_formed_hybrid(h, {});
  ASSERT_TRUE(wf.ok()) << wf.summary() << "\n" << h.to_string();
  const auto verdict = check_hybrid_atomic(rt.system(), h);
  EXPECT_TRUE(verdict.ok) << verdict.explanation << "\n" << h.to_string();
}

// ---------------------------------------------------------------------------
// MVCC: snapshot reads

TEST(MvccObject, ReadOnlySnapshotPreventsStaleAndTornReads) {
  Runtime rt;
  auto x = rt.create_mvcc<BankAccountAdt>("x");
  {
    auto setup = rt.begin();
    x->invoke(*setup, account::deposit(100));
    rt.commit(setup);
  }

  auto reader = rt.begin_read_only();
  EXPECT_EQ(x->invoke(*reader, account::balance()).as_int(), 100);

  // A concurrent update commits between the reader's two reads.
  {
    auto writer = rt.begin();
    x->invoke(*writer, account::deposit(50));
    rt.commit(writer);
  }

  // The snapshot pins the reader at its initiation timestamp: it must
  // NOT see the later commit (that would be a non-repeatable read), and
  // it commits without validation — read-only is abort-free.
  EXPECT_EQ(x->invoke(*reader, account::balance()).as_int(), 100);
  rt.commit(reader);

  auto after = rt.begin_read_only();
  EXPECT_EQ(x->invoke(*after, account::balance()).as_int(), 150);
  rt.commit(after);

  const History h = rt.history();
  // Reader + after were the two read-only activities (ids 1 and 3).
  const auto wf = check_well_formed_hybrid(h, {ActivityId{1}, ActivityId{3}});
  ASSERT_TRUE(wf.ok()) << wf.summary() << "\n" << h.to_string();
  const auto verdict = check_hybrid_atomic(rt.system(), h);
  EXPECT_TRUE(verdict.ok) << verdict.explanation << "\n" << h.to_string();
}

TEST(MvccObject, ReadOnlyRejectsMutators) {
  Runtime rt(Runtime::RecorderMode::kOff);
  auto x = rt.create_mvcc<BankAccountAdt>("x");
  auto reader = rt.begin_read_only();
  EXPECT_THROW(x->invoke(*reader, account::deposit(1)), UsageError);
  rt.abort(reader);
}

TEST(MvccObject, UpdatesStillValidateLikeOcc) {
  Runtime rt(Runtime::RecorderMode::kOff);
  auto x = rt.create_mvcc<BankAccountAdt>("x");
  {
    auto setup = rt.begin();
    x->invoke(*setup, account::deposit(100));
    rt.commit(setup);
  }
  auto a = rt.begin();
  auto b = rt.begin();
  EXPECT_EQ(x->invoke(*a, account::withdraw(80)), ok());
  EXPECT_EQ(x->invoke(*b, account::withdraw(80)), ok());
  rt.commit(a);
  EXPECT_THROW(rt.commit(b), TransactionAborted);
  EXPECT_EQ(x->committed_state(), 20);
}

TEST(MvccObject, SnapshotReadersLeaveNoBookkeeping) {
  Runtime rt(Runtime::RecorderMode::kOff);
  auto x = rt.create_mvcc<BankAccountAdt>("x");
  for (int i = 0; i < 1000; ++i) {
    if (i % 50 == 0) {
      auto writer = rt.begin();
      x->invoke(*writer, account::deposit(1));
      rt.commit(writer);
    }
    auto reader = rt.begin_read_only();
    x->invoke(*reader, account::balance());
    EXPECT_EQ(x->initiated_count(), 1U);
    if (i % 10 == 0) {
      rt.abort(reader);
    } else {
      rt.commit(reader);
    }
  }
  EXPECT_EQ(x->initiated_count(), 0U);
}

TEST(MvccObject, SnapshotsSurviveRepeatedRecovery) {
  Runtime rt(Runtime::RecorderMode::kOff);
  std::vector<std::shared_ptr<OccAtomicObject<BankAccountAdt>>> accounts;
  for (int i = 0; i < 3; ++i) {
    accounts.push_back(
        rt.create_mvcc<BankAccountAdt>("m" + std::to_string(i)));
  }
  auto total = [&] {
    auto audit = rt.begin_read_only();
    std::int64_t sum = 0;
    for (const auto& a : accounts) {
      sum += a->invoke(*audit, account::balance()).as_int();
    }
    rt.commit(audit);
    return sum;
  };
  auto deposits = [&](int count) {
    for (int i = 0; i < count; ++i) {
      auto t = rt.begin();
      accounts[static_cast<std::size_t>(i % 3)]->invoke(
          *t, account::deposit(1 + i % 4));
      rt.commit(t);
      if (i % 20 == 0) total();  // moves the snapshot cursors mid-log
    }
  };
  deposits(200);
  const std::int64_t before = total();
  EXPECT_GT(before, 0);
  rt.crash();
  rt.recover();
  EXPECT_EQ(total(), before);

  deposits(100);
  const std::int64_t again = total();
  rt.crash();
  rt.recover();
  EXPECT_EQ(total(), again);
}

// ---------------------------------------------------------------------------
// Retry exhaustion

TEST(TxnExecutor, RetryExhaustionGivesUpCleanly) {
  Runtime rt(Runtime::RecorderMode::kOff);
  auto x = rt.create_occ<BankAccountAdt>("x");

  ExecutorOptions options;
  options.workers = 1;
  options.max_retries = 3;
  std::atomic<std::uint64_t> attempts{0};
  std::atomic<std::uint64_t> gave_up_outcomes{0};
  TxnExecutor pool(rt, options, [&](const TxnExecutor::Outcome& out) {
    attempts += out.attempts;
    if (!out.committed) ++gave_up_outcomes;
  });
  // A task that can never commit: it always asks to be aborted.
  pool.submit({"doomed", TxnKind::kUpdate,
               [](Transaction& txn, SplitMix64&) {
                 throw TransactionAborted(txn.id(), AbortReason::kUser);
               },
               1});
  pool.drain();

  EXPECT_EQ(attempts.load(), 4u);  // 1 first try + max_retries
  EXPECT_EQ(gave_up_outcomes.load(), 1u);
  const ExecutorStatsSnapshot stats = pool.stats();
  EXPECT_EQ(stats.gave_up, 1u);
  EXPECT_EQ(stats.retries, 3u);
  EXPECT_EQ(stats.committed, 0u);

  // Clean abort: the runtime is healthy and later work commits normally.
  pool.submit({"fine", TxnKind::kUpdate,
               [&x](Transaction& txn, SplitMix64&) {
                 x->invoke(txn, account::deposit(9));
               },
               2});
  pool.drain();
  EXPECT_EQ(pool.stats().committed, 1u);
  EXPECT_EQ(x->committed_state(), 9);

  // Tasks by attempts taken: the first needed 4 (the le="4" band), the
  // second 1. The export is cumulative.
  const ExecutorStatsSnapshot bands = pool.stats();
  EXPECT_EQ(bands.attempts[0], 1u);
  EXPECT_EQ(bands.attempts[2], 1u);
  const std::string text = rt.metrics().prometheus_text();
  EXPECT_NE(text.find("argus_executor_attempts{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("argus_executor_attempts{le=\"2\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("argus_executor_attempts{le=\"4\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("argus_executor_attempts{le=\"+Inf\"} 2\n"),
            std::string::npos);
}

TEST(TxnExecutor, CountsValidationAbortsAcrossRetries) {
  Runtime rt(Runtime::RecorderMode::kOff);
  auto x = rt.create_occ<BankAccountAdt>("x");
  {
    auto setup = rt.begin();
    x->invoke(*setup, account::deposit(1000));
    rt.commit(setup);
  }
  // Read-modify-write contention: every transaction reads the balance
  // then withdraws, so concurrent committers invalidate each other and
  // the losers funnel through the executor's retry loop.
  TxnExecutor pool(rt, pool_of(4));
  for (int i = 0; i < 60; ++i) {
    pool.submit({"rmw", TxnKind::kUpdate,
                 [&x](Transaction& txn, SplitMix64&) {
                   (void)x->invoke(txn, account::balance());
                   // Hold the window open so committers genuinely race.
                   std::this_thread::sleep_for(
                       std::chrono::microseconds(100));
                   (void)x->invoke(txn, account::withdraw(1));
                 },
                 static_cast<std::uint64_t>(i)});
  }
  pool.drain();
  const ExecutorStatsSnapshot stats = pool.stats();
  EXPECT_EQ(stats.committed, 60u);
  EXPECT_EQ(stats.gave_up, 0u);
  // Validation losses were counted (with 4 workers racing on one object
  // some conflict is certain) and every one was retried.
  EXPECT_GT(stats.validation_aborts, 0u);
  EXPECT_GE(stats.retries, stats.validation_aborts);
  EXPECT_EQ(x->committed_state(), 1000 - 60);
}

// ---------------------------------------------------------------------------
// Telemetry gating

TEST(CCModeMetrics, LockModeSeriesSuppressedUnderOccAndMvcc) {
  for (Protocol mode : {Protocol::kOcc, Protocol::kMvcc}) {
    Runtime rt(Runtime::RecorderMode::kOff);
    auto x = mode == Protocol::kOcc ? rt.create_occ<BankAccountAdt>("x")
                                    : rt.create_mvcc<BankAccountAdt>("x");
    TxnExecutor pool(rt, pool_of(2));
    for (int i = 0; i < 8; ++i) {
      pool.submit({"d", TxnKind::kUpdate,
                   [&x](Transaction& txn, SplitMix64&) {
                     x->invoke(txn, account::deposit(1));
                   },
                   static_cast<std::uint64_t>(i)});
    }
    pool.drain();
    pool.shutdown();

    const std::string text = rt.metrics().prometheus_text();
    EXPECT_EQ(text.find("argus_deadlocks_resolved_total"), std::string::npos)
        << to_string(mode) << " must not emit deadlock-detector telemetry";
    EXPECT_EQ(text.find("argus_object_waits_total"), std::string::npos)
        << to_string(mode) << " objects never block";
    EXPECT_NE(text.find("argus_executor_submitted_total 8"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("argus_executor_workers 0"), std::string::npos)
        << "pool shut down, gauge must read 0";
  }
}

TEST(CCModeMetrics, LockModeSeriesStayLiveUnderBlockingModes) {
  Runtime rt(Runtime::RecorderMode::kOff);
  auto x = rt.create_dynamic<BankAccountAdt>("x");
  auto t = rt.begin();
  x->invoke(*t, account::deposit(1));
  rt.commit(t);
  const std::string text = rt.metrics().prometheus_text();
  EXPECT_NE(text.find("argus_deadlocks_resolved_total"), std::string::npos);
  EXPECT_NE(text.find("argus_object_waits_total"), std::string::npos);
}

TEST(CCModeMetrics, MixedRuntimeGatesPerObject) {
  // One blocking object keeps the detector's counter live; the wait
  // series is emitted for the objects that can wait and for no other.
  Runtime rt(Runtime::RecorderMode::kOff);
  auto occ = rt.create_occ<BankAccountAdt>("opt");
  auto dyn = rt.create_dynamic<BankAccountAdt>("dyn");
  auto t = rt.begin();
  occ->invoke(*t, account::deposit(1));
  dyn->invoke(*t, account::deposit(1));
  rt.commit(t);
  const std::string text = rt.metrics().prometheus_text();
  EXPECT_NE(text.find("argus_deadlocks_resolved_total"), std::string::npos)
      << text;
  EXPECT_NE(text.find("argus_object_waits_total{object=\"dyn\"}"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("argus_object_deadlock_dooms_total{object=\"dyn\"}"),
            std::string::npos)
      << text;
  for (const char* series :
       {"argus_object_waits_total{object=\"opt\"}",
        "argus_object_wait_timeouts_total{object=\"opt\"}",
        "argus_object_deadlock_dooms_total{object=\"opt\"}"}) {
    EXPECT_EQ(text.find(series), std::string::npos) << series << "\n" << text;
  }
  // The OCC object's other series are still there.
  EXPECT_NE(text.find("argus_object_commits_total{object=\"opt\"} 1"),
            std::string::npos)
      << text;
}

}  // namespace
}  // namespace argus

// Transaction substrate tests: Lamport clock, transaction lifecycle,
// deadlock detector, stable log, transaction manager.
#include <gtest/gtest.h>

#include <thread>

#include "txn/clock.h"
#include "txn/deadlock.h"
#include "txn/manager.h"
#include "txn/stable_log.h"

namespace argus {
namespace {

TEST(LamportClock, StrictlyIncreasing) {
  LamportClock clock;
  Timestamp prev = 0;
  for (int i = 0; i < 100; ++i) {
    const Timestamp t = clock.next();
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(LamportClock, ObserveAdvances) {
  LamportClock clock;
  clock.observe(100);
  EXPECT_GT(clock.next(), 100u);
}

TEST(LamportClock, ObserveNeverRetreats) {
  LamportClock clock;
  const Timestamp t = clock.next();
  clock.observe(0);
  EXPECT_GT(clock.next(), t);
}

TEST(LamportClock, ConcurrentDrawsUnique) {
  LamportClock clock;
  std::vector<std::vector<Timestamp>> drawn(4);
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&, i] {
      for (int k = 0; k < 1000; ++k) drawn[i].push_back(clock.next());
    });
  }
  for (auto& t : threads) t.join();
  std::set<Timestamp> all;
  for (const auto& v : drawn) all.insert(v.begin(), v.end());
  EXPECT_EQ(all.size(), 4000u);
}

TEST(Transaction, LifecycleAndDoom) {
  Transaction t(ActivityId{1}, TxnKind::kUpdate, 5);
  EXPECT_TRUE(t.active());
  EXPECT_EQ(t.start_ts(), 5u);
  EXPECT_FALSE(t.read_only());
  EXPECT_NO_THROW(t.ensure_active());
  t.doom(AbortReason::kDeadlock);
  EXPECT_TRUE(t.doomed());
  EXPECT_EQ(t.doom_reason(), AbortReason::kDeadlock);
  EXPECT_THROW(t.ensure_active(), TransactionAborted);
}

TEST(Transaction, FirstDoomReasonWins) {
  Transaction t(ActivityId{1}, TxnKind::kUpdate, 1);
  t.doom(AbortReason::kWaitTimeout);
  t.doom(AbortReason::kDeadlock);
  EXPECT_EQ(t.doom_reason(), AbortReason::kWaitTimeout);
}

TEST(Transaction, EnsureActiveOnFinishedThrowsUsage) {
  Transaction t(ActivityId{1}, TxnKind::kUpdate, 1);
  t.set_state(TxnState::kCommitted);
  EXPECT_THROW(t.ensure_active(), UsageError);
}

TEST(DeadlockDetector, NoCycleNoVictim) {
  DeadlockDetector d;
  auto t1 = std::make_shared<Transaction>(ActivityId{1}, TxnKind::kUpdate, 1);
  auto t2 = std::make_shared<Transaction>(ActivityId{2}, TxnKind::kUpdate, 2);
  EXPECT_EQ(d.add_wait(t1, {t2}), nullptr);
  EXPECT_EQ(d.deadlocks_resolved(), 0u);
}

TEST(DeadlockDetector, TwoCycleYoungestDoomed) {
  DeadlockDetector d;
  auto t1 = std::make_shared<Transaction>(ActivityId{1}, TxnKind::kUpdate, 1);
  auto t2 = std::make_shared<Transaction>(ActivityId{2}, TxnKind::kUpdate, 2);
  EXPECT_EQ(d.add_wait(t1, {t2}), nullptr);
  auto victim = d.add_wait(t2, {t1});
  ASSERT_NE(victim, nullptr);
  EXPECT_EQ(victim->id(), ActivityId{2});  // youngest
  EXPECT_TRUE(victim->doomed());
  EXPECT_EQ(victim->doom_reason(), AbortReason::kDeadlock);
  EXPECT_EQ(d.deadlocks_resolved(), 1u);
}

TEST(DeadlockDetector, ThreeCycleDetected) {
  DeadlockDetector d;
  auto t1 = std::make_shared<Transaction>(ActivityId{1}, TxnKind::kUpdate, 1);
  auto t2 = std::make_shared<Transaction>(ActivityId{2}, TxnKind::kUpdate, 2);
  auto t3 = std::make_shared<Transaction>(ActivityId{3}, TxnKind::kUpdate, 3);
  EXPECT_EQ(d.add_wait(t1, {t2}), nullptr);
  EXPECT_EQ(d.add_wait(t2, {t3}), nullptr);
  auto victim = d.add_wait(t3, {t1});
  ASSERT_NE(victim, nullptr);
  EXPECT_TRUE(victim->doomed());
}

TEST(DeadlockDetector, ClearWaitBreaksEdges) {
  DeadlockDetector d;
  auto t1 = std::make_shared<Transaction>(ActivityId{1}, TxnKind::kUpdate, 1);
  auto t2 = std::make_shared<Transaction>(ActivityId{2}, TxnKind::kUpdate, 2);
  EXPECT_EQ(d.add_wait(t1, {t2}), nullptr);
  d.clear_wait(t1->id());
  EXPECT_EQ(d.add_wait(t2, {t1}), nullptr);  // no cycle anymore
}

TEST(DeadlockDetector, SelfWaitIgnored) {
  DeadlockDetector d;
  auto t1 = std::make_shared<Transaction>(ActivityId{1}, TxnKind::kUpdate, 1);
  EXPECT_EQ(d.add_wait(t1, {t1}), nullptr);
}

TEST(StableLog, AppendAndSnapshot) {
  StableLog log;
  CommitLogRecord r1;
  r1.txn = ActivityId{1};
  r1.commit_ts = 10;
  r1.entries.push_back({ObjectId{0}, {{op("deposit", 5), ok()}}});
  EXPECT_EQ(log.append_group(r1), AppendResult::kForced);
  EXPECT_EQ(log.size(), 1u);
  const auto records = log.records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].txn, ActivityId{1});
  EXPECT_EQ(records[0].entries[0].ops[0].op, op("deposit", 5));
  log.clear();
  EXPECT_EQ(log.size(), 0u);
}

TEST(Manager, BeginAssignsUniqueIdsAndTimestamps) {
  TransactionManager tm;
  auto t1 = tm.begin();
  auto t2 = tm.begin();
  EXPECT_NE(t1->id(), t2->id());
  EXPECT_LT(t1->start_ts(), t2->start_ts());
  EXPECT_EQ(tm.stats().begun, 2u);
}

TEST(Manager, BeginWithTimestampAdvancesClock) {
  TransactionManager tm;
  auto t1 = tm.begin_with_timestamp(TxnKind::kUpdate, 500);
  EXPECT_EQ(t1->start_ts(), 500u);
  auto t2 = tm.begin();
  EXPECT_GT(t2->start_ts(), 500u);
}

TEST(Manager, CommitWithoutObjectsSucceeds) {
  TransactionManager tm;
  auto t = tm.begin();
  tm.commit(t);
  EXPECT_EQ(t->state(), TxnState::kCommitted);
  EXPECT_GT(t->commit_ts(), 0u);
  EXPECT_EQ(tm.stats().committed, 1u);
}

TEST(Manager, CommitTimestampsMonotoneInCommitOrder) {
  TransactionManager tm;
  auto t1 = tm.begin();
  auto t2 = tm.begin();
  tm.commit(t2);
  tm.commit(t1);
  EXPECT_GT(t1->commit_ts(), t2->commit_ts());
}

TEST(Manager, CommitDoomedTransactionAbortsAndThrows) {
  TransactionManager tm;
  auto t = tm.begin();
  t->doom(AbortReason::kDeadlock);
  EXPECT_THROW(tm.commit(t), TransactionAborted);
  EXPECT_EQ(t->state(), TxnState::kAborted);
  EXPECT_EQ(tm.stats().aborted, 1u);
  EXPECT_EQ(tm.stats().aborted_by_reason.at(AbortReason::kDeadlock), 1u);
}

TEST(Manager, CommitTwiceIsUsageError) {
  TransactionManager tm;
  auto t = tm.begin();
  tm.commit(t);
  EXPECT_THROW(tm.commit(t), UsageError);
}

TEST(Manager, AbortIdempotent) {
  TransactionManager tm;
  auto t = tm.begin();
  tm.abort(t);
  EXPECT_EQ(t->state(), TxnState::kAborted);
  tm.abort(t);  // no-op
  EXPECT_EQ(tm.stats().aborted, 1u);
}

TEST(Manager, DoomAllActive) {
  TransactionManager tm;
  auto t1 = tm.begin();
  auto t2 = tm.begin();
  auto t3 = tm.begin();
  tm.commit(t3);
  tm.doom_all_active(AbortReason::kCrash);
  EXPECT_TRUE(t1->doomed());
  EXPECT_TRUE(t2->doomed());
  EXPECT_EQ(t3->state(), TxnState::kCommitted);
}

TEST(Manager, ActiveTransactionsTracksLifecycle) {
  TransactionManager tm;
  auto t1 = tm.begin();
  EXPECT_EQ(tm.active_transactions().size(), 1u);
  tm.commit(t1);
  EXPECT_TRUE(tm.active_transactions().empty());
}

TEST(Manager, CommitWritesLogRecord) {
  TransactionManager tm;
  auto t = tm.begin();
  tm.commit(t);
  const auto records = tm.log().records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].txn, t->id());
  EXPECT_EQ(records[0].commit_ts, t->commit_ts());
  EXPECT_EQ(records[0].start_ts, t->start_ts());
}

TEST(Manager, ReadOnlyKindPropagates) {
  TransactionManager tm;
  auto t = tm.begin(TxnKind::kReadOnly);
  EXPECT_TRUE(t->read_only());
}

}  // namespace
}  // namespace argus

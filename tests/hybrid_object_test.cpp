// HybridAtomicObject and HybridFifoQueue protocol tests: dynamic
// processing of updates, commit-time timestamps, non-interfering
// read-only snapshots (§4.3), and the commit-order queue.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "check/atomicity.h"
#include "core/runtime.h"
#include "hist/wellformed.h"
#include "spec/adts/bag.h"
#include "spec/adts/bank_account.h"
#include "spec/adts/fifo_queue.h"
#include "spec/adts/int_set.h"
#include "test_util.h"

namespace argus {
namespace {

using namespace testutil;

std::unordered_set<ActivityId> read_only_of(const History& h) {
  return h.initiated();
}

TEST(HybridObject, UpdatesBehaveDynamically) {
  Runtime rt;
  auto acct = rt.create_hybrid<BankAccountAdt>("a");
  auto setup = rt.begin();
  acct->invoke(*setup, account::deposit(10));
  rt.commit(setup);

  auto tb = rt.begin();
  auto tc = rt.begin();
  EXPECT_EQ(acct->invoke(*tb, account::withdraw(4)), ok());
  EXPECT_EQ(acct->invoke(*tc, account::withdraw(3)), ok());
  rt.commit(tc);
  rt.commit(tb);
  EXPECT_EQ(acct->committed_state(), 3);
}

TEST(HybridObject, CommitEventsCarryTimestamps) {
  Runtime rt;
  auto set = rt.create_hybrid<IntSetAdt>("s");
  auto t = rt.begin();
  set->invoke(*t, intset::insert(1));
  rt.commit(t);
  bool saw_stamped_commit = false;
  const History h = rt.history();
  for (const Event& e : h.events()) {
    if (e.kind == EventKind::kCommit && e.activity == t->id()) {
      EXPECT_TRUE(e.has_timestamp());
      EXPECT_EQ(e.timestamp, t->commit_ts());
      saw_stamped_commit = true;
    }
  }
  EXPECT_TRUE(saw_stamped_commit);
}

TEST(HybridObject, ReadOnlySeesCommittedPrefix) {
  Runtime rt;
  auto set = rt.create_hybrid<IntSetAdt>("s");
  auto t1 = rt.begin();
  set->invoke(*t1, intset::insert(1));
  rt.commit(t1);

  auto reader = rt.begin_read_only();
  auto t2 = rt.begin();
  set->invoke(*t2, intset::insert(2));
  rt.commit(t2);  // commits with ts above the reader's start ts

  // The reader sees exactly the updates committed before it began.
  EXPECT_EQ(set->invoke(*reader, intset::member(1)), Value{true});
  EXPECT_EQ(set->invoke(*reader, intset::member(2)), Value{false});
  rt.commit(reader);

  const History h = rt.history();
  const auto wf = check_well_formed_hybrid(h, read_only_of(h));
  EXPECT_TRUE(wf.ok()) << wf.summary();
  const auto verdict = check_hybrid_atomic(rt.system(), h);
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

TEST(HybridObject, ReadOnlyDoesNotBlockOnPendingUpdate) {
  // §4.3.3: audits "do not interfere in any way with update activities"
  // — and symmetrically are not delayed by them. An uncommitted update
  // holds intentions; the reader answers immediately from its snapshot.
  Runtime rt;
  auto acct = rt.create_hybrid<BankAccountAdt>("a");
  auto setup = rt.begin();
  acct->invoke(*setup, account::deposit(100));
  rt.commit(setup);

  auto writer = rt.begin();
  acct->invoke(*writer, account::withdraw(50));  // tentative

  auto reader = rt.begin_read_only();
  EXPECT_EQ(acct->invoke(*reader, account::balance()), Value{100});
  rt.commit(reader);
  rt.commit(writer);
  EXPECT_EQ(acct->committed_state(), 50);
}

TEST(HybridObject, ReadOnlyDoesNotBlockUpdates) {
  Runtime rt;
  auto acct = rt.create_hybrid<BankAccountAdt>("a");
  auto setup = rt.begin();
  acct->invoke(*setup, account::deposit(100));
  rt.commit(setup);

  auto reader = rt.begin_read_only();
  EXPECT_EQ(acct->invoke(*reader, account::balance()), Value{100});
  // While the reader is open, an update proceeds without blocking —
  // under dynamic atomicity this balance read would have locked out the
  // deposit.
  auto writer = rt.begin();
  EXPECT_EQ(acct->invoke(*writer, account::deposit(5)), ok());
  rt.commit(writer);
  rt.commit(reader);
  EXPECT_EQ(acct->committed_state(), 105);
}

TEST(HybridObject, SnapshotStableAcrossInterleavedCommits) {
  Runtime rt;
  auto set = rt.create_hybrid<IntSetAdt>("s");
  auto reader = rt.begin_read_only();
  EXPECT_EQ(set->invoke(*reader, intset::member(1)), Value{false});
  auto writer = rt.begin();
  set->invoke(*writer, intset::insert(1));
  rt.commit(writer);
  // Same query, same snapshot: still false.
  EXPECT_EQ(set->invoke(*reader, intset::member(1)), Value{false});
  rt.commit(reader);

  const auto verdict = check_hybrid_atomic(rt.system(), rt.history());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

TEST(HybridObject, HistoryHybridWellFormed) {
  Runtime rt;
  auto set = rt.create_hybrid<IntSetAdt>("s");
  auto t1 = rt.begin();
  set->invoke(*t1, intset::insert(1));
  rt.commit(t1);
  auto r = rt.begin_read_only();
  set->invoke(*r, intset::member(1));
  rt.commit(r);
  auto t2 = rt.begin();
  set->invoke(*t2, intset::del(1));
  rt.abort(t2);

  const History h = rt.history();
  const auto wf = check_well_formed_hybrid(h, read_only_of(h));
  EXPECT_TRUE(wf.ok()) << wf.summary();
}

// ------------------------------------------------------- hybrid queue --

TEST(HybridQueue, FifoAcrossTransactions) {
  Runtime rt;
  auto q = rt.create_hybrid_queue("q");
  auto t1 = rt.begin();
  q->invoke(*t1, fifo::enqueue(1));
  q->invoke(*t1, fifo::enqueue(2));
  rt.commit(t1);
  auto t2 = rt.begin();
  EXPECT_EQ(q->invoke(*t2, fifo::dequeue()), Value{1});
  EXPECT_EQ(q->invoke(*t2, fifo::dequeue()), Value{2});
  rt.commit(t2);
  EXPECT_TRUE(q->committed_items().empty());
}

TEST(HybridQueue, DistinctValueEnqueuesInterleave) {
  // The concurrency a conflict table cannot admit: enqueue(1) vs
  // enqueue(2) from different transactions, interleaved. Order is fixed
  // at commit (commit order = timestamp order).
  Runtime rt;
  auto q = rt.create_hybrid_queue("q");
  auto ta = rt.begin();
  auto tb = rt.begin();
  q->invoke(*ta, fifo::enqueue(1));
  q->invoke(*tb, fifo::enqueue(10));
  q->invoke(*ta, fifo::enqueue(2));
  q->invoke(*tb, fifo::enqueue(20));
  rt.commit(tb);  // b first: 10,20 precede 1,2
  rt.commit(ta);
  EXPECT_EQ(q->committed_items(), (std::vector<std::int64_t>{10, 20, 1, 2}));

  const auto verdict = check_hybrid_atomic(rt.system(), rt.history());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

TEST(HybridQueue, AbortedEnqueuesVanish) {
  Runtime rt;
  auto q = rt.create_hybrid_queue("q");
  auto ta = rt.begin();
  auto tb = rt.begin();
  q->invoke(*ta, fifo::enqueue(1));
  q->invoke(*tb, fifo::enqueue(2));
  rt.abort(ta);
  rt.commit(tb);
  EXPECT_EQ(q->committed_items(), (std::vector<std::int64_t>{2}));
}

TEST(HybridQueue, DequeueWaitsForCommittedItem) {
  Runtime rt;
  auto q = rt.create_hybrid_queue("q");
  auto producer = rt.begin();
  q->invoke(*producer, fifo::enqueue(7));  // tentative: not dequeueable
  auto consumer = rt.begin();
  auto blocked = expect_blocks([&] {
    EXPECT_EQ(q->invoke(*consumer, fifo::dequeue()), Value{7});
    rt.commit(consumer);
  });
  rt.commit(producer);
  join_within(blocked);
}

TEST(HybridQueue, ConcurrentDequeuesConflict) {
  Runtime rt;
  auto q = rt.create_hybrid_queue("q");
  auto setup = rt.begin();
  q->invoke(*setup, fifo::enqueue(1));
  q->invoke(*setup, fifo::enqueue(2));
  rt.commit(setup);

  auto t1 = rt.begin();
  auto t2 = rt.begin();
  EXPECT_EQ(q->invoke(*t1, fifo::dequeue()), Value{1});
  auto blocked = expect_blocks([&] {
    // t2 waits while t1 holds a tentative dequeue; after t1 aborts, the
    // front is restored and t2 gets 1.
    EXPECT_EQ(q->invoke(*t2, fifo::dequeue()), Value{1});
    rt.commit(t2);
  });
  rt.abort(t1);
  join_within(blocked);
  EXPECT_EQ(q->committed_items(), (std::vector<std::int64_t>{2}));
}

TEST(HybridQueue, EnqueueDoesNotConflictWithTentativeDequeue) {
  Runtime rt;
  auto q = rt.create_hybrid_queue("q");
  auto setup = rt.begin();
  q->invoke(*setup, fifo::enqueue(1));
  rt.commit(setup);

  auto consumer = rt.begin();
  EXPECT_EQ(q->invoke(*consumer, fifo::dequeue()), Value{1});
  auto producer = rt.begin();
  q->invoke(*producer, fifo::enqueue(9));  // proceeds immediately
  rt.commit(producer);
  rt.commit(consumer);
  EXPECT_EQ(q->committed_items(), (std::vector<std::int64_t>{9}));
}

TEST(HybridQueue, ReadOnlySizeSnapshot) {
  Runtime rt;
  auto q = rt.create_hybrid_queue("q");
  auto t1 = rt.begin();
  q->invoke(*t1, fifo::enqueue(1));
  rt.commit(t1);

  auto reader = rt.begin_read_only();
  auto t2 = rt.begin();
  q->invoke(*t2, fifo::enqueue(2));
  rt.commit(t2);
  // Snapshot below the reader's timestamp: one element.
  EXPECT_EQ(q->invoke(*reader, fifo::size()), Value{1});
  rt.commit(reader);
}

TEST(HybridQueue, UpdateSizeRejected) {
  Runtime rt;
  auto q = rt.create_hybrid_queue("q");
  auto t = rt.begin();
  EXPECT_THROW(q->invoke(*t, fifo::size()), UsageError);
  rt.abort(t);
}

TEST(HybridQueue, ReadOnlyDequeueRejected) {
  Runtime rt;
  auto q = rt.create_hybrid_queue("q");
  auto r = rt.begin_read_only();
  EXPECT_THROW(q->invoke(*r, fifo::dequeue()), UsageError);
  rt.abort(r);
}

TEST(HybridQueue, HistoryHybridAtomic) {
  Runtime rt;
  auto q = rt.create_hybrid_queue("q");
  auto ta = rt.begin();
  auto tb = rt.begin();
  q->invoke(*ta, fifo::enqueue(1));
  q->invoke(*tb, fifo::enqueue(2));
  rt.commit(ta);
  rt.commit(tb);
  auto tc = rt.begin();
  EXPECT_EQ(q->invoke(*tc, fifo::dequeue()), Value{1});
  EXPECT_EQ(q->invoke(*tc, fifo::dequeue()), Value{2});
  rt.commit(tc);

  const History h = rt.history();
  const auto wf = check_well_formed_hybrid(h, h.initiated());
  EXPECT_TRUE(wf.ok()) << wf.summary();
  const auto verdict = check_hybrid_atomic(rt.system(), h);
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

// ---------------------------------------------------------------------------
// Read-only bookkeeping and recovery of the snapshot log

TEST(HybridObject, ReadOnlyBookkeepingDrainsAfterAudits) {
  Runtime rt(Runtime::RecorderMode::kOff);
  auto acct = rt.create_hybrid<BankAccountAdt>("a");
  auto q = rt.create_hybrid_queue("q");
  auto b = rt.create_hybrid_bag("b");
  for (int i = 0; i < 1000; ++i) {
    if (i % 50 == 0) {
      auto t = rt.begin();
      acct->invoke(*t, account::deposit(1));
      q->invoke(*t, fifo::enqueue(i));
      b->invoke(*t, bag::insert(i));
      rt.commit(t);
    }
    auto audit = rt.begin_read_only();
    acct->invoke(*audit, account::balance());
    q->invoke(*audit, fifo::size());
    b->invoke(*audit, bag::size());
    EXPECT_EQ(acct->initiated_count(), 1U);
    if (i % 10 == 0) {
      rt.abort(audit);
    } else {
      rt.commit(audit);
    }
  }
  EXPECT_EQ(acct->initiated_count(), 0U);
  EXPECT_EQ(q->initiated_count(), 0U);
  EXPECT_EQ(b->initiated_count(), 0U);
}

// Balances of every account as one read-only snapshot.
std::vector<std::int64_t> audit_balances(
    Runtime& rt,
    const std::vector<std::shared_ptr<HybridAtomicObject<BankAccountAdt>>>&
        accounts) {
  auto audit = rt.begin_read_only();
  std::vector<std::int64_t> out;
  for (const auto& a : accounts) {
    out.push_back(a->invoke(*audit, account::balance()).as_int());
  }
  rt.commit(audit);
  return out;
}

TEST(HybridObject, SnapshotsSurviveRepeatedRecovery) {
  Runtime rt(Runtime::RecorderMode::kOff);
  std::vector<std::shared_ptr<HybridAtomicObject<BankAccountAdt>>> accounts;
  for (int i = 0; i < 4; ++i) {
    accounts.push_back(
        rt.create_hybrid<BankAccountAdt>("a" + std::to_string(i)));
  }
  auto transfers = [&](int count, int salt) {
    for (int i = 0; i < count; ++i) {
      const auto from = static_cast<std::size_t>((i * 7 + salt) % 4);
      const auto to = (from + 1 + static_cast<std::size_t>(i % 3)) % 4;
      auto t = rt.begin();
      accounts[from]->invoke(*t, account::withdraw(1 + i % 5));
      accounts[to]->invoke(*t, account::deposit(1 + i % 5));
      rt.commit(t);
      // Audits along the way leave cursors and checkpoints mid-log.
      if (i % 25 == 0) audit_balances(rt, accounts);
    }
  };
  {
    auto setup = rt.begin();
    for (const auto& a : accounts) a->invoke(*setup, account::deposit(1000));
    rt.commit(setup);
  }
  transfers(300, 0);
  const auto before = audit_balances(rt, accounts);
  EXPECT_EQ(std::accumulate(before.begin(), before.end(), std::int64_t{0}),
            4000);

  rt.crash();
  rt.recover();
  EXPECT_EQ(audit_balances(rt, accounts), before);

  // Recover again, with more history on top. (snapshot_log_test checks
  // that the reset drops the cursor and checkpoints with the log.)
  transfers(150, 1);
  const auto again = audit_balances(rt, accounts);
  rt.crash();
  rt.recover();
  EXPECT_EQ(audit_balances(rt, accounts), again);
  EXPECT_EQ(std::accumulate(again.begin(), again.end(), std::int64_t{0}),
            4000);
}

}  // namespace
}  // namespace argus

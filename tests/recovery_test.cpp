// Recovery tests: write-ahead intentions logging, crash simulation, and
// all-or-nothing replay across all protocols (recoverability is half of
// atomicity — §1, §3).
#include <gtest/gtest.h>

#include <condition_variable>
#include <mutex>
#include <optional>
#include <thread>

#include "core/runtime.h"
#include "dsched/wait_policy.h"
#include "sched/factory.h"
#include "spec/adts/bank_account.h"
#include "spec/adts/fifo_queue.h"
#include "spec/adts/int_set.h"
#include "test_util.h"

namespace argus {
namespace {

using namespace testutil;

TEST(Recovery, CommittedEffectsSurviveCrash) {
  Runtime rt;
  auto set = rt.create_dynamic<IntSetAdt>("s");
  auto t1 = rt.begin();
  set->invoke(*t1, intset::insert(3));
  rt.commit(t1);
  auto t2 = rt.begin();
  set->invoke(*t2, intset::insert(4));  // active at crash time

  rt.crash();
  EXPECT_TRUE(t2->doomed());
  rt.recover();

  auto t3 = rt.begin();
  EXPECT_EQ(set->invoke(*t3, intset::member(3)), Value{true});
  EXPECT_EQ(set->invoke(*t3, intset::member(4)), Value{false});
  rt.commit(t3);
}

TEST(Recovery, AbortedEffectsNeverReplayed) {
  Runtime rt;
  auto acct = rt.create_dynamic<BankAccountAdt>("a");
  auto t1 = rt.begin();
  acct->invoke(*t1, account::deposit(100));
  rt.commit(t1);
  auto t2 = rt.begin();
  acct->invoke(*t2, account::withdraw(40));
  rt.abort(t2);

  rt.crash();
  rt.recover();
  EXPECT_EQ(acct->committed_state(), 100);
}

TEST(Recovery, MultiObjectAtomicity) {
  // A transfer across two accounts: after crash+recover, either both
  // effects exist or neither.
  Runtime rt;
  auto a1 = rt.create_dynamic<BankAccountAdt>("a1");
  auto a2 = rt.create_dynamic<BankAccountAdt>("a2");
  auto setup = rt.begin();
  a1->invoke(*setup, account::deposit(100));
  rt.commit(setup);

  auto transfer = rt.begin();
  a1->invoke(*transfer, account::withdraw(30));
  a2->invoke(*transfer, account::deposit(30));
  rt.commit(transfer);

  auto in_flight = rt.begin();
  a1->invoke(*in_flight, account::withdraw(50));  // never commits

  rt.crash();
  rt.recover();
  EXPECT_EQ(a1->committed_state(), 70);
  EXPECT_EQ(a2->committed_state(), 30);
}

TEST(Recovery, ReplayPreservesOrderWithinObject) {
  Runtime rt;
  auto q = rt.create_hybrid_queue("q");
  for (int i = 1; i <= 3; ++i) {
    auto t = rt.begin();
    q->invoke(*t, fifo::enqueue(i));
    rt.commit(t);
  }
  auto t = rt.begin();
  EXPECT_EQ(q->invoke(*t, fifo::dequeue()), Value{1});
  rt.commit(t);

  rt.crash();
  rt.recover();
  EXPECT_EQ(q->committed_items(), (std::vector<std::int64_t>{2, 3}));
}

TEST(Recovery, StaticObjectReplaysInTimestampOrder) {
  // Transactions committing out of timestamp order: recovery must
  // rebuild the *timestamp-ordered* log (start_ts in the commit record).
  Runtime rt;
  auto acct = rt.create_static<BankAccountAdt>("a");
  auto t1 = rt.begin();  // smaller ts
  auto t2 = rt.begin();  // larger ts
  acct->invoke(*t1, account::deposit(10));
  rt.commit(t1);
  acct->invoke(*t2, account::withdraw(4));
  rt.commit(t2);

  rt.crash();
  rt.recover();
  ASSERT_TRUE(acct->committed_state().has_value());
  EXPECT_EQ(*acct->committed_state(), 6);
}

TEST(Recovery, CrashDuringBlockedInvocationUnwinds) {
  Runtime rt;
  auto q = rt.create_dynamic<FifoQueueAdt>("q");
  auto consumer = rt.begin();
  auto blocked = std::async(std::launch::async, [&] {
    try {
      q->invoke(*consumer, fifo::dequeue());  // waits forever
      ADD_FAILURE() << "dequeue should have been aborted by crash";
    } catch (const TransactionAborted& e) {
      EXPECT_EQ(e.reason(), AbortReason::kCrash);
      rt.abort(consumer);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  rt.crash();
  blocked.get();
  rt.recover();
}

TEST(Recovery, RepeatedCrashesIdempotent) {
  Runtime rt;
  auto set = rt.create_dynamic<IntSetAdt>("s");
  auto t = rt.begin();
  set->invoke(*t, intset::insert(1));
  rt.commit(t);
  for (int i = 0; i < 3; ++i) {
    rt.crash();
    rt.recover();
  }
  EXPECT_TRUE(set->committed_state().contains(1));
}

TEST(Recovery, LogRecordsCarryResults) {
  Runtime rt;
  auto acct = rt.create_dynamic<BankAccountAdt>("a");
  auto t = rt.begin();
  acct->invoke(*t, account::deposit(7));
  acct->invoke(*t, account::withdraw(99));  // insufficient: result logged
  rt.commit(t);
  const auto records = rt.tm().log().records();
  ASSERT_EQ(records.size(), 1u);
  ASSERT_EQ(records[0].entries.size(), 1u);
  ASSERT_EQ(records[0].entries[0].ops.size(), 2u);
  EXPECT_EQ(records[0].entries[0].ops[1].result, Value{kInsufficientFunds});
}

/// Reports when a committer parks for its apply turn; every wait is
/// otherwise a plain bounded condition-variable round.
class TurnWatchPolicy final : public WaitPolicy {
 public:
  std::uint64_t now_us() override { return 0; }
  void yield(const LaneHint&) override {}
  void wait_round(const LaneHint& hint, const void*,
                  std::unique_lock<std::mutex>& lock,
                  std::condition_variable& cv,
                  std::chrono::microseconds) override {
    if (hint.point == WaitPoint::kClockTurn) {
      const std::scoped_lock watch(mu_);
      turn_waits_ = true;
      watch_cv_.notify_all();
    }
    cv.wait_for(lock, std::chrono::milliseconds(1));
  }
  void notify(const void*) override {}
  void sleep_us(WaitPoint, std::uint64_t us) override {
    std::this_thread::sleep_for(std::chrono::microseconds(us));
  }
  void adopt_daemon(std::string) override {}
  void retire_daemon() override {}

  void await_turn_wait() {
    std::unique_lock watch(mu_);
    watch_cv_.wait(watch, [this] { return turn_waits_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable watch_cv_;
  bool turn_waits_{false};
};

TEST(Recovery, CrashWhileAnObserverWaitsForItsTurnAbortsIt) {
  // An observer-only update commits without a force, so no dropped
  // record can abort it: a crash that fires while it waits behind a
  // forcing commit must still abort it, and leave no commit of it.
  TurnWatchPolicy policy;
  Runtime rt(Runtime::RecorderMode::kFlight, SchedMode::kDeterministic,
             &policy);
  auto a = rt.create_dynamic<BankAccountAdt>("a");
  auto b = rt.create_dynamic<BankAccountAdt>("b");
  auto setup = rt.begin();
  a->invoke(*setup, account::deposit(10));
  b->invoke(*setup, account::deposit(20));
  rt.commit(setup);
  const std::size_t forced = rt.tm().log().size();

  rt.tm().log().hold_flushes();
  std::optional<AbortReason> writer_abort;
  std::optional<AbortReason> observer_abort;
  auto writer = rt.begin();
  a->invoke(*writer, account::deposit(5));
  std::thread writer_thread([&] {
    try {
      rt.commit(writer);
    } catch (const TransactionAborted& e) {
      writer_abort = e.reason();
    }
  });
  while (rt.tm().clock().inflight() == 0) std::this_thread::yield();
  auto observer = rt.begin();
  EXPECT_EQ(b->invoke(*observer, account::balance()), Value{20});
  std::thread observer_thread([&] {
    try {
      rt.commit(observer);
    } catch (const TransactionAborted& e) {
      observer_abort = e.reason();
    }
  });
  policy.await_turn_wait();  // the observer waits behind the writer

  rt.crash();
  rt.tm().log().release_flushes();
  writer_thread.join();
  observer_thread.join();

  ASSERT_TRUE(writer_abort.has_value());
  EXPECT_EQ(*writer_abort, AbortReason::kCrash);
  ASSERT_TRUE(observer_abort.has_value());
  EXPECT_EQ(*observer_abort, AbortReason::kCrash);
  EXPECT_EQ(observer->state(), TxnState::kAborted);
  const History h = rt.history();
  for (const Event& e : h.events()) {
    if (e.activity == observer->id()) {
      EXPECT_NE(e.kind, EventKind::kCommit);
    }
  }
  EXPECT_EQ(rt.tm().pipeline_stats().unforced_commits, 0u);
  EXPECT_EQ(rt.tm().clock().inflight(), 0u);

  rt.recover();
  EXPECT_EQ(rt.tm().log().size(), forced);
  EXPECT_EQ(a->committed_state(), 10);
  EXPECT_EQ(b->committed_state(), 20);
}

class RecoveryAcrossProtocols : public ::testing::TestWithParam<Protocol> {};

TEST_P(RecoveryAcrossProtocols, CommittedBalancePreserved) {
  Runtime rt;
  auto acct = make_object<BankAccountAdt>(rt, GetParam(), "a");
  auto t1 = rt.begin();
  acct->invoke(*t1, account::deposit(50));
  rt.commit(t1);
  auto t2 = rt.begin();
  acct->invoke(*t2, account::withdraw(20));
  rt.commit(t2);
  auto t3 = rt.begin();
  acct->invoke(*t3, account::deposit(5));
  rt.abort(t3);

  rt.crash();
  rt.recover();

  auto check = rt.begin();
  EXPECT_EQ(acct->invoke(*check, account::balance()), Value{30});
  rt.commit(check);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, RecoveryAcrossProtocols,
                         ::testing::Values(Protocol::kDynamic,
                                           Protocol::kStatic,
                                           Protocol::kHybrid,
                                           Protocol::kTwoPhase,
                                           Protocol::kCommutativity,
                                           Protocol::kTimestamp));

}  // namespace
}  // namespace argus

// StaticAtomicObject protocol tests: timestamp-order serialization,
// waiting on tentative smaller timestamps, suffix-invalidation aborts,
// and the §4.2.3 claims (readers never abort; late writers abort).
#include <gtest/gtest.h>

#include "check/atomicity.h"
#include "core/runtime.h"
#include "hist/wellformed.h"
#include "spec/adts/bank_account.h"
#include "spec/adts/int_set.h"
#include "test_util.h"

namespace argus {
namespace {

using namespace testutil;

TEST(StaticObject, SerialUseWorks) {
  Runtime rt;
  auto set = rt.create_static<IntSetAdt>("s");
  auto t1 = rt.begin();
  EXPECT_EQ(set->invoke(*t1, intset::insert(3)), ok());
  rt.commit(t1);
  auto t2 = rt.begin();
  EXPECT_EQ(set->invoke(*t2, intset::member(3)), Value{true});
  rt.commit(t2);
  ASSERT_TRUE(set->committed_state().has_value());
  EXPECT_TRUE(set->committed_state()->contains(3));
}

TEST(StaticObject, HistoryIsStaticWellFormedAndStaticAtomic) {
  Runtime rt;
  auto set = rt.create_static<IntSetAdt>("s");
  auto t1 = rt.begin();
  set->invoke(*t1, intset::insert(3));
  rt.commit(t1);
  auto t2 = rt.begin();
  set->invoke(*t2, intset::member(3));
  rt.commit(t2);

  const History h = rt.history();
  EXPECT_TRUE(check_well_formed_static(h).ok())
      << check_well_formed_static(h).summary();
  const auto verdict = check_static_atomic(rt.system(), h);
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

TEST(StaticObject, ReaderBelowWriterSeesOldVersion) {
  // The multi-version advantage: a reader whose timestamp precedes a
  // later writer's reads the old state instead of aborting. t_old begins
  // (drawing a smaller timestamp) but reads only after t_new commits.
  Runtime rt;
  auto set = rt.create_static<IntSetAdt>("s");
  auto t_old = rt.begin();  // smaller timestamp
  auto t_new = rt.begin();
  set->invoke(*t_new, intset::insert(3));
  rt.commit(t_new);
  // t_old (ts below t_new) must see the set *without* 3.
  EXPECT_EQ(set->invoke(*t_old, intset::member(3)), Value{false});
  rt.commit(t_old);

  const auto verdict = check_static_atomic(rt.system(), rt.history());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

TEST(StaticObject, LateWriterInvalidatingReadAborts) {
  // Reed's abort case, generalized: t_old would insert below t_new's
  // already-executed member(3)=false, changing its result.
  Runtime rt;
  auto set = rt.create_static<IntSetAdt>("s");
  auto t_old = rt.begin();
  auto t_new = rt.begin();
  EXPECT_EQ(set->invoke(*t_new, intset::member(3)), Value{false});
  rt.commit(t_new);
  try {
    set->invoke(*t_old, intset::insert(3));
    FAIL() << "expected timestamp-order abort";
  } catch (const TransactionAborted& e) {
    EXPECT_EQ(e.reason(), AbortReason::kTimestampOrder);
    rt.abort(t_old);
  }
}

TEST(StaticObject, LateWriterNotInvalidatingProceeds) {
  // t_old inserts 4 below t_new's member(3): the suffix result is
  // unaffected, so the insert is admitted below t_new.
  Runtime rt;
  auto set = rt.create_static<IntSetAdt>("s");
  auto t_old = rt.begin();
  auto t_new = rt.begin();
  EXPECT_EQ(set->invoke(*t_new, intset::member(3)), Value{false});
  rt.commit(t_new);
  EXPECT_EQ(set->invoke(*t_old, intset::insert(4)), ok());
  rt.commit(t_old);

  const auto verdict = check_static_atomic(rt.system(), rt.history());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

TEST(StaticObject, OperationWaitsOnTentativeBelow) {
  // t_new's operation must wait while t_old (smaller ts) has a tentative
  // operation, then sees its committed effect.
  Runtime rt;
  auto set = rt.create_static<IntSetAdt>("s");
  auto t_old = rt.begin();
  auto t_new = rt.begin();
  set->invoke(*t_old, intset::insert(3));  // tentative below t_new
  auto blocked = expect_blocks([&] {
    EXPECT_EQ(set->invoke(*t_new, intset::member(3)), Value{true});
    rt.commit(t_new);
  });
  rt.commit(t_old);
  join_within(blocked);
}

TEST(StaticObject, AbortOfTentativeUnblocksWithOldState) {
  Runtime rt;
  auto set = rt.create_static<IntSetAdt>("s");
  auto t_old = rt.begin();
  auto t_new = rt.begin();
  set->invoke(*t_old, intset::insert(3));
  auto blocked = expect_blocks([&] {
    EXPECT_EQ(set->invoke(*t_new, intset::member(3)), Value{false});
    rt.commit(t_new);
  });
  rt.abort(t_old);
  join_within(blocked);
}

TEST(StaticObject, ReadOnlyTransactionsNeverAbort) {
  // §4.2.3: "read-only activities are never forced to abort". Pound the
  // object with interleaved writers and late readers.
  Runtime rt;
  auto acct = rt.create_static<BankAccountAdt>("a");
  auto setup = rt.begin();
  acct->invoke(*setup, account::deposit(100));
  rt.commit(setup);

  for (int round = 0; round < 20; ++round) {
    auto reader = rt.begin_read_only();
    auto writer = rt.begin();
    acct->invoke(*writer, account::deposit(1));
    rt.commit(writer);
    // Reader's timestamp precedes the writer's op; multi-version replay
    // serves the old balance without aborting.
    EXPECT_EQ(acct->invoke(*reader, account::balance()),
              Value{100 + round});
    rt.commit(reader);
  }
  const auto stats = rt.tm().stats();
  EXPECT_EQ(stats.aborted, 0u);
}

TEST(StaticObject, OwnOpsVisibleAtOwnTimestamp) {
  Runtime rt;
  auto acct = rt.create_static<BankAccountAdt>("a");
  auto t = rt.begin();
  acct->invoke(*t, account::deposit(10));
  EXPECT_EQ(acct->invoke(*t, account::balance()), Value{10});
  acct->invoke(*t, account::withdraw(4));
  EXPECT_EQ(acct->invoke(*t, account::balance()), Value{6});
  rt.commit(t);
}

TEST(StaticObject, AbortedOpsRemovedFromLog) {
  Runtime rt;
  auto acct = rt.create_static<BankAccountAdt>("a");
  auto t1 = rt.begin();
  acct->invoke(*t1, account::deposit(10));
  rt.abort(t1);
  auto t2 = rt.begin();
  EXPECT_EQ(acct->invoke(*t2, account::balance()), Value{0});
  rt.commit(t2);
}

TEST(StaticObject, TimestampOrderEqualsSerializationOrder) {
  // Three transactions commit in reverse timestamp order; the final
  // state must reflect timestamp order (deposit before the withdraws).
  Runtime rt;
  auto acct = rt.create_static<BankAccountAdt>("a");
  auto t1 = rt.begin();  // ts1 < ts2 < ts3
  auto t2 = rt.begin();
  auto t3 = rt.begin();
  acct->invoke(*t1, account::deposit(10));
  rt.commit(t1);
  acct->invoke(*t2, account::withdraw(4));
  rt.commit(t2);
  acct->invoke(*t3, account::withdraw(6));
  rt.commit(t3);
  ASSERT_TRUE(acct->committed_state().has_value());
  EXPECT_EQ(*acct->committed_state(), 0);
  const auto verdict = check_static_atomic(rt.system(), rt.history());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

TEST(StaticObject, ReadOnlyTxnRejectsMutator) {
  Runtime rt;
  auto set = rt.create_static<IntSetAdt>("s");
  auto t = rt.begin_read_only();
  EXPECT_THROW(set->invoke(*t, intset::insert(1)), UsageError);
  rt.abort(t);
}

TEST(StaticObject, InitiateRecordedOncePerObject) {
  Runtime rt;
  auto set = rt.create_static<IntSetAdt>("s");
  auto t = rt.begin();
  set->invoke(*t, intset::insert(1));
  set->invoke(*t, intset::insert(2));
  rt.commit(t);
  int initiates = 0;
  const History h = rt.history();
  for (const Event& e : h.events()) {
    if (e.kind == EventKind::kInitiate) ++initiates;
  }
  EXPECT_EQ(initiates, 1);
}

TEST(StaticObject, InitiatedDrainsAtCommitAndAbort) {
  Runtime rt(Runtime::RecorderMode::kOff);
  auto acct = rt.create_static<BankAccountAdt>("a");
  for (int i = 0; i < 1000; ++i) {
    auto t = (i % 2 == 0) ? rt.begin_read_only() : rt.begin();
    acct->invoke(*t, (i % 2 == 0) ? account::balance() : account::deposit(1));
    EXPECT_EQ(acct->initiated_count(), 1U);
    if (i % 10 == 1) {
      rt.abort(t);
    } else {
      rt.commit(t);
    }
  }
  EXPECT_EQ(acct->initiated_count(), 0U);
}

}  // namespace
}  // namespace argus

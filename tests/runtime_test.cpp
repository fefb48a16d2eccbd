// Runtime facade tests: object registry, recorder control, crash dooming,
// and API misuse paths.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/runtime.h"
#include "hist/parse.h"
#include "spec/adts/bank_account.h"
#include "spec/adts/int_set.h"
#include "test_util.h"

namespace argus {
namespace {

TEST(Runtime, ObjectRegistryLookup) {
  Runtime rt;
  auto set = rt.create_dynamic<IntSetAdt>("s");
  EXPECT_EQ(rt.object(set->id()), set);
  EXPECT_EQ(rt.objects().size(), 1u);
  EXPECT_THROW((void)rt.object(ObjectId{999}), UsageError);
}

TEST(Runtime, AdoptRejectsDuplicateIds) {
  Runtime rt;
  auto set = rt.create_dynamic<IntSetAdt>("s");
  EXPECT_THROW(rt.adopt(set, std::make_shared<AdtSpec<IntSetAdt>>()),
               UsageError);
}

TEST(Runtime, SystemSpecMirrorsObjects) {
  Runtime rt;
  auto set = rt.create_dynamic<IntSetAdt>("s");
  auto acct = rt.create_static<BankAccountAdt>("a");
  EXPECT_TRUE(rt.system().has(set->id()));
  EXPECT_TRUE(rt.system().has(acct->id()));
  EXPECT_EQ(rt.system().spec_of(set->id()).type_name(), "int_set");
  EXPECT_EQ(rt.system().spec_of(acct->id()).type_name(), "bank_account");
}

TEST(Runtime, RecordingDisabledYieldsEmptyHistory) {
  Runtime rt(Runtime::RecorderMode::kOff);
  EXPECT_EQ(rt.recorder(), nullptr);
  EXPECT_FALSE(rt.recording());
  EXPECT_EQ(rt.recorder_mode(), Runtime::RecorderMode::kOff);
  EXPECT_EQ(rt.flight_recorder(), nullptr);
  auto set = rt.create_dynamic<IntSetAdt>("s");
  auto t = rt.begin();
  set->invoke(*t, intset::insert(1));
  rt.commit(t);
  // history() is explicitly empty with capture off — no recorder exists,
  // so nothing was ever captured (recording() distinguishes this from a
  // recording runtime that merely has no events yet).
  EXPECT_TRUE(rt.history().empty());
}

TEST(Runtime, RecorderModesSelectSink) {
  Runtime flight(Runtime::RecorderMode::kFlight);
  EXPECT_TRUE(flight.recording());
  EXPECT_NE(flight.recorder(), nullptr);
  EXPECT_NE(flight.flight_recorder(), nullptr);
  EXPECT_EQ(flight.recorder(), flight.flight_recorder());

  auto flight_set = flight.create_dynamic<IntSetAdt>("s");
  auto ft = flight.begin();
  flight_set->invoke(*ft, intset::insert(1));
  flight.commit(ft);
  EXPECT_EQ(flight.history().size(), 3u);

  Runtime off(Runtime::RecorderMode::kOff);
  EXPECT_FALSE(off.recording());
  EXPECT_EQ(off.recorder(), nullptr);
  EXPECT_EQ(off.flight_recorder(), nullptr);
  auto set = off.create_dynamic<IntSetAdt>("s");
  auto t = off.begin();
  set->invoke(*t, intset::insert(1));
  off.commit(t);
  EXPECT_TRUE(off.history().empty());
}

TEST(Runtime, MetricsExposeTxnAndObjectCounters) {
  Runtime rt;
  auto set = rt.create_dynamic<IntSetAdt>("s");
  auto t = rt.begin();
  set->invoke(*t, intset::insert(1));
  rt.commit(t);
  auto t2 = rt.begin();
  set->invoke(*t2, intset::insert(2));
  rt.abort(t2);

  const std::string text = rt.metrics().prometheus_text();
  EXPECT_NE(text.find("argus_txn_begun_total 2"), std::string::npos);
  EXPECT_NE(text.find("argus_txn_committed_total 1"), std::string::npos);
  EXPECT_NE(text.find("argus_txn_aborted_total{reason=\"user\"} 1"),
            std::string::npos) << text;
  EXPECT_NE(text.find("argus_object_invocations_total{object=\"s\"} 2"),
            std::string::npos) << text;
  EXPECT_NE(text.find("argus_recorder_events_total"), std::string::npos);
  EXPECT_NE(rt.metrics().json().find("argus_commit_pipeline_commits_total"),
            std::string::npos);
}

TEST(Runtime, CrashDumpWritesReplayableTail) {
  const std::string path = ::testing::TempDir() + "argus_crash_dump.txt";
  Runtime rt(Runtime::RecorderMode::kFlight,
             FlightRecorderOptions{.shard_capacity = 64});
  rt.set_crash_dump(path, 16);
  auto set = rt.create_dynamic<IntSetAdt>("s");
  auto t = rt.begin();
  set->invoke(*t, intset::insert(1));
  rt.commit(t);
  rt.crash();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const ParseResult parsed = parse_history(buffer.str());
  ASSERT_TRUE(parsed.history.has_value()) << parsed.error;
  EXPECT_EQ(parsed.history->size(), 3u);  // invoke + respond + commit
  std::remove(path.c_str());
}

TEST(Runtime, RecordingEnabledCapturesEverything) {
  Runtime rt;
  auto set = rt.create_dynamic<IntSetAdt>("s");
  auto t = rt.begin();
  set->invoke(*t, intset::insert(1));
  rt.commit(t);
  // invoke + respond + commit.
  EXPECT_EQ(rt.history().size(), 3u);
}

TEST(Runtime, ObjectIdsAreSequentialAndDistinct) {
  Runtime rt;
  auto a = rt.create_dynamic<IntSetAdt>("a");
  auto b = rt.create_static<IntSetAdt>("b");
  auto c = rt.create_hybrid<IntSetAdt>("c");
  EXPECT_NE(a->id(), b->id());
  EXPECT_NE(b->id(), c->id());
  EXPECT_EQ(a->name(), "a");
  EXPECT_EQ(b->name(), "b");
  EXPECT_EQ(c->name(), "c");
}

TEST(Runtime, CrashDoomsOnlyActive) {
  Runtime rt;
  auto set = rt.create_dynamic<IntSetAdt>("s");
  auto done = rt.begin();
  set->invoke(*done, intset::insert(1));
  rt.commit(done);
  auto active = rt.begin();
  set->invoke(*active, intset::insert(2));
  rt.crash();
  EXPECT_TRUE(active->doomed());
  EXPECT_EQ(active->doom_reason(), AbortReason::kCrash);
  EXPECT_EQ(done->state(), TxnState::kCommitted);
  rt.abort(active);
  rt.recover();
  EXPECT_TRUE(set->committed_state().contains(1));
  EXPECT_FALSE(set->committed_state().contains(2));
}

TEST(Runtime, RecoverWithEmptyLogResetsToInitial) {
  Runtime rt;
  auto set = rt.create_dynamic<IntSetAdt>("s");
  rt.recover();  // nothing committed
  EXPECT_TRUE(set->committed_state().empty());
}

TEST(Runtime, WaitTimeoutAllPropagates) {
  Runtime rt;
  auto q = rt.create_dynamic<IntSetAdt>("s");
  rt.set_wait_timeout_all(std::chrono::milliseconds(30));
  // Create a permanent conflict: t2 must time out quickly.
  auto t1 = rt.begin();
  q->invoke(*t1, intset::insert(1));
  auto t2 = rt.begin();
  const auto start = std::chrono::steady_clock::now();
  try {
    q->invoke(*t2, intset::member(1));
    FAIL() << "expected timeout abort";
  } catch (const TransactionAborted& e) {
    EXPECT_EQ(e.reason(), AbortReason::kWaitTimeout);
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::milliseconds(2000));
  rt.abort(t2);
  rt.abort(t1);
}

TEST(Runtime, BeginReadOnlyConvenience) {
  Runtime rt;
  auto t = rt.begin_read_only();
  EXPECT_TRUE(t->read_only());
  rt.abort(t);
}

}  // namespace
}  // namespace argus

// AtomicitySentinel: clean traces and real workloads pass with zero
// violations; an injected non-serializable trace is flagged; the
// checkpointing (bounded-memory) path stays clean.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "check/vc_atomicity.h"
#include "core/dynamic_object.h"
#include "dsched/wait_policy.h"
#include "fault/fault.h"
#include "obs/sentinel.h"
#include "sim/scenarios.h"
#include "sim/workload.h"
#include "spec/adts/bank_account.h"
#include "spec/adts/counter.h"
#include "test_util.h"
#include "txn/clock.h"

namespace argus {
namespace {

using namespace testutil;

SystemSpec one_set() {
  SystemSpec sys;
  sys.add_object(X, "int_set");
  return sys;
}

/// The frontier of a recorder fed by hand: every key is a commit
/// sequence, so the clock's own frontier is exact.
FrontierFn frontier_of(const LamportClock& clock) {
  return [&clock] { return clock.frontier(); };
}

TEST(Sentinel, CleanTracePassesAndCountsActivities) {
  LamportClock clock;
  FlightRecorder rec(clock);
  const auto sys = one_set();
  // b inserts 3 and commits; a then observes it. Canonical order (first
  // commit sequence) is b before a — serializable.
  rec.record(invoke(X, B, op("insert", 3)));
  rec.record(respond(X, B, ok()));
  rec.record(commit(X, B));
  rec.record(invoke(X, A, op("member", 3)));
  rec.record(respond(X, A, Value{true}));
  rec.record(commit(X, A));

  AtomicitySentinel sentinel(rec, sys, frontier_of(clock));
  sentinel.poll();
  EXPECT_EQ(sentinel.violations(), 0u);
  EXPECT_EQ(sentinel.activities_checked(), 2u);
  EXPECT_EQ(sentinel.events_seen(), 6u);
  EXPECT_EQ(sentinel.last_violation(), "");
}

TEST(Sentinel, InjectedNonSerializableTraceIsFlagged) {
  LamportClock clock;
  FlightRecorder rec(clock);
  const auto sys = one_set();
  // b's insert(3) commits *before* a commits, yet a observed
  // member(3)=false — in the canonical order (b, then a) there is no
  // acceptable replay: a genuine atomicity violation.
  rec.record(invoke(X, B, op("insert", 3)));
  rec.record(respond(X, B, ok()));
  rec.record(invoke(X, A, op("member", 3)));
  rec.record(respond(X, A, Value{false}));
  rec.record(commit(X, B));
  rec.record(commit(X, A));

  std::vector<std::string> hook_reports;
  SentinelOptions options;
  options.on_violation = [&hook_reports](const std::string& e) {
    hook_reports.push_back(e);
  };
  AtomicitySentinel sentinel(rec, sys, frontier_of(clock), options);
  sentinel.poll();
  EXPECT_GE(sentinel.violations(), 1u);
  EXPECT_NE(sentinel.last_violation().find("not serializable"),
            std::string::npos);
  ASSERT_EQ(hook_reports.size(), sentinel.violations());
  // The offender is quarantined: further windows do not re-report it.
  sentinel.poll();
  EXPECT_EQ(hook_reports.size(), sentinel.violations());
}

TEST(Sentinel, AbortedActivityEffectsAreExcluded) {
  LamportClock clock;
  FlightRecorder rec(clock);
  const auto sys = one_set();
  // b's insert aborted, so a's member(3)=false is consistent.
  rec.record(invoke(X, B, op("insert", 3)));
  rec.record(respond(X, B, ok()));
  rec.record(abort(X, B));
  rec.record(invoke(X, A, op("member", 3)));
  rec.record(respond(X, A, Value{false}));
  rec.record(commit(X, A));

  AtomicitySentinel sentinel(rec, sys, frontier_of(clock));
  sentinel.poll();
  EXPECT_EQ(sentinel.violations(), 0u);
  EXPECT_EQ(sentinel.activities_checked(), 1u);
}

TEST(Sentinel, WorkloadSweepAcrossProtocolsHasNoViolations) {
  for (const Protocol protocol :
       {Protocol::kDynamic, Protocol::kStatic, Protocol::kHybrid}) {
    Runtime rt;  // flight recording on
    auto bank = BankScenario::create(rt, protocol, 4, 10000);
    SentinelOptions options;
    options.window = std::chrono::milliseconds(2);
    auto& sentinel = rt.start_sentinel(options);

    WorkloadOptions wo;
    wo.threads = 4;
    wo.transactions_per_thread = 50;
    wo.seed = 11;
    WorkloadDriver driver(rt, wo);
    const bool read_only_audit = protocol == Protocol::kHybrid;
    (void)driver.run(
        {bank.transfer_mix(1, 3), bank.audit_mix(read_only_audit, 1)});

    sentinel.stop();  // final flush window runs before stop returns
    EXPECT_EQ(sentinel.violations(), 0u)
        << "protocol " << static_cast<int>(protocol) << ": "
        << sentinel.last_violation();
    EXPECT_GT(sentinel.activities_checked(), 0u);
    EXPECT_NE(rt.metrics().json().find("argus_sentinel_windows_total"),
              std::string::npos);
    rt.stop_sentinel();
  }
}

TEST(Sentinel, CheckpointingPathStaysCleanUnderBoundedMemory) {
  Runtime rt;
  auto bank = BankScenario::create(rt, Protocol::kHybrid, 4, 10000);
  SentinelOptions options;
  options.window = std::chrono::milliseconds(1);
  options.checkpoint_threshold = 64;  // fold aggressively
  auto& sentinel = rt.start_sentinel(options);

  WorkloadOptions wo;
  wo.threads = 2;
  wo.transactions_per_thread = 150;
  wo.seed = 23;
  WorkloadDriver driver(rt, wo);
  (void)driver.run({bank.transfer_mix(1, 3), bank.audit_mix(true, 1)});

  sentinel.stop();
  EXPECT_EQ(sentinel.violations(), 0u) << sentinel.last_violation();
  EXPECT_GT(sentinel.activities_checked(), 0u);
  rt.stop_sentinel();
}

TEST(Sentinel, RequiresFlightMode) {
  Runtime rt(Runtime::RecorderMode::kOff);
  EXPECT_THROW(rt.start_sentinel(), UsageError);
}

TEST(Sentinel, CheckModeSweepOnRealWorkloadStaysClean) {
  for (const CheckMode mode :
       {CheckMode::kExact, CheckMode::kVectorClock, CheckMode::kEscalating}) {
    Runtime rt;
    auto bank = BankScenario::create(rt, Protocol::kHybrid, 4, 10000);
    SentinelOptions options;
    options.window = std::chrono::milliseconds(2);
    options.mode = mode;
    auto& sentinel = rt.start_sentinel(options);
    EXPECT_EQ(sentinel.mode(), mode);

    WorkloadOptions wo;
    wo.threads = 4;
    wo.transactions_per_thread = 50;
    wo.seed = 29;
    WorkloadDriver driver(rt, wo);
    (void)driver.run({bank.transfer_mix(1, 3), bank.audit_mix(true, 1)});

    sentinel.stop();
    EXPECT_EQ(sentinel.violations(), 0u)
        << to_string(mode) << ": " << sentinel.last_violation();
    EXPECT_GT(sentinel.activities_checked(), 0u) << to_string(mode);
    if (mode == CheckMode::kExact) {
      EXPECT_EQ(sentinel.fastpath_windows(), 0u);
      EXPECT_EQ(sentinel.vc_ops(), 0u);
    } else {
      // The commuting transfer/audit mix must keep most windows on the
      // fast path; the new metrics ride the registry like the rest.
      EXPECT_GT(sentinel.fastpath_windows(), 0u) << to_string(mode);
      const std::string json = rt.metrics().json();
      EXPECT_NE(json.find("argus_sentinel_fastpath_windows_total"),
                std::string::npos);
      EXPECT_NE(json.find("argus_sentinel_escalations_total"),
                std::string::npos);
      EXPECT_NE(json.find("argus_sentinel_vc_ops_total"), std::string::npos);
    }
    rt.stop_sentinel();
  }
}

TEST(Sentinel, EscalatingModeFlagsTheInjectedTrace) {
  LamportClock clock;
  FlightRecorder rec(clock);
  const auto sys = one_set();
  rec.record(invoke(X, B, op("insert", 3)));
  rec.record(respond(X, B, ok()));
  rec.record(invoke(X, A, op("member", 3)));
  rec.record(respond(X, A, Value{false}));
  rec.record(commit(X, B));
  rec.record(commit(X, A));

  std::vector<std::string> hook_reports;
  SentinelOptions options;
  options.mode = CheckMode::kEscalating;
  options.on_violation = [&hook_reports](const std::string& e) {
    hook_reports.push_back(e);
  };
  AtomicitySentinel sentinel(rec, sys, frontier_of(clock), options);
  sentinel.poll();
  // The frontier (read before the drain) passes both commits, so they
  // fold in canonical order and the failed fold is a proven violation on
  // the fast path: no escalation, no re-replay.
  EXPECT_GE(sentinel.violations(), 1u);
  EXPECT_EQ(sentinel.escalations(), 0u);
  EXPECT_EQ(sentinel.reseals(), 0u);
  sentinel.finalize();
  EXPECT_GE(sentinel.violations(), 1u);
  EXPECT_NE(sentinel.last_violation().find("not serializable"),
            std::string::npos);
  EXPECT_EQ(hook_reports.size(), sentinel.violations());
}

TEST(Sentinel, EscalatingModeResolvesAnOldStartTimestampThroughAReseal) {
  Runtime rt;
  auto account = rt.create_hybrid<BankAccountAdt>("a");
  SentinelOptions options;
  options.mode = CheckMode::kEscalating;
  options.window = std::chrono::hours(1);  // poll-driven
  auto& sentinel = rt.start_sentinel(options);

  std::vector<Timestamp> stamps;
  for (int i = 0; i < 3; ++i) {
    auto txn = rt.begin();
    account->invoke(*txn, account::deposit(5));
    rt.commit(txn);
    stamps.push_back(txn->commit_ts());
  }
  sentinel.poll();  // the frontier passes all three: they fold in order
  ASSERT_EQ(sentinel.activities_checked(), 3u);
  ASSERT_EQ(sentinel.escalations(), 0u);

  // A caller-chosen start timestamp between the first two deposits: the
  // frontier has already passed it, so the reader's balance() lands in
  // the checker after conflicting deposits folded under larger keys.
  // Only the exact canonical re-replay can judge it.
  auto reader =
      rt.tm().begin_with_timestamp(TxnKind::kReadOnly, stamps[0] + 1);
  ASSERT_LT(reader->start_ts(), stamps[1]);
  EXPECT_EQ(account->invoke(*reader, account::balance()).as_int(), 5);
  rt.commit(reader);
  sentinel.poll();

  EXPECT_GE(sentinel.escalations(), 1u);
  EXPECT_GE(sentinel.reseals(), 1u);
  EXPECT_GE(sentinel.suspicious(), 1u);
  EXPECT_EQ(sentinel.stragglers(), 0u);
  // The exact verdict: serializable in canonical order, as the offline
  // judgement of the recorded history says.
  ASSERT_TRUE(check_canonical_atomic(rt.system(), rt.history()).ok);
  EXPECT_EQ(sentinel.violations(), 0u) << sentinel.last_violation();
  EXPECT_EQ(sentinel.activities_checked(), 4u);
  const std::string json = rt.metrics().json();
  EXPECT_NE(json.find("argus_sentinel_escalations_total"), std::string::npos);
  EXPECT_NE(json.find("argus_sentinel_reseals_total"), std::string::npos);
  rt.stop_sentinel();
}

TEST(Sentinel, LongOpenTransactionHoldsLaterCommitsUntilItEnds) {
  for (const CheckMode mode : {CheckMode::kExact, CheckMode::kEscalating}) {
    Runtime rt;
    auto a = rt.create_hybrid<BankAccountAdt>("a");
    auto b = rt.create_hybrid<BankAccountAdt>("b");
    SentinelOptions options;
    options.mode = mode;
    options.window = std::chrono::hours(1);  // poll-driven
    auto& sentinel = rt.start_sentinel(options);

    // Its start timestamp pins the frontier while it stays open.
    auto open = rt.begin();
    for (int i = 0; i < 3; ++i) {
      auto txn = rt.begin();
      b->invoke(*txn, account::deposit(1));
      rt.commit(txn);
    }
    sentinel.poll();
    EXPECT_EQ(sentinel.held_commits(), 3u) << to_string(mode);
    EXPECT_EQ(sentinel.activities_checked(), 0u) << to_string(mode);
    EXPECT_NE(rt.metrics().json().find("argus_sentinel_held_commits"),
              std::string::npos);

    a->invoke(*open, account::deposit(1));
    rt.commit(open);
    sentinel.poll();
    EXPECT_EQ(sentinel.held_commits(), 0u) << to_string(mode);
    EXPECT_EQ(sentinel.activities_checked(), 4u) << to_string(mode);
    EXPECT_EQ(sentinel.violations(), 0u) << sentinel.last_violation();
    EXPECT_EQ(sentinel.reseals(), 0u) << to_string(mode);
    rt.stop_sentinel();
  }
}

TEST(Sentinel, VectorClockModeQuarantinesWithoutClaimingViolation) {
  LamportClock clock;
  FlightRecorder rec(clock);
  const auto sys = one_set();
  rec.record(invoke(X, B, op("insert", 3)));
  rec.record(respond(X, B, ok()));
  rec.record(invoke(X, A, op("member", 3)));
  rec.record(respond(X, A, Value{false}));
  rec.record(commit(X, B));
  rec.record(commit(X, A));

  SentinelOptions options;
  options.mode = CheckMode::kVectorClock;
  AtomicitySentinel sentinel(rec, sys, frontier_of(clock), options);
  sentinel.poll();
  sentinel.finalize();
  // Monitoring-only: the suspect is quarantined and surfaced as
  // suspicious, but no violation is claimed without exact replay.
  EXPECT_EQ(sentinel.violations(), 0u) << sentinel.last_violation();
  EXPECT_GE(sentinel.suspicious(), 1u);
  EXPECT_EQ(sentinel.escalations(), 0u);
}

TEST(Sentinel, CleanTracePassesInVectorClockModes) {
  for (const CheckMode mode :
       {CheckMode::kVectorClock, CheckMode::kEscalating}) {
    LamportClock clock;
    FlightRecorder rec(clock);
    const auto sys = one_set();
    rec.record(invoke(X, B, op("insert", 3)));
    rec.record(respond(X, B, ok()));
    rec.record(commit(X, B));
    rec.record(invoke(X, A, op("member", 3)));
    rec.record(respond(X, A, Value{true}));
    rec.record(commit(X, A));

    SentinelOptions options;
    options.mode = mode;
    AtomicitySentinel sentinel(rec, sys, frontier_of(clock), options);
    sentinel.poll();
    sentinel.finalize();
    EXPECT_EQ(sentinel.violations(), 0u) << to_string(mode);
    EXPECT_EQ(sentinel.suspicious(), 0u) << to_string(mode);
    EXPECT_EQ(sentinel.activities_checked(), 2u) << to_string(mode);
  }
}

std::shared_ptr<DynamicAtomicObject<CounterAdt>> chaos_counter(
    Runtime& rt, const std::string& name) {
  auto obj = std::make_shared<DynamicAtomicObject<CounterAdt>>(
      rt.allocate_object_id(), name, rt.tm(), rt.recorder(),
      AdmissionMode::kChaosAdmitAll);
  rt.adopt(obj, std::make_shared<AdtSpec<CounterAdt>>());
  return obj;
}

TEST(Sentinel, ChaosAdmissionViolationIsCaughtDeterministically) {
  // The adversarial injection path: kChaosAdmitAll admits every
  // operation without validation, so nothing blocks and one thread can
  // interleave two transactions by hand. Each transaction's view is the
  // committed state plus its own intentions only, so both increments
  // return 1 — and no serial order allows two increments to both return
  // 1. A genuinely non-atomic history, every run.
  Runtime rt;  // flight recording on
  auto counter = chaos_counter(rt, "c0");
  SentinelOptions options;
  options.mode = CheckMode::kEscalating;
  auto& sentinel = rt.start_sentinel(options);

  auto t1 = rt.begin();
  auto t2 = rt.begin();
  EXPECT_EQ(counter->invoke(*t1, counter::increment()).as_int(), 1);
  EXPECT_EQ(counter->invoke(*t2, counter::increment()).as_int(), 1);
  rt.commit(t2);
  rt.commit(t1);

  sentinel.stop();
  ASSERT_FALSE(check_canonical_atomic(rt.system(), rt.history()).ok);
  EXPECT_GE(sentinel.violations(), 1u);
  EXPECT_NE(sentinel.last_violation(), "");
  rt.stop_sentinel();

  // The monitoring-only mode must flag the same history — as suspicion,
  // never as a certified PASS.
  const VcReport vc =
      check_vc_atomic(rt.system(), rt.history(), {.escalate = false});
  EXPECT_NE(vc.verdict, VcVerdict::kPass);
}

TEST(Sentinel, ChaosWorkloadSweepAgreesWithOfflineJudgement) {
  // Concurrent chaos traffic: whatever histories the races produce, the
  // online escalating sentinel must agree with the offline exact
  // judgement of the recorded history (the deterministic test above
  // guarantees the violating side is exercised; here the interleaving —
  // and hence the verdict — is the scheduler's choice).
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Runtime rt;
    std::vector<std::shared_ptr<ManagedObject>> counters;
    counters.push_back(chaos_counter(rt, "c0"));
    counters.push_back(chaos_counter(rt, "c1"));
    SentinelOptions options;
    options.window = std::chrono::milliseconds(1);
    options.mode = CheckMode::kEscalating;
    auto& sentinel = rt.start_sentinel(options);

    WorkloadOptions wo;
    wo.threads = 4;
    wo.transactions_per_thread = 50;
    wo.seed = seed;
    WorkloadDriver driver(rt, wo);
    // Two increments per transaction: the window between the first
    // invocation and the commit is where unvalidated interleavings slip
    // in (a single-invoke transaction commits too fast to race).
    (void)driver.run({MixItem{
        "increment", TxnKind::kUpdate, 1,
        [&](Transaction& txn, SplitMix64& rng) {
          const std::size_t first = rng.below(counters.size());
          counters[first]->invoke(txn, counter::increment());
          counters[1 - first]->invoke(txn, counter::increment());
        }}});
    sentinel.stop();

    const CheckResult exact = check_canonical_atomic(rt.system(), rt.history());
    // A straggler (a shard stalling for two full windows) is quarantined
    // rather than judged, so the online verdict can legitimately diverge
    // from the offline one; only straggler-free runs are compared.
    if (sentinel.stragglers() == 0) {
      if (exact.ok) {
        EXPECT_EQ(sentinel.violations(), 0u) << "seed " << seed << ": "
                                             << sentinel.last_violation();
      } else {
        EXPECT_GE(sentinel.violations(), 1u)
            << "seed " << seed
            << ": offline check rejects but the sentinel stayed quiet: "
            << exact.explanation;
      }
    }
    rt.stop_sentinel();
  }
}

TEST(Sentinel, OptionsAreAdjustableWhileRunning) {
  Runtime rt;
  auto bank = BankScenario::create(rt, Protocol::kHybrid, 4, 10000);
  SentinelOptions options;
  options.mode = CheckMode::kEscalating;
  options.window = std::chrono::milliseconds(2);
  options.checkpoint_threshold = 128;

  auto& sentinel = rt.start_sentinel(options);
  EXPECT_EQ(sentinel.mode(), CheckMode::kEscalating);

  WorkloadOptions wo;
  wo.threads = 2;
  wo.transactions_per_thread = 40;
  wo.seed = 31;
  WorkloadDriver driver(rt, wo);
  (void)driver.run({bank.transfer_mix(1, 3), bank.audit_mix(true, 1)});

  // Both knobs are adjustable while the sentinel runs.
  sentinel.set_window(std::chrono::milliseconds(5));
  sentinel.set_checkpoint_threshold(64);
  (void)driver.run({bank.transfer_mix(1, 3)});

  sentinel.stop();
  EXPECT_EQ(sentinel.violations(), 0u) << sentinel.last_violation();
  EXPECT_GT(sentinel.activities_checked(), 0u);
  rt.stop_sentinel();
}

TEST(Sentinel, EscalatingBoundedMemoryPathStaysClean) {
  Runtime rt;
  auto bank = BankScenario::create(rt, Protocol::kHybrid, 4, 10000);
  SentinelOptions options;
  options.window = std::chrono::milliseconds(1);
  options.checkpoint_threshold = 64;  // seal aggressively
  options.mode = CheckMode::kEscalating;
  auto& sentinel = rt.start_sentinel(options);

  WorkloadOptions wo;
  wo.threads = 2;
  wo.transactions_per_thread = 150;
  wo.seed = 37;
  WorkloadDriver driver(rt, wo);
  (void)driver.run({bank.transfer_mix(1, 3), bank.audit_mix(true, 1)});

  sentinel.stop();
  EXPECT_EQ(sentinel.violations(), 0u) << sentinel.last_violation();
  EXPECT_GT(sentinel.activities_checked(), 0u);
  rt.stop_sentinel();
}

TEST(Sentinel, InFlightCommitIsHeldBackUntilTheNextPoll) {
  Runtime rt;
  auto account = rt.create_hybrid<BankAccountAdt>("a");
  SentinelOptions options;
  options.mode = CheckMode::kEscalating;
  options.window = std::chrono::hours(1);  // poll-driven
  auto& sentinel = rt.start_sentinel(options);

  // The pinned crash point after apply but before the watermark moves is
  // where a commit's events are recorded while its timestamp is still in
  // flight; the hook polls there instead of crashing.
  FaultPlan plan;
  plan.crash_point = FaultSite::kPostApplyPreWatermark;
  plan.crash_at_arrival = 1;
  auto injector = std::make_shared<FaultInjector>(plan);
  rt.set_fault_injector(injector);
  Timestamp frontier_in_flight = 0;
  std::uint64_t checked_in_flight = 0;
  injector->set_crash_hook([&] {
    frontier_in_flight = rt.tm().serialization_frontier();
    sentinel.poll();
    checked_in_flight = sentinel.activities_checked();
  });

  auto txn = rt.begin();
  account->invoke(*txn, account::deposit(5));
  rt.commit(txn);
  rt.set_fault_injector(nullptr);

  EXPECT_LE(frontier_in_flight, txn->commit_ts());
  EXPECT_EQ(checked_in_flight, 0u) << "an in-flight commit was folded";
  sentinel.poll();
  EXPECT_EQ(sentinel.activities_checked(), 1u);
  EXPECT_EQ(sentinel.violations(), 0u) << sentinel.last_violation();
  EXPECT_EQ(sentinel.stragglers(), 0u);
  EXPECT_EQ(sentinel.reseals(), 0u);
  rt.stop_sentinel();
}

TEST(Sentinel, PollDrivenHybridRunSealsCleanWithoutStragglers) {
  Runtime rt;
  auto bank = BankScenario::create(rt, Protocol::kHybrid, 4, 10000);
  SentinelOptions options;
  options.mode = CheckMode::kEscalating;
  options.window = std::chrono::hours(1);  // poll-driven
  options.checkpoint_threshold = 64;       // seal often
  auto& sentinel = rt.start_sentinel(options);

  std::atomic<bool> done{false};
  std::thread workers([&] {
    WorkloadOptions wo;
    wo.threads = 2;
    wo.transactions_per_thread = 300;
    wo.seed = 41;
    WorkloadDriver driver(rt, wo);
    (void)driver.run({bank.transfer_mix(1, 3)});
    done.store(true);
  });
  while (!done.load()) {
    sentinel.poll();
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  workers.join();
  sentinel.stop();

  EXPECT_EQ(sentinel.violations(), 0u) << sentinel.last_violation();
  EXPECT_EQ(sentinel.stragglers(), 0u);
  EXPECT_EQ(sentinel.reseals(), 0u);
  EXPECT_EQ(sentinel.escalations(), 0u);
  EXPECT_GT(sentinel.clean_seals(), 0u);
  EXPECT_EQ(sentinel.activities_checked(), rt.tm().stats().committed);
  const std::string json = rt.metrics().json();
  EXPECT_NE(json.find("argus_sentinel_clean_seals_total"), std::string::npos);
  EXPECT_NE(json.find("argus_sentinel_reseals_total"), std::string::npos);
  rt.stop_sentinel();
}

/// Parks read-only coverage waits until the test releases them; every
/// other wait behaves like a plain condition-variable round.
class ParkingPolicy final : public WaitPolicy {
 public:
  std::uint64_t now_us() override { return 0; }
  void yield(const LaneHint&) override {}
  void wait_round(const LaneHint& hint, const void*,
                  std::unique_lock<std::mutex>& lock,
                  std::condition_variable& cv,
                  std::chrono::microseconds timeout) override {
    if (hint.point != WaitPoint::kClockCovered) {
      cv.wait_for(lock, timeout);
      return;
    }
    lock.unlock();
    {
      std::unique_lock park(mu_);
      parked_ = true;
      park_cv_.notify_all();
      park_cv_.wait(park, [this] { return released_; });
    }
    lock.lock();
  }
  void notify(const void*) override {}
  void sleep_us(WaitPoint, std::uint64_t us) override {
    std::this_thread::sleep_for(std::chrono::microseconds(us));
  }
  void adopt_daemon(std::string) override {}
  void retire_daemon() override {}

  void await_parked() {
    std::unique_lock park(mu_);
    park_cv_.wait(park, [this] { return parked_; });
  }
  void release() {
    const std::scoped_lock park(mu_);
    released_ = true;
    park_cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable park_cv_;
  bool parked_{false};
  bool released_{false};
};

TEST(Sentinel, ReadOnlyBeginHoldsTheFrontierAtItsTimestamp) {
  TransactionManager tm;
  ParkingPolicy policy;
  tm.set_wait_policy(&policy);

  // An in-flight commit makes the read-only begin wait for coverage
  // after it has drawn its timestamp.
  const Timestamp blocker = tm.clock().begin_commit();
  std::shared_ptr<Transaction> reader;
  std::thread begin([&] { reader = tm.begin(TxnKind::kReadOnly); });
  policy.await_parked();
  const Timestamp drawn = tm.clock().now();
  ASSERT_GT(drawn, blocker);
  tm.clock().finish_commit(blocker);
  // Nothing is in flight and the reader is not yet active, but its
  // timestamp is drawn: it will serialize there once it initiates.
  EXPECT_LE(tm.serialization_frontier(), drawn);

  policy.release();
  begin.join();
  ASSERT_EQ(reader->start_ts(), drawn);
  // Active, nothing recorded yet: the frontier still may not pass it.
  (void)tm.clock().next();
  EXPECT_LE(tm.serialization_frontier(), drawn);
  tm.commit_read_only(reader);
  EXPECT_GT(tm.serialization_frontier(), drawn);
  tm.set_wait_policy(nullptr);
}

TEST(Sentinel, RingModeRuntimeCertifiesEveryActivityAfterWrapping) {
  Runtime rt(Runtime::RecorderMode::kFlight,
             FlightRecorderOptions{.shard_capacity = 64});
  auto from = rt.create_hybrid<BankAccountAdt>("from");
  auto to = rt.create_hybrid<BankAccountAdt>("to");
  SentinelOptions options;
  options.mode = CheckMode::kEscalating;
  options.window = std::chrono::hours(1);  // poll-driven
  options.checkpoint_threshold = 32;
  auto& sentinel = rt.start_sentinel(options);

  {
    auto seed = rt.begin();
    from->invoke(*seed, account::deposit(1000));
    rt.commit(seed);
  }
  for (int i = 0; i < 200; ++i) {
    auto txn = rt.begin();
    from->invoke(*txn, account::withdraw(1));
    to->invoke(*txn, account::deposit(1));
    rt.commit(txn);
    // Six events a transfer: polling every fifth keeps the drain inside
    // the 64-event ring while the ring itself wraps many times.
    if (i % 5 == 4) sentinel.poll();
  }
  sentinel.stop();

  EXPECT_GT(rt.flight_recorder()->dropped(), 0u) << "the ring never wrapped";
  EXPECT_EQ(sentinel.violations(), 0u) << sentinel.last_violation();
  EXPECT_EQ(sentinel.stragglers(), 0u);
  EXPECT_EQ(sentinel.activities_checked(), rt.tm().stats().committed);
  EXPECT_EQ(rt.tm().stats().committed, 201u);
  rt.stop_sentinel();
}

}  // namespace
}  // namespace argus

// Deterministic scheduler tier (satellite of the interleaving explorer):
//
//   * the scheduler itself — same source, same schedule, byte-equal lane
//     orders; lane exceptions collected; all-blocked runs terminate;
//   * schedule strings — round-trip, error cases, replay semantics;
//   * the explorer — same (seed, schedule) replays to an identical
//     flight-recorder trace; exhaustive DFS on the 2-txn/1-object
//     dynamic-atomicity case visits every non-pruned interleaving and
//     certifies all of them; sleep sets prune commuting steps on
//     disjoint objects; the seeded chaos-admission regression is caught
//     and auto-minimized to a replayable schedule string;
//   * SchedMode::kOs stays the default and carries no policy;
//   * a crash while an unforced (observer-only) commit waits for its
//     apply turn aborts it;
//   * executor workers as lanes: deadlock victims back off in virtual
//     time, every task commits within a few attempts, runs replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/scope_guard.h"
#include "core/runtime.h"
#include "dsched/task_lane.h"
#include "sched/executor.h"
#include "sched/factory.h"
#include "sim/sched_explore.h"
#include "spec/adts/bank_account.h"
#include "test_util.h"

namespace argus {
namespace {

// ---------------------------------------------------------------------------
// Schedule strings

TEST(ScheduleString, RoundTripsSmallLaneIds) {
  const std::vector<std::uint32_t> choices{0, 1, 2, 35, 7, 0};
  const std::string text = to_schedule_string(choices);
  EXPECT_EQ(text.substr(0, 3), "s1:");
  std::vector<std::uint32_t> back;
  std::string error;
  ASSERT_TRUE(parse_schedule_string(text, &back, &error)) << error;
  EXPECT_EQ(back, choices);
}

TEST(ScheduleString, RoundTripsLargeLaneIds) {
  const std::vector<std::uint32_t> choices{0, 36, 1, 999};
  const std::string text = to_schedule_string(choices);
  EXPECT_EQ(text.substr(0, 3), "s2:");
  std::vector<std::uint32_t> back;
  std::string error;
  ASSERT_TRUE(parse_schedule_string(text, &back, &error)) << error;
  EXPECT_EQ(back, choices);
}

TEST(ScheduleString, EmptyRoundTrips) {
  const std::string text = to_schedule_string({});
  std::vector<std::uint32_t> back{1, 2, 3};
  std::string error;
  ASSERT_TRUE(parse_schedule_string(text, &back, &error)) << error;
  EXPECT_TRUE(back.empty());
  // The empty string is also accepted (an absent schedule).
  ASSERT_TRUE(parse_schedule_string("", &back, &error)) << error;
  EXPECT_TRUE(back.empty());
}

TEST(ScheduleString, RejectsMalformedInput) {
  std::vector<std::uint32_t> out;
  std::string error;
  EXPECT_FALSE(parse_schedule_string("x9:012", &out, &error));
  EXPECT_FALSE(parse_schedule_string("s1:01!", &out, &error));
  EXPECT_FALSE(parse_schedule_string("s2:1,,2", &out, &error));
  EXPECT_FALSE(parse_schedule_string("s2:1,2,", &out, &error));
  EXPECT_FALSE(parse_schedule_string("s2:abc", &out, &error));
}

// ---------------------------------------------------------------------------
// The scheduler itself (no runtime)

std::pair<std::vector<int>, std::string> run_counter_lanes(
    std::uint64_t seed) {
  RandomScheduleSource source(seed);
  source.begin_run();
  DeterministicScheduler sched(source);
  std::vector<int> order;
  std::mutex mu;
  for (int i = 0; i < 3; ++i) {
    sched.spawn("w" + std::to_string(i), [&sched, &order, &mu, i] {
      for (int k = 0; k < 4; ++k) {
        {
          const std::scoped_lock lock(mu);
          order.push_back(i);
        }
        sched.yield(LaneHint{WaitPoint::kTxnBegin});
      }
    });
  }
  sched.run();
  return {order, sched.schedule_string()};
}

TEST(DeterministicScheduler, SameSeedSameOrder) {
  const auto a = run_counter_lanes(11);
  const auto b = run_counter_lanes(11);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  EXPECT_EQ(a.first.size(), 12u);  // 3 lanes x 4 increments, none lost
}

TEST(DeterministicScheduler, DifferentSeedsDiverge) {
  // Not guaranteed for any one pair, but across a few seeds at least one
  // must differ — otherwise the source is ignored.
  const auto base = run_counter_lanes(1);
  bool diverged = false;
  for (std::uint64_t seed = 2; seed <= 6 && !diverged; ++seed) {
    diverged = run_counter_lanes(seed).first != base.first;
  }
  EXPECT_TRUE(diverged);
}

TEST(DeterministicScheduler, ReplaySourcePinsTheOrder) {
  const auto recorded = run_counter_lanes(11);
  std::vector<std::uint32_t> choices;
  std::string error;
  ASSERT_TRUE(parse_schedule_string(recorded.second, &choices, &error));

  ReplayScheduleSource source(choices);
  source.begin_run();
  DeterministicScheduler sched(source);
  std::vector<int> order;
  std::mutex mu;
  for (int i = 0; i < 3; ++i) {
    sched.spawn("w" + std::to_string(i), [&sched, &order, &mu, i] {
      for (int k = 0; k < 4; ++k) {
        {
          const std::scoped_lock lock(mu);
          order.push_back(i);
        }
        sched.yield(LaneHint{WaitPoint::kTxnBegin});
      }
    });
  }
  sched.run();
  EXPECT_EQ(order, recorded.first);
  EXPECT_FALSE(source.diverged());
}

TEST(DeterministicScheduler, LaneExceptionsAreCollected) {
  RandomScheduleSource source(1);
  source.begin_run();
  DeterministicScheduler sched(source);
  sched.spawn("boom", [] { throw std::runtime_error("lane exploded"); });
  sched.run();
  ASSERT_EQ(sched.lane_errors().size(), 1u);
  EXPECT_NE(sched.lane_errors()[0].find("lane exploded"), std::string::npos);
}

TEST(DeterministicScheduler, AllLanesBlockedForeverStillTerminates) {
  RandomScheduleSource source(1);
  source.begin_run();
  DeterministicScheduler sched(source);
  std::mutex mu;
  std::condition_variable cv;
  sched.spawn("stuck", [&] {
    std::unique_lock lock(mu);
    // No deadline, nobody will notify: a deadlock from the scheduler's
    // point of view. run() must detect it and return (the lane is then
    // released into free-running mode and unwinds).
    sched.wait_round(LaneHint{WaitPoint::kObjectWait}, &cv, lock, cv,
                     std::chrono::microseconds(-1));
  });
  sched.run();  // must not hang
  SUCCEED();
}

TEST(DeterministicScheduler, VirtualTimeAdvancesTimeouts) {
  RandomScheduleSource source(1);
  source.begin_run();
  DeterministicScheduler sched(source);
  std::uint64_t woke_at = 0;
  sched.spawn("sleeper", [&] {
    sched.sleep_us(WaitPoint::kLogSleep, 500);
    woke_at = sched.now_us();
  });
  sched.run();
  // The sleeping lane can only resume after virtual time passed its
  // deadline — and virtual time only moves with schedule decisions.
  EXPECT_GE(woke_at, 500u);
  EXPECT_LT(woke_at, 10'000u);  // discrete-event jump, not busy stepping
}

// ---------------------------------------------------------------------------
// Runtime modes

TEST(SchedMode, OsIsTheDefaultAndCarriesNoPolicy) {
  Runtime rt(Runtime::RecorderMode::kFlight);
  EXPECT_EQ(rt.sched_mode(), SchedMode::kOs);
  EXPECT_EQ(rt.wait_policy(), nullptr);
}

TEST(SchedMode, DeterministicRequiresAPolicy) {
  EXPECT_THROW(Runtime(Runtime::RecorderMode::kFlight,
                       SchedMode::kDeterministic, nullptr),
               UsageError);
}

// ---------------------------------------------------------------------------
// The unforced commit's crash window under the cooperative scheduler

TEST(DschedCrash, ObserverWaitingForItsTurnAbortsWithTheCrash) {
  // Lane "writer" forces a deposit into a held flush; lane "observer"
  // commits an observer-only update behind it (no force of its own) and
  // waits for its apply turn; lane "crasher" crashes the node once both
  // are in flight and the observer has had time to reach the turn wait.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RandomScheduleSource source(seed);
    source.begin_run();
    DeterministicScheduler sched(source);
    Runtime rt(Runtime::RecorderMode::kFlight, SchedMode::kDeterministic,
               &sched);
    const auto release_guard = on_scope_exit([&] { sched.release(); });
    auto a = rt.create_dynamic<BankAccountAdt>("a");
    auto b = rt.create_dynamic<BankAccountAdt>("b");
    {
      auto setup = rt.begin();
      a->invoke(*setup, account::deposit(10));
      b->invoke(*setup, account::deposit(20));
      rt.commit(setup);
    }
    rt.tm().log().hold_flushes();

    std::optional<AbortReason> writer_abort;
    std::optional<AbortReason> observer_abort;
    ActivityId observer_id{};
    const auto in_flight = [&](std::size_t n) {
      while (rt.tm().clock().inflight() < n) {
        sched.yield(LaneHint{WaitPoint::kTxnBegin});
      }
    };
    sched.spawn("writer", [&] {
      auto t = rt.begin();
      a->invoke(*t, account::deposit(5));
      try {
        rt.commit(t);
      } catch (const TransactionAborted& e) {
        writer_abort = e.reason();
      }
    });
    sched.spawn("observer", [&] {
      in_flight(1);
      auto t = rt.begin();
      observer_id = t->id();
      b->invoke(*t, account::balance());
      try {
        rt.commit(t);
      } catch (const TransactionAborted& e) {
        observer_abort = e.reason();
      }
    });
    sched.spawn("crasher", [&] {
      in_flight(2);
      for (int i = 0; i < 32; ++i) sched.yield(LaneHint{WaitPoint::kTxnBegin});
      rt.crash();
      rt.tm().log().release_flushes();
    });
    sched.run();
    ASSERT_FALSE(sched.overflowed());
    EXPECT_TRUE(sched.lane_errors().empty());

    ASSERT_TRUE(writer_abort.has_value());
    EXPECT_EQ(*writer_abort, AbortReason::kCrash);
    ASSERT_TRUE(observer_abort.has_value());
    EXPECT_EQ(*observer_abort, AbortReason::kCrash);
    const History h = rt.history();
    for (const Event& e : h.events()) {
      if (e.activity == observer_id) {
        EXPECT_NE(e.kind, EventKind::kCommit);
      }
    }
    rt.recover();
    EXPECT_EQ(rt.tm().log().size(), 1u);
    EXPECT_EQ(a->committed_state(), 10);
    EXPECT_EQ(b->committed_state(), 20);
  }
}

// ---------------------------------------------------------------------------
// Lock-mode retries under the cooperative scheduler: executor workers are
// lanes, deadlock victims back off in virtual time, and every task
// commits within a few attempts.

struct ExecutorRun {
  std::string schedule;
  std::uint64_t tasks{0};
  std::uint64_t committed{0};
  std::uint64_t max_attempts{0};
  std::uint64_t deadlocks{0};
  std::string metrics;
};

ExecutorRun run_audits_beside_transfers(std::uint64_t seed) {
  RandomScheduleSource source(seed);
  source.begin_run();
  DeterministicScheduler sched(source);
  Runtime rt(Runtime::RecorderMode::kOff, SchedMode::kDeterministic, &sched);
  const auto release_guard = on_scope_exit([&] { sched.release(); });
  auto a = make_object<BankAccountAdt>(rt, Protocol::kTwoPhase, "a");
  auto b = make_object<BankAccountAdt>(rt, Protocol::kTwoPhase, "b");
  {
    auto setup = rt.begin();
    a->invoke(*setup, account::deposit(10));
    b->invoke(*setup, account::deposit(10));
    rt.commit(setup);
  }
  rt.set_wait_timeout_all(std::chrono::milliseconds(50));

  ExecutorRun out;
  std::mutex out_mu;
  ExecutorOptions options;
  options.workers = 2;
  options.thread_factory = [&sched](const std::string& name,
                                    std::function<void()> body) {
    sched.spawn(name, std::move(body));
  };
  TxnExecutor pool(rt, options, [&](const TxnExecutor::Outcome& o) {
    const std::scoped_lock lock(out_mu);
    ++out.tasks;
    if (o.committed) ++out.committed;
    out.max_attempts = std::max(out.max_attempts, o.attempts);
  });
  // Audits read a then b; transfers write b then a: opposite orders, so
  // the two lanes deadlock whenever they interleave inside a pair.
  sched.spawn("submitter", [&] {
    for (std::uint64_t i = 0; i < 6; ++i) {
      pool.submit({"audit", TxnKind::kUpdate,
                   [&](Transaction& t, SplitMix64&) {
                     a->invoke(t, account::balance());
                     b->invoke(t, account::balance());
                   },
                   2 * i});
      pool.submit({"transfer", TxnKind::kUpdate,
                   [&](Transaction& t, SplitMix64&) {
                     if (b->invoke(t, account::withdraw(1)).is_unit()) {
                       a->invoke(t, account::deposit(1));
                     }
                   },
                   2 * i + 1});
    }
    pool.shutdown();
  });
  sched.run();
  EXPECT_FALSE(sched.overflowed());
  EXPECT_TRUE(sched.lane_errors().empty());
  out.schedule = sched.schedule_string();
  out.deadlocks = rt.tm().detector().deadlocks_resolved();
  out.metrics = rt.metrics().prometheus_text();
  return out;
}

TEST(DschedExecutor, DeadlockRetriesCommitWithinBoundedAttempts) {
  std::uint64_t deadlocks = 0;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const ExecutorRun run = run_audits_beside_transfers(seed);
    EXPECT_EQ(run.tasks, 12u);
    EXPECT_EQ(run.committed, 12u);
    // A retry keeps its first attempt's age, so a task loses only to
    // older tasks, and with two workers there is at most one of those
    // running at a time.
    EXPECT_LE(run.max_attempts, 3u);
    EXPECT_NE(run.metrics.find("argus_executor_attempts{le=\"+Inf\"} 12"),
              std::string::npos);
    if (run.max_attempts == 1) {
      EXPECT_NE(run.metrics.find("argus_executor_attempts{le=\"1\"} 12"),
                std::string::npos);
    }
    deadlocks += run.deadlocks;
  }
  EXPECT_GT(deadlocks, 0u) << "no seed interleaved a deadlock";
}

TEST(DschedExecutor, BackoffIsVirtualTimeSoRunsReplay) {
  const ExecutorRun first = run_audits_beside_transfers(5);
  const ExecutorRun second = run_audits_beside_transfers(5);
  EXPECT_EQ(first.schedule, second.schedule);
  EXPECT_EQ(first.deadlocks, second.deadlocks);
}

// ---------------------------------------------------------------------------
// Explorer cases: replay determinism

TEST(SchedCase, ConfigStringRoundTrips) {
  SchedCase c;
  c.kind = ScheduleKind::kPct;
  c.plan.seed = 12345;
  c.pct_change_points = 5;
  c.protocol = Protocol::kHybrid;
  c.adt = "queue";
  c.objects = 3;
  c.lanes = 4;
  c.txns_per_lane = 1;
  c.initial_balance = 7;
  c.live_sentinel = false;
  c.weaken_admission = true;
  c.plan.force_fail_permille = 120;
  c.plan.crash_point = FaultSite::kMidApply;
  c.plan.crash_at_arrival = 3;
  c.schedule = "s1:0120";

  SchedCase back;
  std::string error;
  ASSERT_TRUE(parse_case(to_config_string(c), &back, &error)) << error;
  EXPECT_EQ(back, c);
}

TEST(SchedCase, ParseRejectsGarbage) {
  SchedCase out;
  std::string error;
  EXPECT_FALSE(parse_case("kind sideways\n", &out, &error));
  EXPECT_FALSE(parse_case("adt heap\n", &out, &error));
  EXPECT_FALSE(parse_case("lanes 0\n", &out, &error));
  EXPECT_FALSE(parse_case("schedule s9:01\n", &out, &error));
  EXPECT_FALSE(parse_case("seed 1 2\n", &out, &error));
  EXPECT_FALSE(parse_case("no_such_key 1\n", &out, &error));
  // A pinned crash at a site the pipeline never reaches could not fire.
  EXPECT_FALSE(
      parse_case("crash_point coord-pre-prepare\n", &out, &error));
  EXPECT_NE(error.find("unknown crash point"), std::string::npos);
  // Whole tokens only, no sign, and within the field's width.
  EXPECT_FALSE(parse_case("objects -1\n", &out, &error));
  EXPECT_NE(error.find("not a number"), std::string::npos);
  EXPECT_FALSE(parse_case("seed 12abc\n", &out, &error));
  EXPECT_FALSE(parse_case("txns_per_lane 1e3\n", &out, &error));
  EXPECT_FALSE(
      parse_case("pct_change_points 4294967297\n", &out, &error));
  EXPECT_NE(error.find("out of range"), std::string::npos);
  EXPECT_FALSE(parse_case("live_sentinel 2\n", &out, &error));
  // Comments and blank lines are fine.
  EXPECT_TRUE(parse_case("# note\n\nseed 9\n", &out, &error)) << error;
  EXPECT_EQ(out.plan.seed, 9u);
}

TEST(SchedExplore, SameSeedReplaysByteForByte) {
  SchedCase c;
  c.kind = ScheduleKind::kRandom;
  c.plan.seed = 42;
  const SchedCaseResult first = testutil::expect_replays_byte_equal(c);
  EXPECT_TRUE(first.ok) << first.failure;
  EXPECT_FALSE(first.trace.empty());
  EXPECT_FALSE(first.schedule.empty());
}

/// Runs a random-source case, then replays its recorded schedule string:
/// the replay must certify and pin the same interleaving.
void expect_recorded_schedule_replays(Protocol protocol, std::uint64_t seed) {
  SchedCase c;
  c.kind = ScheduleKind::kRandom;
  c.plan.seed = seed;
  c.protocol = protocol;
  const SchedCaseResult recorded = run_case(c);
  EXPECT_TRUE(recorded.ok) << recorded.failure;
  ASSERT_FALSE(recorded.schedule.empty());

  SchedCase replay = c;
  replay.kind = ScheduleKind::kReplay;
  replay.schedule = recorded.schedule;
  const SchedCaseResult replayed = run_case(replay);
  EXPECT_TRUE(replayed.ok) << replayed.failure;
  EXPECT_EQ(replayed.trace, recorded.trace)
      << "replaying the recorded schedule string must pin the interleaving";
  EXPECT_EQ(replayed.schedule, recorded.schedule);
}

TEST(SchedExplore, RecordedScheduleReplaysByteForByte) {
  expect_recorded_schedule_replays(Protocol::kDynamic, 43);
}

TEST(SchedExplore, OccReplaysByteForByte) {
  // The optimistic path under the cooperative scheduler: serial
  // validation takes the commit turn before the log force, and the
  // executor-queue handoff routes through the WaitPolicy — the whole run
  // must still replay from its recorded schedule.
  expect_recorded_schedule_replays(Protocol::kOcc, 44);
}

TEST(SchedExplore, MvccReplaysByteForByte) {
  expect_recorded_schedule_replays(Protocol::kMvcc, 45);
}

TEST(DfsExplore, OccExhaustsTheTwoTxnOneObjectCase) {
  // Exhaustive DFS over the optimistic protocol: every non-pruned
  // interleaving of two transactions on one account — including every
  // placement of the validate-at-turn step — must certify hybrid atomic.
  SchedCase base;
  base.adt = "bank";
  base.protocol = Protocol::kOcc;
  base.objects = 1;
  base.lanes = 2;
  base.txns_per_lane = 1;
  base.plan.seed = 3;
  const DfsExploreResult dfs = run_dfs_explore(base, /*max_runs=*/4096);
  EXPECT_TRUE(dfs.exhausted)
      << "the 2-txn/1-object tree must fit the run budget";
  EXPECT_EQ(dfs.certified, dfs.runs)
      << (dfs.failures.empty() ? "" : dfs.failures.front().failure);
  EXPECT_TRUE(dfs.failures.empty());
}

TEST(SchedExplore, PctIsDeterministicToo) {
  SchedCase c;
  c.kind = ScheduleKind::kPct;
  c.plan.seed = 7;
  c.pct_change_points = 3;
  const SchedCaseResult first = testutil::expect_replays_byte_equal(c);
  EXPECT_TRUE(first.ok) << first.failure;
}

TEST(SchedExplore, FaultsAndScheduleShareOneSeed) {
  // A case with faults enabled replays byte-for-byte from its seed too:
  // the injector's decisions are part of the same decision stream.
  SchedCase c;
  c.kind = ScheduleKind::kRandom;
  c.plan.seed = 77;
  c.plan.force_fail_permille = 200;
  c.plan.force_max_retries = 2;
  c.plan.torn_batch_permille = 200;
  const SchedCaseResult first = testutil::expect_replays_byte_equal(c);
  EXPECT_TRUE(first.ok) << first.failure;
}

// ---------------------------------------------------------------------------
// Exhaustive DFS

TEST(DfsExplore, ExhaustsTheTwoTxnOneObjectDynamicCase) {
  SchedCase base;
  base.adt = "bank";
  base.protocol = Protocol::kDynamic;
  base.objects = 1;
  base.lanes = 2;
  base.txns_per_lane = 1;
  base.plan.seed = 3;
  const DfsExploreResult dfs = run_dfs_explore(base, /*max_runs=*/4096);
  EXPECT_TRUE(dfs.exhausted)
      << "the 2-txn/1-object tree must fit the run budget";
  EXPECT_GT(dfs.runs, 50u) << "suspiciously few interleavings explored";
  EXPECT_EQ(dfs.certified, dfs.runs)
      << (dfs.failures.empty() ? "" : dfs.failures.front().failure);
  EXPECT_TRUE(dfs.failures.empty());
}

TEST(DfsExplore, SleepSetsPruneCommutingStepsOnDisjointObjects) {
  SchedCase base;
  base.adt = "bank";
  base.protocol = Protocol::kDynamic;
  base.objects = 2;
  base.lanes = 2;
  base.txns_per_lane = 1;
  base.plan.seed = 5;
  const DfsExploreResult dfs = run_dfs_explore(base, /*max_runs=*/4096);
  EXPECT_TRUE(dfs.exhausted);
  EXPECT_EQ(dfs.certified, dfs.runs)
      << (dfs.failures.empty() ? "" : dfs.failures.front().failure);
  EXPECT_GT(dfs.pruned_branches, 0u)
      << "invocations on disjoint objects commute; sleep sets must prune "
         "at least one equivalent branch";
}

TEST(DfsExplore, QueueFamilyExhaustsToo) {
  SchedCase base;
  base.adt = "queue";
  base.protocol = Protocol::kDynamic;
  base.objects = 1;
  base.lanes = 2;
  base.txns_per_lane = 1;
  base.plan.seed = 3;
  const DfsExploreResult dfs = run_dfs_explore(base, /*max_runs=*/4096);
  EXPECT_TRUE(dfs.exhausted);
  EXPECT_GT(dfs.runs, 10u);
  EXPECT_EQ(dfs.certified, dfs.runs)
      << (dfs.failures.empty() ? "" : dfs.failures.front().failure);
}

// ---------------------------------------------------------------------------
// The seeded regression: chaos admission must be caught and minimized

TEST(SchedExplore, WeakenedAdmissionIsCaughtAndMinimized) {
  SchedExploreOptions options;
  options.seeds_per_cell = 4;
  options.weaken_admission = true;
  const auto summary =
      run_sweep<SchedExploreSummary>(enumerate_sched_cases(options));
  ASSERT_GT(summary.cases, 0u);
  ASSERT_FALSE(summary.failures.empty())
      << "admit-everything must produce atomicity violations somewhere in "
      << summary.cases << " cases";

  // A failure minimizes to a replayable schedule that still reproduces
  // it — the contract a corpus entry is promoted under.
  const SweepFailure<SchedCase>& f = summary.failures.front();
  const SchedCase minimized =
      minimize(f.config, f.result,
               [](const SchedCase& probe) { return !run_case(probe).ok; });
  EXPECT_EQ(minimized.kind, ScheduleKind::kReplay);
  const SchedCaseResult again = run_case(minimized);
  EXPECT_FALSE(again.ok)
      << "minimized schedule no longer reproduces the violation";
  // Minimization never grows the schedule.
  EXPECT_LE(minimized.schedule.size(), f.result.schedule.size() + 3);
}

TEST(DfsExplore, WeakenedAdmissionFailsUnderExhaustiveSearch) {
  // DFS over the smallest broken configuration that can actually corrupt
  // state: admit-everything over TWO accounts with two transferring
  // lanes. Two objects matter — on a single account each transfer is
  // net-zero (the deposit refunds the withdraw), so every recorded
  // result replays in any commit order and chaos admission is
  // unobservable. With a cross-account transfer, two withdraws admitted
  // from stale views overdraw the source account and recovery replay
  // diverges. The tree contains that interleaving by construction, so
  // DFS must find it without any seed luck.
  SchedCase base;
  base.adt = "bank";
  base.protocol = Protocol::kDynamic;
  base.objects = 2;
  base.lanes = 2;
  base.txns_per_lane = 1;
  base.initial_balance = 3;
  base.weaken_admission = true;
  base.plan.seed = 3;
  const DfsExploreResult dfs = run_dfs_explore(base, /*max_runs=*/4096);
  EXPECT_TRUE(dfs.exhausted) << "tree did not fit in the run budget";
  EXPECT_FALSE(dfs.failures.empty())
      << "exhaustive search over a broken protocol found no violation in "
      << dfs.runs << " runs";
  // Every failure DFS reports must carry a replayable schedule string.
  for (const auto& f : dfs.failures) {
    EXPECT_FALSE(f.schedule.empty());
  }
}

}  // namespace
}  // namespace argus

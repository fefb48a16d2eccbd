#include "sim/sched_explore.h"

#include <memory>
#include <optional>

#include "common/rng.h"
#include "common/scope_guard.h"
#include "core/dynamic_object.h"
#include "core/runtime.h"
#include "dsched/task_lane.h"
#include "fault/plan_config.h"
#include "sim/certifier.h"
#include "spec/adts/bank_account.h"
#include "spec/adts/fifo_queue.h"

namespace argus {

namespace {

std::optional<ScheduleKind> kind_from_string(const std::string& name) {
  for (ScheduleKind k : {ScheduleKind::kRandom, ScheduleKind::kPct,
                         ScheduleKind::kDfs, ScheduleKind::kReplay}) {
    if (to_string(k) == name) return k;
  }
  return std::nullopt;
}

/// Runs one lane's txns_per_lane transactions, stopping once the pinned
/// crash fires. Each lane's decision stream derives from the case seed,
/// so the whole workload is a pure function of (case, schedule).
template <typename Body>
void run_lane(Runtime& rt, const SchedCase& c, const FaultInjector& injector,
              int lane, Body body) {
  SplitMix64 rng(c.plan.seed * 0x9e3779b97f4a7c15ULL + 101ULL +
                 static_cast<std::uint64_t>(lane));
  for (int i = 0; i < c.txns_per_lane; ++i) {
    if (injector.crashes_fired() > 0) break;
    auto t = rt.begin();
    try {
      body(*t, rng, i);
      rt.commit(t);
    } catch (const TransactionAborted&) {
      rt.abort(t);
    }
  }
}

/// One lane's bank workload: transfers that read back the debited
/// account inside the same transaction. The balance read is the
/// regression tripwire — a chaos-admitted stale view records a balance
/// that cannot replay in canonical commit order, which is exactly what
/// the dynamic-atomicity checker rejects.
void bank_lane(Runtime& rt, const SchedCase& c,
               const std::vector<std::shared_ptr<ManagedObject>>& objects,
               const FaultInjector& injector, int lane) {
  const std::size_t n = objects.size();
  run_lane(rt, c, injector, lane, [&](Transaction& t, SplitMix64& rng, int) {
    const std::size_t from = rng.below(n);
    const std::size_t to = n > 1 ? (from + 1 + rng.below(n - 1)) % n : from;
    const std::int64_t amount = rng.range(1, 3);
    const Value got = objects[from]->invoke(t, account::withdraw(amount));
    if (got.is_unit()) objects[to]->invoke(t, account::deposit(amount));
    objects[from]->invoke(t, account::balance());
  });
}

/// One lane's queue workload: enqueue a lane-unique value, sometimes
/// dequeue (always enabled: the own enqueue is already in this
/// transaction's view).
void queue_lane(Runtime& rt, const SchedCase& c,
                const std::vector<std::shared_ptr<ManagedObject>>& objects,
                const FaultInjector& injector, int lane) {
  const std::size_t n = objects.size();
  run_lane(rt, c, injector, lane, [&](Transaction& t, SplitMix64& rng, int i) {
    const std::size_t at = rng.below(n);
    objects[at]->invoke(
        t, fifo::enqueue(static_cast<std::int64_t>(lane) * 1000 + i));
    if (rng.chance(1, 2)) objects[at]->invoke(t, fifo::dequeue());
  });
}

/// Runs one case under an externally owned schedule source (external so
/// run_dfs_explore can drive many runs through one DFS source).
SchedCaseResult run_with_source(const SchedCase& c, ScheduleSource& source) {
  SchedCaseResult result;
  Certifier cert;

  source.begin_run();
  DschedOptions sched_options;
  sched_options.max_steps = 200'000;
  DeterministicScheduler sched(source, sched_options);
  Runtime rt(Runtime::RecorderMode::kFlight, SchedMode::kDeterministic,
             &sched);
  // Whatever unwinds below, the scheduler must be released before the
  // Runtime (and its sentinel thread) is torn down, or teardown would
  // wait on lanes that are never scheduled again.
  const auto release_guard = on_scope_exit([&] { sched.release(); });

  const bool bank = c.weaken_admission || c.adt != "queue";
  std::vector<std::shared_ptr<ManagedObject>> objects;
  objects.reserve(static_cast<std::size_t>(c.objects));
  for (int i = 0; i < c.objects; ++i) {
    const std::string name = "x" + std::to_string(i);
    if (c.weaken_admission) {
      // The seeded regression: a dynamic object that admits everything.
      auto obj = std::make_shared<DynamicAtomicObject<BankAccountAdt>>(
          rt.allocate_object_id(), name, rt.tm(), rt.recorder(),
          AdmissionMode::kChaosAdmitAll);
      rt.adopt(obj, std::make_shared<AdtSpec<BankAccountAdt>>());
      objects.push_back(std::move(obj));
    } else if (bank) {
      objects.push_back(make_object<BankAccountAdt>(rt, c.protocol, name));
    } else {
      objects.push_back(make_object<FifoQueueAdt>(rt, c.protocol, name));
    }
  }
  // 50ms of *virtual* time: generous against real blocking, but advanced
  // only by schedule decisions, so timeouts replay byte-for-byte.
  rt.set_wait_timeout_all(std::chrono::milliseconds(50));

  // Setup runs on the control thread (a pass-through, not a lane) before
  // any lane exists, so it is trivially deterministic.
  if (bank) {
    auto setup = rt.begin();
    for (auto& o : objects) {
      o->invoke(*setup, account::deposit(c.initial_balance));
    }
    rt.commit(setup);
  }

  // One seed drives schedule and faults alike.
  auto injector = std::make_shared<FaultInjector>(c.plan);
  rt.set_fault_injector(injector);

  if (c.live_sentinel) {
    SentinelOptions sentinel_options;
    sentinel_options.window = std::chrono::milliseconds(1);
    rt.start_sentinel(sentinel_options);
    // The sentinel daemon must be lane 0 in every run, or lane ids — and
    // with them every schedule string — would depend on OS thread
    // startup timing.
    sched.await_lanes(1);
  }

  const std::size_t daemon_lanes = sched.lane_count();
  for (int lane = 0; lane < c.lanes; ++lane) {
    sched.spawn("lane" + std::to_string(lane), [&rt, &c, &objects, injector,
                                                bank, lane] {
      if (bank) {
        bank_lane(rt, c, objects, *injector, lane);
      } else {
        queue_lane(rt, c, objects, *injector, lane);
      }
    });
  }
  sched.await_lanes(daemon_lanes + static_cast<std::size_t>(c.lanes));
  sched.run();

  result.schedule = sched.schedule_string();
  result.steps = sched.steps();
  result.overflowed = sched.overflowed();
  result.crashed_mid_run = injector->crashes_fired() > 0;
  cert.check(!result.overflowed,
             "scheduler: run exceeded max_steps (not certifiable)");
  for (const std::string& e : sched.lane_errors()) {
    cert.check(false, "lane error: " + e);
  }

  // Whole-node failure then recovery, exactly like the fault sweep, so
  // every explored interleaving also exercises crash -> recover.
  if (!result.crashed_mid_run) rt.crash();
  rt.set_fault_injector(nullptr);  // recovery and verification fault-free
  bool recovered = false;
  try {
    rt.recover();
    recovered = true;
  } catch (const std::exception& e) {
    // A log that does not replay is itself a certification failure (the
    // expected symptom of chaos admission: recorded results that no
    // serial order reproduces).
    cert.check(false, std::string("recovery: ") + e.what());
  }

  // Probe: conservation (meaningless under chaos admission, where lost
  // and duplicated money is the expected symptom).
  if (recovered && bank && !c.weaken_admission) {
    auto check = rt.begin();
    std::int64_t total = 0;
    for (auto& o : objects) {
      total += o->invoke(*check, account::balance()).as_int();
    }
    rt.commit(check);
    const std::int64_t expected =
        static_cast<std::int64_t>(c.objects) * c.initial_balance;
    cert.check(total == expected,
               "conservation: recovered total " + std::to_string(total) +
                   " != " + std::to_string(expected));
  }

  // The stable log, the formal checkers over the full recorded history
  // (this workload has no read-only activities), then the live sentinel.
  cert.check_log(rt);
  const History h = rt.history();
  cert.check_history(c.weaken_admission ? Protocol::kDynamic : c.protocol,
                     rt.system(), h, {});
  result.sentinel_violations = cert.check_sentinel(rt);

  const TxnStats stats = rt.tm().stats();
  result.committed = stats.committed;
  result.aborted = stats.aborted;
  result.faults_injected = injector->faults_injected();
  result.trace = h.to_string() + injector->trace_to_string();
  result.ok = cert.ok();
  result.failure = cert.failure();
  return result;
}

}  // namespace

std::string to_string(ScheduleKind kind) {
  switch (kind) {
    case ScheduleKind::kRandom:
      return "random";
    case ScheduleKind::kPct:
      return "pct";
    case ScheduleKind::kDfs:
      return "dfs";
    case ScheduleKind::kReplay:
      return "replay";
  }
  return "unknown";
}

std::string to_config_string(const SchedCase& c) {
  std::string out = "# dsched case (replay: corpus_test --minimize <file>)\n";
  out += "kind " + to_string(c.kind) + "\n";
  out += "pct_change_points " + std::to_string(c.pct_change_points) + "\n";
  out += "protocol " + to_string(c.protocol) + "\n";
  out += "adt " + c.adt + "\n";
  out += "objects " + std::to_string(c.objects) + "\n";
  out += "lanes " + std::to_string(c.lanes) + "\n";
  out += "txns_per_lane " + std::to_string(c.txns_per_lane) + "\n";
  out += "initial_balance " + std::to_string(c.initial_balance) + "\n";
  out += "live_sentinel " + std::to_string(c.live_sentinel ? 1 : 0) + "\n";
  out += "weaken_admission " + std::to_string(c.weaken_admission ? 1 : 0) +
         "\n";
  out += to_config_lines(c.plan, PlanKeys::kSingleSite);
  if (!c.schedule.empty()) out += "schedule " + c.schedule + "\n";
  return out;
}

bool parse_case(const std::string& text, SchedCase* out, std::string* error) {
  SchedCase c;
  const bool ok = parse_config_lines(
      text,
      [&](const std::string& key, const std::string& value) -> std::string {
        if (key == "kind") {
          const auto k = kind_from_string(value);
          if (!k) return "unknown schedule kind: " + value;
          c.kind = *k;
          return {};
        }
        if (key == "protocol") {
          const auto p = protocol_from_string(value);
          if (!p) return "unknown protocol: " + value;
          c.protocol = *p;
          return {};
        }
        if (key == "adt") {
          if (value != "bank" && value != "queue") {
            return "unknown adt: " + value;
          }
          c.adt = value;
          return {};
        }
        if (key == "schedule") {
          std::vector<std::uint32_t> choices;
          std::string sched_error;
          if (!parse_schedule_string(value, &choices, &sched_error)) {
            return "bad schedule: " + sched_error;
          }
          c.schedule = value;
          return {};
        }
        if (key == "pct_change_points") {
          return parse_config_number(value, &c.pct_change_points);
        }
        if (key == "objects") return parse_config_number(value, &c.objects, 1);
        if (key == "lanes") return parse_config_number(value, &c.lanes, 1);
        if (key == "txns_per_lane") {
          return parse_config_number(value, &c.txns_per_lane);
        }
        if (key == "initial_balance") {
          return parse_config_number(value, &c.initial_balance);
        }
        if (key == "live_sentinel") {
          return parse_config_number(value, &c.live_sentinel);
        }
        if (key == "weaken_admission") {
          return parse_config_number(value, &c.weaken_admission);
        }
        return parse_plan_entry(key, value, PlanKeys::kSingleSite, &c.plan);
      },
      error);
  if (ok) *out = c;
  return ok;
}

SchedCaseResult run_case(const SchedCase& c) {
  switch (c.kind) {
    case ScheduleKind::kRandom: {
      RandomScheduleSource source(c.plan.seed);
      return run_with_source(c, source);
    }
    case ScheduleKind::kPct: {
      PctScheduleSource source(c.plan.seed, c.pct_change_points);
      return run_with_source(c, source);
    }
    case ScheduleKind::kDfs: {
      // The leftmost DFS path only; run_dfs_explore walks the tree.
      DfsScheduleSource source;
      return run_with_source(c, source);
    }
    case ScheduleKind::kReplay: {
      std::vector<std::uint32_t> choices;
      std::string error;
      if (!parse_schedule_string(c.schedule, &choices, &error)) {
        SchedCaseResult bad;
        bad.failure = "bad schedule string: " + error;
        return bad;
      }
      ReplayScheduleSource source(std::move(choices));
      return run_with_source(c, source);
    }
  }
  SchedCaseResult bad;
  bad.failure = "unknown schedule kind";
  return bad;
}

DfsIndependence sched_independence(const std::string& adt) {
  const bool bank = adt != "queue";
  return [bank](const DfsStep& a, const DfsStep& b) {
    if (a.lane == b.lane) return false;  // program order is never reordered
    if (a.hint.point != WaitPoint::kObjectInvoke ||
        b.hint.point != WaitPoint::kObjectInvoke) {
      return false;  // only invocation steps carry a commutativity fact
    }
    if (!a.hint.has_object || !b.hint.has_object || !a.hint.has_op ||
        !b.hint.has_op) {
      return false;
    }
    if (!(a.hint.object == b.hint.object)) return true;
    return bank ? BankAccountAdt::static_commutes(a.hint.op, b.hint.op)
                : FifoQueueAdt::static_commutes(a.hint.op, b.hint.op);
  };
}

DfsExploreResult run_dfs_explore(const SchedCase& base,
                                 std::uint64_t max_runs,
                                 std::size_t max_depth) {
  SchedCase c = base;
  c.kind = ScheduleKind::kDfs;
  // The sentinel daemon would both inflate the branching factor and make
  // the ready sets depend on drain timing; DFS runs without it (offline
  // checkers still certify every path).
  c.live_sentinel = false;

  DfsOptions options;
  options.max_runs = max_runs;
  options.max_depth = max_depth;
  options.independent = sched_independence(c.weaken_admission ? "bank"
                                                              : c.adt);
  DfsScheduleSource source(std::move(options));

  DfsExploreResult out;
  do {
    const SchedCaseResult result = run_with_source(c, source);
    ++out.runs;
    if (result.ok) {
      ++out.certified;
    } else {
      out.failures.push_back({result.schedule, result.failure});
    }
  } while (source.next_run());
  out.pruned_branches = source.pruned_branches();
  out.exhausted = source.exhausted();
  return out;
}

std::vector<SchedCase> enumerate_sched_cases(
    const SchedExploreOptions& options) {
  struct Family {
    const char* adt;
    Protocol protocol;
  };
  const Family families[] = {
      {"bank", Protocol::kDynamic},
      {"bank", Protocol::kHybrid},
      {"bank", Protocol::kTwoPhase},
      {"bank", Protocol::kOcc},
      {"bank", Protocol::kMvcc},
      {"queue", Protocol::kDynamic},
  };

  // Fault mixes (seed set per case): clean, wait-path chaos, log-path
  // chaos, pinned mid-apply crash.
  const FaultPlan mixes[] = {
      {},
      {.spurious_timeout_permille = 60,
       .delayed_wakeup_permille = 100,
       .delayed_wakeup_us = 50},
      {.force_fail_permille = 200,
       .force_max_retries = 2,
       .force_retry_backoff_us = 10,
       .torn_batch_permille = 200},
      {.crash_point = FaultSite::kMidApply, .crash_at_arrival = 2},
  };

  std::vector<SchedCase> out;
  for (ScheduleKind kind : {ScheduleKind::kRandom, ScheduleKind::kPct}) {
    for (const Family& family : families) {
      if (options.weaken_admission &&
          (family.protocol != Protocol::kDynamic ||
           std::string(family.adt) == "queue")) {
        continue;  // the chaos-admission knob only exists on dynamic bank
      }
      for (const FaultPlan& mix : mixes) {
        for (std::uint64_t s = 1; s <= options.seeds_per_cell; ++s) {
          SchedCase c;
          c.kind = kind;
          c.protocol = family.protocol;
          c.adt = family.adt;
          c.objects = options.objects;
          c.lanes = options.lanes;
          c.txns_per_lane = options.txns_per_lane;
          c.initial_balance = options.initial_balance;
          c.weaken_admission = options.weaken_admission;
          c.plan = mix;
          // The seed identifies the whole cell, so no two cells share a
          // decision stream (schedule or faults).
          c.plan.seed =
              s * 1000003ULL + static_cast<std::uint64_t>(kind) * 7919ULL +
              static_cast<std::uint64_t>(&family - families) * 101ULL +
              static_cast<std::uint64_t>(&mix - mixes) * 13ULL +
              static_cast<std::uint64_t>(family.protocol);
          out.push_back(std::move(c));
        }
      }
    }
  }
  return out;
}

SchedCase minimize(const SchedCase& failing, const SchedCaseResult& failed_run,
                   const std::function<bool(const SchedCase&)>& still_fails) {
  std::vector<std::uint32_t> choices;
  std::string error;
  if (!parse_schedule_string(failed_run.schedule, &choices, &error)) {
    return failing;  // unparseable recording: nothing to minimize
  }

  SchedCase probe = failing;
  probe.kind = ScheduleKind::kReplay;
  const auto replay_prefix = [&](std::uint64_t len) {
    probe.schedule = to_schedule_string(std::vector<std::uint32_t>(
        choices.begin(), choices.begin() + static_cast<std::ptrdiff_t>(len)));
  };
  // The full recording reproduces the failure by construction; a prefix
  // of length 0 is "the default schedule".
  replay_prefix(smallest_failing(0, choices.size(), [&](std::uint64_t len) {
    replay_prefix(len);
    return still_fails(probe);
  }));
  return probe;
}

}  // namespace argus

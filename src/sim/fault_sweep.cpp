#include "sim/fault_sweep.h"

#include <memory>
#include <unordered_set>

#include "common/rng.h"
#include "core/runtime.h"
#include "fault/plan_config.h"
#include "sim/certifier.h"
#include "spec/adts/bank_account.h"

namespace argus {

std::string to_config_string(const FaultSweepCase& c) {
  return "# fault-sweep case (replay: examples/fault_replay <file>)\n"
         "protocol " + to_string(c.protocol) +
         "\naccounts " + std::to_string(c.accounts) +
         "\ntransactions " + std::to_string(c.transactions) +
         "\ninitial_balance " + std::to_string(c.initial_balance) + "\n" +
         to_config_lines(c.plan, PlanKeys::kSingleSite);
}

bool parse_case(const std::string& text, FaultSweepCase* out,
                std::string* error) {
  FaultSweepCase c;
  const bool ok = parse_config_lines(
      text,
      [&c](const std::string& key, const std::string& value) -> std::string {
        if (key == "protocol") {
          const auto p = protocol_from_string(value);
          if (!p) return "unknown protocol: " + value;
          c.protocol = *p;
          return {};
        }
        if (key == "accounts") {
          return parse_config_number(value, &c.accounts, 1);
        }
        if (key == "transactions") {
          return parse_config_number(value, &c.transactions);
        }
        if (key == "initial_balance") {
          return parse_config_number(value, &c.initial_balance);
        }
        return parse_plan_entry(key, value, PlanKeys::kSingleSite, &c.plan);
      },
      error);
  if (ok) *out = c;
  return ok;
}

FaultCaseResult run_case(const FaultSweepCase& c) {
  FaultCaseResult result;
  Certifier cert;

  Runtime rt(Runtime::RecorderMode::kFlight);
  std::vector<std::shared_ptr<ManagedObject>> accounts;
  accounts.reserve(static_cast<std::size_t>(c.accounts));
  for (int i = 0; i < c.accounts; ++i) {
    accounts.push_back(make_object<BankAccountAdt>(
        rt, c.protocol, "a" + std::to_string(i)));
  }
  rt.set_wait_timeout_all(std::chrono::milliseconds(200));
  SentinelOptions sentinel_options;
  sentinel_options.window = std::chrono::milliseconds(2);
  rt.start_sentinel(sentinel_options);

  // Seed the bank before faults are live: the conservation probe needs a
  // known starting total, and the paper's fault model starts from a
  // quiescent committed state anyway.
  {
    auto setup = rt.begin();
    for (auto& a : accounts) {
      a->invoke(*setup, account::deposit(c.initial_balance));
    }
    rt.commit(setup);
  }

  auto injector = std::make_shared<FaultInjector>(c.plan);
  rt.set_fault_injector(injector);

  // Deterministic single-threaded workload: transfers plus (under
  // snapshot protocols) read-only audits. Stop early if the pinned crash
  // fires — the node is "down" from that point.
  std::unordered_set<ActivityId> read_only;
  SplitMix64 rng(c.plan.seed * 0x9e3779b97f4a7c15ULL + 1);
  for (int i = 0; i < c.transactions; ++i) {
    if (injector->crashes_fired() > 0) break;
    const bool audit =
        supports_snapshot_reads(c.protocol) && rng.chance(1, 4);
    auto t = audit ? rt.begin_read_only() : rt.begin();
    if (audit) read_only.insert(t->id());
    try {
      if (audit) {
        for (auto& a : accounts) a->invoke(*t, account::balance());
      } else {
        const std::size_t n = accounts.size();
        const std::size_t from = rng.below(n);
        const std::size_t to =
            n > 1 ? (from + 1 + rng.below(n - 1)) % n : from;
        const std::int64_t amount = rng.range(1, 5);
        const Value got = accounts[from]->invoke(*t, account::withdraw(amount));
        if (got.is_unit()) {
          accounts[to]->invoke(*t, account::deposit(amount));
        }
      }
      rt.commit(t);
    } catch (const TransactionAborted&) {
      rt.abort(t);
    }
  }
  result.crashed_mid_run = injector->crashes_fired() > 0;

  // Whole-node failure, then recovery. If the pinned crash already fired
  // mid-workload the node is down; otherwise fail it now so every case
  // exercises crash -> recover.
  if (!result.crashed_mid_run) rt.crash();
  rt.set_fault_injector(nullptr);  // recovery and verification run fault-free
  rt.recover();

  // Probe: conservation. Transfers move money or do nothing, so any
  // recovered total other than the seeded one means a partial commit
  // survived (or a committed one was lost).
  {
    auto check = rt.begin();
    std::int64_t total = 0;
    for (auto& a : accounts) {
      total += a->invoke(*check, account::balance()).as_int();
    }
    rt.commit(check);
    const std::int64_t expected =
        static_cast<std::int64_t>(c.accounts) * c.initial_balance;
    cert.check(total == expected,
               "conservation: recovered total " + std::to_string(total) +
                   " != " + std::to_string(expected));
  }

  result.log_records = cert.check_log(rt);
  cert.check(result.log_records > 0, "log: no record survived (setup must)");

  // Formal certification over the full recorded history (crash dooms and
  // all — aborted activities are part of h; perm(h) is what must
  // serialize), then the online sentinel, which watched the same run
  // including the crash window.
  const History h = rt.history();
  cert.check_history(c.protocol, rt.system(), h, read_only);
  cert.check_sentinel(rt);

  const TxnStats stats = rt.tm().stats();
  result.committed = stats.committed;
  result.aborted = stats.aborted;
  result.faults_injected = injector->faults_injected();
  result.trace = h.to_string() + injector->trace_to_string();
  result.ok = cert.ok();
  result.failure = cert.failure();
  return result;
}

std::vector<FaultSweepCase> enumerate_fault_cases(
    const FaultSweepOptions& options) {
  // Crash placements: no pinned crash, then each named pipeline stage.
  struct CrashCell {
    FaultSite point;
    bool enabled;
  };
  const CrashCell crash_cells[] = {
      {FaultSite::kPreForce, false},
      {FaultSite::kPreForce, true},
      {FaultSite::kPostForcePreApply, true},
      {FaultSite::kMidApply, true},
      {FaultSite::kPostApplyPreWatermark, true},
  };

  // Fault mixes (seed and crash fields set per cell): clean, force
  // failures, torn tails and leader latency alone, then everything at
  // once.
  const FaultPlan mixes[] = {
      {},
      {.force_fail_permille = 250,
       .force_max_retries = 2,
       .force_retry_backoff_us = 10},
      {.torn_batch_permille = 350},
      {.leader_latency_permille = 300, .leader_latency_us = 100},
      {.force_fail_permille = 120,
       .force_max_retries = 2,
       .force_retry_backoff_us = 10,
       .torn_batch_permille = 150,
       .leader_latency_permille = 100,
       .leader_latency_us = 50,
       .spurious_timeout_permille = 50,
       .delayed_wakeup_permille = 80,
       .delayed_wakeup_us = 100},
  };

  std::vector<FaultSweepCase> out;
  for (const CrashCell& crash : crash_cells) {
    const auto crash_index =
        static_cast<std::uint64_t>(&crash - crash_cells);
    for (const FaultPlan& mix : mixes) {
      for (Protocol protocol : options.protocols) {
        for (std::uint64_t s = 1; s <= options.seeds_per_cell; ++s) {
          FaultSweepCase c{mix, protocol, options.accounts,
                           options.transactions, options.initial_balance};
          // Seed identifies the cell too, so no two cells share a
          // decision stream.
          c.plan.seed = s * 1000003ULL + crash_index * 7919ULL +
                        static_cast<std::uint64_t>(&mix - mixes) * 101ULL +
                        static_cast<std::uint64_t>(protocol);
          c.plan.crash_point = crash.point;
          // Vary which arrival dies so early and late crashes both occur.
          c.plan.crash_at_arrival = crash.enabled ? 1 + (s % 6) : 0;
          out.push_back(c);
        }
      }
    }
  }
  return out;
}

FaultSweepCase minimize(
    const FaultSweepCase& failing, const FaultCaseResult& failed_run,
    const std::function<bool(const FaultSweepCase&)>& still_fails) {
  FaultSweepCase probe = failing;
  probe.plan.max_faults = smallest_failing(
      0, failed_run.faults_injected, [&](std::uint64_t budget) {
        probe.plan.max_faults = budget;
        return still_fails(probe);
      });
  return probe;
}

}  // namespace argus

#include "sim/dist_sweep.h"

#include <map>

#include "common/rng.h"
#include "dist/dist_runtime.h"
#include "fault/plan_config.h"
#include "sim/certifier.h"
#include "spec/adts/bank_account.h"

namespace argus {

std::string to_config_string(const DistSweepCase& c) {
  return "# dist-sweep case (replay: examples/dist_replay <file>)\n"
         "sites " + std::to_string(c.sites) +
         "\nprotocol " + to_string(c.protocol) +
         "\nsharded " + std::to_string(c.sharded) +
         "\nreplicated " + std::to_string(c.replicated) +
         "\ntransactions " + std::to_string(c.transactions) +
         "\ninitial_balance " + std::to_string(c.initial_balance) + "\n" +
         to_config_lines(c.plan, PlanKeys::kMultiSite);
}

bool parse_case(const std::string& text, DistSweepCase* out,
                std::string* error) {
  DistSweepCase c;
  const bool ok = parse_config_lines(
      text,
      [&c](const std::string& key, const std::string& value) -> std::string {
        if (key == "protocol") {
          const auto p = protocol_from_string(value);
          if (!p || (*p != Protocol::kDynamic && *p != Protocol::kHybrid)) {
            return "unknown/unsupported protocol: " + value;
          }
          c.protocol = *p;
          return {};
        }
        if (key == "sites") return parse_config_number(value, &c.sites, 1);
        if (key == "sharded") return parse_config_number(value, &c.sharded);
        if (key == "replicated") {
          return parse_config_number(value, &c.replicated);
        }
        if (key == "transactions") {
          return parse_config_number(value, &c.transactions);
        }
        if (key == "initial_balance") {
          return parse_config_number(value, &c.initial_balance);
        }
        return parse_plan_entry(key, value, PlanKeys::kMultiSite, &c.plan);
      },
      error);
  if (!ok) return false;
  if (c.sharded + c.replicated == 0) {
    if (error != nullptr) *error = "no accounts configured";
    return false;
  }
  *out = c;
  return true;
}

DistCaseResult run_case(const DistSweepCase& c) {
  DistCaseResult result;
  Certifier cert;

  DistOptions options;
  options.sites = static_cast<std::size_t>(c.sites);
  options.protocol = c.protocol;
  DistRuntime dist(options);

  std::vector<std::string> names;
  for (int i = 0; i < c.sharded; ++i) {
    const std::string name = "s" + std::to_string(i);
    dist.create_sharded<BankAccountAdt>(name);
    names.push_back(name);
  }
  for (int i = 0; i < c.replicated; ++i) {
    const std::string name = "r" + std::to_string(i);
    dist.create_replicated<BankAccountAdt>(name);
    names.push_back(name);
  }

  for (std::size_t i = 0; i < dist.site_count(); ++i) {
    Runtime& rt = dist.site(i).runtime();
    rt.set_wait_timeout_all(std::chrono::milliseconds(200));
    SentinelOptions sentinel_options;
    sentinel_options.window = std::chrono::milliseconds(2);
    rt.start_sentinel(sentinel_options);
  }

  // Seed every account before faults are live: the conservation probe
  // needs a known starting total, and the model starts from a quiescent
  // committed state. With >1 site this is itself a 2PC (it writes at
  // every site).
  {
    auto setup = dist.begin();
    for (const auto& name : names) {
      dist.write(*setup, name, account::deposit(c.initial_balance));
    }
    dist.commit(setup);
  }

  dist.set_fault_plan(c.plan);

  // Deterministic single-threaded workload: transfers between random
  // logical accounts (sharded<->replicated pairs force 2PC), plus
  // read-only audits under the hybrid protocol and occasional in-update
  // reads (the available-copies read path) under both.
  SplitMix64 rng(c.plan.seed * 0x9e3779b97f4a7c15ULL + 1);
  for (int i = 0; i < c.transactions; ++i) {
    dist.tick_site_faults();
    // Cooperative termination runs between transactions, like a real
    // deployment's periodic status round: fenced participants (stranded
    // prepared by a coordinator crash or lost decide messages) resolve
    // their in-doubt records and rejoin mid-run. A no-op — beyond lazy
    // ack collection — when nothing is fenced, so pre-PR-8
    // configurations replay their traces unchanged.
    dist.run_termination_protocol();
    const bool audit =
        supports_snapshot_reads(c.protocol) && rng.chance(1, 4);
    const auto t = dist.begin(audit ? TxnKind::kReadOnly : TxnKind::kUpdate);
    try {
      if (audit) {
        for (const auto& name : names) {
          dist.read(*t, name, account::balance());
        }
      } else {
        const std::size_t n = names.size();
        const std::size_t from = rng.below(n);
        const std::size_t to =
            n > 1 ? (from + 1 + rng.below(n - 1)) % n : from;
        const std::int64_t amount = rng.range(1, 5);
        const Value got =
            dist.write(*t, names[from], account::withdraw(amount));
        if (got.is_unit()) {
          dist.write(*t, names[to], account::deposit(amount));
        }
        if (rng.chance(1, 3)) {
          dist.read(*t, names[to], account::balance());
        }
      }
      dist.commit(t);
    } catch (const TransactionAborted&) {
      // read/write/commit abort the distributed transaction before
      // throwing; nothing to clean up.
    }
  }

  // Epilogue: verification runs fault-free. Clear the per-site injectors
  // (the coordinator injector only acts when ticked, and the epilogue
  // never ticks), then recover every down site — the full crash ->
  // in-doubt resolution -> log replay -> catch-up path, now guaranteed
  // to complete.
  for (std::size_t i = 0; i < dist.site_count(); ++i) {
    dist.site(i).runtime().set_fault_injector(nullptr);
  }
  // Coordinator first: site recovery is atomic and refuses while an
  // in-doubt record is unresolvable, which with every peer down only the
  // recovered commit list can break.
  if (!dist.coordinator_up()) {
    cert.check(dist.recover_coordinator(), "recover: coordinator failed");
  }
  for (std::size_t i = 0; i < dist.site_count(); ++i) {
    if (!dist.site(i).up()) {
      cert.check(dist.recover(i),
                 "recover: site " + std::to_string(i) + " failed fault-free");
    }
  }
  // Final termination round: with everything up it only re-derives acks
  // from the participants' stable logs and truncates settled decisions.
  dist.run_termination_protocol();

  // The replayable artifact: everything up to (not including) the
  // verification probes, so two runs of the same case compare
  // byte-for-byte without the probes' own transactions in the way.
  result.trace = dist.merged_trace();

  const DistStats stats = dist.stats();

  // Probe: conservation + replica agreement, via the administrative dump
  // (bypasses the stale-read rule; every site is up, so every copy of
  // every variable answers exactly once).
  {
    std::map<std::string, std::vector<std::int64_t>> by_var;
    for (const auto& entry : dist.dump(account::balance())) {
      by_var[entry.var].push_back(entry.value.as_int());
    }
    cert.check(by_var.size() == names.size(),
               "dump: " + std::to_string(by_var.size()) + " of " +
                   std::to_string(names.size()) + " variables answered");
    std::int64_t total = 0;
    for (const auto& [var, values] : by_var) {
      total += values.front();
      for (const std::int64_t v : values) {
        cert.check(v == values.front(),
                   "replica agreement: " + var + " has copies " +
                       std::to_string(values.front()) + " and " +
                       std::to_string(v));
      }
    }
    const std::int64_t expected =
        static_cast<std::int64_t>(names.size()) * c.initial_balance;
    cert.check(total == expected,
               "conservation: recovered total " + std::to_string(total) +
                   " != " + std::to_string(expected));
  }
  cert.check(stats.replica_divergence == 0,
             "replica divergence: " +
                 std::to_string(stats.replica_divergence) +
                 " mismatched write results");

  // With every participant recovered and acks re-synced, the decision
  // log must have truncated to empty — unless torn-batch faults could
  // drop a participant's committed record, in which case catch-up
  // restores the value but the ack is honestly never derivable.
  if (c.plan.torn_batch_permille == 0) {
    const std::size_t outstanding = dist.decision_log().outstanding();
    cert.check(outstanding == 0,
               "decision log: " + std::to_string(outstanding) +
                   " decisions still outstanding after full recovery");
  }

  // Probes per site: total in-doubt resolution — with every site and the
  // coordinator recovered, no prepared record may remain anywhere (each
  // was promoted or dropped by recovery / the termination protocol) —
  // then stable-log order and watermark coverage.
  for (std::size_t i = 0; i < dist.site_count(); ++i) {
    const std::string tag = "site" + std::to_string(i) + " ";
    Runtime& rt = dist.site(i).runtime();
    cert.check(rt.tm().log().prepared_records().empty(),
               tag + "termination: " +
                   std::to_string(rt.tm().log().prepared_records().size()) +
                   " records still in doubt after recovery");
    cert.check_log(rt, tag);
  }

  // Formal certification, twice over: each site's local history against
  // its local objects, and the merged cross-site history (one activity
  // per global transaction) against every replica in the deployment.
  const auto read_only = dist.read_only_activities();
  for (std::size_t i = 0; i < dist.site_count(); ++i) {
    Runtime& rt = dist.site(i).runtime();
    cert.check_history(c.protocol, rt.system(), rt.history(), read_only,
                       "site" + std::to_string(i) + " ");
  }
  cert.check_history(c.protocol, dist.merged_system(), dist.merged_history(),
                     read_only, "merged ");

  // The online sentinels watched the same run, crash windows included.
  for (std::size_t i = 0; i < dist.site_count(); ++i) {
    cert.check_sentinel(dist.site(i).runtime(),
                        "site" + std::to_string(i) + " ");
  }

  result.faults_injected = 0;
  if (FaultInjector* coord = dist.coordinator_injector()) {
    result.faults_injected += coord->faults_injected();
  }
  for (std::size_t i = 0; i < dist.site_count(); ++i) {
    if (FaultInjector* inj = dist.site(i).runtime().fault_injector()) {
      result.faults_injected += inj->faults_injected();
    }
  }
  result.stats = stats;
  result.committed =
      stats.one_phase_commits + stats.two_pc_commits + stats.read_only_commits;
  result.aborted = stats.aborts;
  result.ok = cert.ok();
  result.failure = cert.failure();
  return result;
}

std::vector<DistSweepCase> enumerate_dist_cases(
    const DistSweepOptions& options) {
  std::vector<DistSweepCase> out;
  // One cell: `mix` at `sites`, every protocol x seeds_per_cell seeds.
  // The seed identifies the cell, so no two cells share a stream;
  // `vary(c, s)` pins the per-seed crash arrival.
  const auto add_cell = [&](const FaultPlan& mix, int sites,
                            std::uint64_t mix_index, const auto& vary) {
    for (Protocol protocol : options.protocols) {
      for (std::uint64_t s = 1; s <= options.seeds_per_cell; ++s) {
        DistSweepCase c{mix,
                        protocol,
                        sites,
                        options.sharded,
                        options.replicated,
                        options.transactions,
                        options.initial_balance};
        c.plan.seed = s * 1000003ULL +
                      static_cast<std::uint64_t>(sites) * 7919ULL +
                      mix_index * 101ULL + static_cast<std::uint64_t>(protocol);
        vary(c, s);
        out.push_back(c);
      }
    }
  };

  // Fault mixes: clean, site churn alone, log faults alone, a pinned
  // mid-commit crash (delivered as a site failure) with recovery churn
  // to let the failed site return, then everything at once.
  const FaultPlan mixes[] = {
      {},
      {.site_fail_permille = 80, .site_recover_permille = 350},
      {.force_fail_permille = 200,
       .force_max_retries = 2,
       .force_retry_backoff_us = 10,
       .torn_batch_permille = 200},
      {.crash_point = FaultSite::kPostForcePreApply,
       .site_recover_permille = 300},
      {.force_fail_permille = 100,
       .force_max_retries = 2,
       .force_retry_backoff_us = 10,
       .torn_batch_permille = 120,
       .leader_latency_permille = 100,
       .leader_latency_us = 50,
       .crash_point = FaultSite::kMidApply,
       .site_fail_permille = 60,
       .site_recover_permille = 300},
  };
  for (const int sites : options.site_counts) {
    for (const FaultPlan& mix : mixes) {
      const bool pinned_crash = mix.crash_point != FaultSite::kPreForce;
      add_cell(mix, sites, static_cast<std::uint64_t>(&mix - mixes),
               [&](DistSweepCase& c, std::uint64_t s) {
                 // Vary which pipeline arrival dies so early and late
                 // crashes both occur (0 disables the pinned crash).
                 c.plan.crash_at_arrival = pinned_crash ? 1 + (s % 6) : 0;
               });
    }
  }

  // Coordinator-fault axis (appended so the base grid keeps its order):
  // a pinned coordinator crash at each of the four 2PC protocol steps,
  // crossed with message-fault mixes, at a fixed 3-site deployment — two
  // participants to strand, plus a surviving peer for the cooperative
  // termination protocol's status queries. In the lossy mix, spurious
  // timeouts land on the peer-query wait path too, wasting termination
  // rounds (bounded retry + backoff).
  const FaultPlan coord_mixes[] = {
      {.coord_recover_permille = 400},
      {.spurious_timeout_permille = 120,
       .coord_recover_permille = 400,
       .msg_loss_permille = 150,
       .msg_retries = 2},
      {.site_fail_permille = 60,
       .site_recover_permille = 300,
       .coord_recover_permille = 300,
       .decision_force_fail_permille = 100,
       .msg_loss_permille = 100,
       .msg_latency_permille = 250,
       .msg_latency_us = 100,
       .msg_retries = 2},
  };
  const FaultSite coord_steps[] = {
      FaultSite::kCoordPrePrepare, FaultSite::kCoordPostPrepare,
      FaultSite::kCoordPostDecision, FaultSite::kCoordMidDelivery};
  constexpr int kCoordSites = 3;
  for (std::uint64_t step = 0; step < std::size(coord_steps); ++step) {
    for (const FaultPlan& mix : coord_mixes) {
      // Continues the base grid's mix numbering so no two cells —
      // across both axes — share a seed stream.
      const std::uint64_t mix_index =
          std::size(mixes) + step * std::size(coord_mixes) +
          static_cast<std::uint64_t>(&mix - coord_mixes);
      add_cell(mix, kCoordSites, mix_index,
               [&](DistSweepCase& c, std::uint64_t s) {
                 c.plan.coord_crash_point = coord_steps[step];
                 // Vary which 2PC hits the crash so early and late
                 // coordinator deaths both occur.
                 c.plan.coord_crash_at_arrival = 1 + (s % 3);
               });
    }
  }
  return out;
}

DistSweepCase minimize(
    const DistSweepCase& failing, const DistCaseResult& failed_run,
    const std::function<bool(const DistSweepCase&)>& still_fails) {
  DistSweepCase probe = failing;
  probe.plan.max_faults = smallest_failing(
      0, failed_run.faults_injected, [&](std::uint64_t budget) {
        probe.plan.max_faults = budget;
        return still_fails(probe);
      });
  return probe;
}

}  // namespace argus

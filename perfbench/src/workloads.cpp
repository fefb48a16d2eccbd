#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "core/runtime.h"
#include "sched/executor.h"
#include "spec/adts/bank_account.h"

namespace perfbench {

namespace {

using argus::TransactionAborted;
using argus::TxnExecutor;
using argus::Value;

constexpr std::int64_t kInitialBalance = 1'000'000;  // transfers never overdraw
// Tasks retry until they commit. In a closed loop a starving transaction
// always finishes: its contenders stop when the task list runs out. So
// the liveness cost shows as attempts and latency, never as a give-up.
constexpr int kMaxRetries = 1'000'000;
// Converts a wait that would otherwise block for the object default (10 s)
// into an abort and a retry, as E15 does.
constexpr auto kWaitTimeout = std::chrono::milliseconds(200);

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

std::size_t span_reserve(const std::vector<TaskSpec>& tasks, int threads) {
  std::size_t spans = 0;
  for (const TaskSpec& t : tasks) {
    spans += t.kind == TaskKind::kAudit ? 20 : 5;
  }
  return spans / static_cast<std::size_t>(threads) + 1024;
}

argus::CommitPipelineStats minus(const argus::CommitPipelineStats& a,
                                 const argus::CommitPipelineStats& b) {
  argus::CommitPipelineStats d = a;
  d.commits -= b.commits;
  d.validate_us -= b.validate_us;
  d.timestamp_us -= b.timestamp_us;
  d.log_us -= b.log_us;
  d.apply_us -= b.apply_us;
  d.log_forces -= b.log_forces;
  d.log_records -= b.log_records;
  return d;
}

argus::StableLog::GroupStats minus(const argus::StableLog::GroupStats& a,
                                   const argus::StableLog::GroupStats& b) {
  argus::StableLog::GroupStats d = a;
  d.forces -= b.forces;
  d.records_forced -= b.records_forced;
  d.prepared_forces -= b.prepared_forces;
  d.prepared_promoted -= b.prepared_promoted;
  return d;
}

void add_into(argus::CommitPipelineStats& acc,
              const argus::CommitPipelineStats& x) {
  acc.commits += x.commits;
  acc.validate_us += x.validate_us;
  acc.timestamp_us += x.timestamp_us;
  acc.log_us += x.log_us;
  acc.apply_us += x.apply_us;
  acc.log_forces += x.log_forces;
  acc.log_records += x.log_records;
}

void add_into(argus::StableLog::GroupStats& acc,
              const argus::StableLog::GroupStats& x) {
  acc.forces += x.forces;
  acc.records_forced += x.records_forced;
  acc.prepared_forces += x.prepared_forces;
  acc.prepared_promoted += x.prepared_promoted;
}

struct TaskRecord {
  double latency_us{0};
  std::uint64_t attempts{0};
  bool committed{false};
  bool done{false};
};

/// Fills the latency, attempt and failure fields of `r` from per-task
/// records and checks that every task completed.
void tally(const std::vector<TaskSpec>& tasks,
           const std::vector<TaskRecord>& records, RoundResult& r) {
  r.submitted = tasks.size();
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const TaskRecord& rec = records[i];
    if (!rec.done) {
      r.errors.push_back("task " + std::to_string(i) + " never completed");
      continue;
    }
    r.attempts += rec.attempts;
    r.max_attempts = std::max(r.max_attempts, rec.attempts);
    if (!rec.committed) {
      ++r.failed;
      continue;
    }
    ++r.committed;
    const TaskSpec& t = tasks[i];
    if (t.kind == TaskKind::kAudit) {
      r.audit_us.push_back(rec.latency_us);
    } else if (t.cross) {
      r.cross_us.push_back(rec.latency_us);
    } else {
      r.update_us.push_back(rec.latency_us);
    }
  }
  if (r.committed + r.failed != r.submitted) {
    r.errors.push_back("committed + failed != submitted");
  }
}

// ---------------------------------------------------------------------------
// Single-node workloads: a Runtime driven through a TxnExecutor.

/// The task index the calling executor worker is running; the completion
/// callback runs on the same worker right after the task's last attempt.
thread_local std::uint32_t t_task = 0;

struct LocalContext {
  const std::vector<TaskSpec>* tasks{nullptr};
  std::vector<std::shared_ptr<argus::ManagedObject>> accounts;
  Tracer* tracer{nullptr};
  std::int64_t expected_total{0};
  std::atomic<std::uint64_t> bad_audits{0};
  // A withdraw found insufficient funds. Balances are sized so that this
  // cannot happen; if it did, a deposit-first transfer would create money.
  std::atomic<std::uint64_t> overdrafts{0};
};

TxnExecutor::Task make_task(LocalContext* ctx, std::uint32_t i) {
  const TaskSpec& spec = (*ctx->tasks)[i];
  TxnExecutor::Task task;
  task.label = label_of(spec);
  task.kind = spec.txn_kind;
  task.seed = spec.seed;
  task.body = [ctx, i](argus::Transaction& txn, argus::SplitMix64&) {
    t_task = i;
    const TaskSpec& t = (*ctx->tasks)[i];
    Tracer* tr = ctx->tracer;
    // Every transaction touches accounts in ascending index order, so no
    // waits-for cycle can form (see README: lock_durable).
    traced(tr, SpanKind::kAttempt, i, [&] {
      if (t.kind == TaskKind::kTransfer) {
        auto withdraw = [&] {
          const Value got = traced(tr, SpanKind::kInvokeWithdraw, i, [&] {
            return ctx->accounts[t.from]->invoke(
                txn, argus::account::withdraw(t.amount));
          });
          if (!got.is_unit()) ctx->overdrafts.fetch_add(1);
        };
        auto deposit = [&] {
          traced(tr, SpanKind::kInvokeDeposit, i, [&] {
            return ctx->accounts[t.to]->invoke(
                txn, argus::account::deposit(t.amount));
          });
        };
        if (t.from < t.to) {
          withdraw();
          deposit();
        } else {
          deposit();
          withdraw();
        }
        return;
      }
      std::int64_t total = 0;
      for (const auto& account : ctx->accounts) {
        total += traced(tr, SpanKind::kInvokeBalance, i, [&] {
                   return account->invoke(txn, argus::account::balance());
                 }).as_int();
      }
      if (total != ctx->expected_total) ctx->bad_audits.fetch_add(1);
    });
  };
  return task;
}

RoundResult run_local(Workload w, const std::vector<TaskSpec>& tasks,
                      bool trace) {
  const WorkloadShape shape = shape_of(w);
  const DiskModel disk = disk_of(w);
  const bool certified = w == Workload::kCertifiedCommit;
  RoundResult r;

  // --- set-up: runtime, objects, seeding, sentinel -------------------------
  const std::int64_t setup_start = now_ns();
  auto rt = std::make_unique<argus::Runtime>(
      certified ? argus::Runtime::RecorderMode::kFlight
                : argus::Runtime::RecorderMode::kOff);
  rt->tm().log().set_force_delay(disk.force_delay);
  LocalContext ctx;
  ctx.tasks = &tasks;
  for (std::uint32_t i = 0; i < kAccounts; ++i) {
    const std::string name = "account" + std::to_string(i);
    if (w == Workload::kLockDurable) {
      ctx.accounts.push_back(rt->create_dynamic<argus::BankAccountAdt>(name));
    } else {
      ctx.accounts.push_back(rt->create_hybrid<argus::BankAccountAdt>(name));
    }
  }
  rt->set_wait_timeout_all(kWaitTimeout);
  {
    auto setup = rt->begin();
    for (const auto& account : ctx.accounts) {
      account->invoke(*setup, argus::account::deposit(kInitialBalance));
    }
    rt->commit(setup);
  }
  ctx.expected_total = kInitialBalance * kAccounts;
  argus::AtomicitySentinel* sentinel = nullptr;
  if (certified) {
    argus::SentinelOptions so;
    so.window = std::chrono::milliseconds(5);
    so.checkpoint_threshold = 4096;  // bounded memory, incremental folds
    so.mode = argus::CheckMode::kEscalating;
    sentinel = &rt->start_sentinel(so);
  }
  r.setup_s = seconds_since(setup_start);

  // --- measured phase: closed loop of `workers` clients --------------------
  std::unique_ptr<Tracer> tracer;
  if (trace) {
    tracer = std::make_unique<Tracer>(static_cast<std::size_t>(shape.workers),
                                      span_reserve(tasks, shape.workers));
    ctx.tracer = tracer.get();
  }
  std::vector<TaskRecord> records(tasks.size());
  std::atomic<std::uint32_t> next{0};
  TxnExecutor* executor = nullptr;
  argus::ExecutorOptions eo;
  eo.workers = shape.workers;
  eo.max_retries = kMaxRetries;
  TxnExecutor exec(*rt, eo, [&](const TxnExecutor::Outcome& out) {
    const std::uint32_t i = t_task;
    records[i] = TaskRecord{out.latency_us, out.attempts, out.committed, true};
    if (tracer) {
      const std::int64_t end = now_ns();
      tracer->record(SpanKind::kTask, i,
                     end - static_cast<std::int64_t>(out.latency_us * 1000.0),
                     end, !out.committed);
    }
    // Closed loop: this client's next transaction starts only now.
    const std::uint32_t n = next.fetch_add(1);
    if (n < tasks.size()) executor->submit(make_task(&ctx, n));
  });
  executor = &exec;

  const auto pipeline0 = rt->tm().pipeline_stats();
  const auto group0 = rt->tm().log().group_stats();
  const auto deadlocks0 = rt->tm().detector().deadlocks_resolved();
  SentinelDelta s0;
  if (sentinel != nullptr) {
    s0.activities_checked = sentinel->activities_checked();
    s0.windows = sentinel->windows();
    s0.fastpath_windows = sentinel->fastpath_windows();
    s0.escalations = sentinel->escalations();
  }
  const double cpu0 = cpu_seconds();
  const std::int64_t phase_start = now_ns();
  const auto clients = std::min<std::size_t>(
      static_cast<std::size_t>(shape.workers), tasks.size());
  next.store(static_cast<std::uint32_t>(clients));
  for (std::uint32_t i = 0; i < clients; ++i) exec.submit(make_task(&ctx, i));
  exec.drain();
  r.wall_s = seconds_since(phase_start);
  r.cpu_s = cpu_seconds() - cpu0;

  r.pipeline = minus(rt->tm().pipeline_stats(), pipeline0);
  r.group = minus(rt->tm().log().group_stats(), group0);
  r.deadlocks = rt->tm().detector().deadlocks_resolved() - deadlocks0;
  const argus::ExecutorStatsSnapshot es = exec.stats();
  r.executor_retries = es.retries;
  exec.shutdown();

  // --- output checks -------------------------------------------------------
  tally(tasks, records, r);
  if (es.submitted != r.submitted || es.committed != r.committed ||
      es.gave_up != r.failed) {
    r.errors.push_back("executor counters disagree with task outcomes");
  }
  if (ctx.bad_audits.load() != 0) {
    r.errors.push_back(std::to_string(ctx.bad_audits.load()) +
                       " audits saw an inconsistent total");
  }
  if (ctx.overdrafts.load() != 0) {
    r.errors.push_back(std::to_string(ctx.overdrafts.load()) +
                       " withdraws found insufficient funds");
  }
  if (sentinel != nullptr) {
    const std::int64_t stop_start = now_ns();
    sentinel->stop();
    r.sentinel.stop_ms = seconds_since(stop_start) * 1e3;
    r.sentinel.violations = sentinel->violations();
    r.sentinel.activities_checked =
        sentinel->activities_checked() - s0.activities_checked;
    r.sentinel.windows = sentinel->windows() - s0.windows;
    r.sentinel.fastpath_windows =
        sentinel->fastpath_windows() - s0.fastpath_windows;
    r.sentinel.escalations = sentinel->escalations() - s0.escalations;
    if (r.sentinel.violations != 0) {
      r.errors.push_back("sentinel violation: " + sentinel->last_violation());
    }
    if (r.sentinel.activities_checked < r.committed) {
      r.errors.push_back("sentinel checked " +
                         std::to_string(r.sentinel.activities_checked) +
                         " activities, fewer than the " +
                         std::to_string(r.committed) + " committed");
    }
    rt->stop_sentinel();
  }
  {
    auto txn = w == Workload::kLockDurable ? rt->begin()
                                            : rt->begin_read_only();
    std::int64_t total = 0;
    for (const auto& account : ctx.accounts) {
      total += account->invoke(*txn, argus::account::balance()).as_int();
    }
    rt->commit(txn);
    if (total != ctx.expected_total) {
      r.errors.push_back("money not conserved: " + std::to_string(total) +
                         " != " + std::to_string(ctx.expected_total));
    }
  }
  if (tracer) r.spans = tracer->collect();
  return r;
}

// ---------------------------------------------------------------------------
// multisite_2pc: a DistRuntime driven by client threads.

RoundResult run_multisite(const std::vector<TaskSpec>& tasks, bool trace) {
  const WorkloadShape shape = shape_of(Workload::kMultisite2pc);
  const DiskModel disk = disk_of(Workload::kMultisite2pc);
  RoundResult r;

  const std::int64_t setup_start = now_ns();
  argus::DistOptions o;
  o.sites = shape.sites;
  o.protocol = argus::Protocol::kHybrid;
  o.recorder = argus::Runtime::RecorderMode::kOff;
  auto dist = std::make_unique<argus::DistRuntime>(o);
  std::vector<std::string> names;
  // create_sharded places round-robin: account j lands on site j % sites,
  // the placement generate_tasks assumes.
  for (std::uint32_t j = 0; j < kAccounts; ++j) {
    names.push_back("a" + std::to_string(j));
    dist->create_sharded<argus::BankAccountAdt>(names.back());
  }
  for (std::size_t s = 0; s < shape.sites; ++s) {
    dist->site(s).runtime().set_wait_timeout_all(kWaitTimeout);
  }
  for (std::size_t s = 0; s < shape.sites; ++s) {  // one-phase seeding
    const auto t = dist->begin();
    for (std::size_t j = s; j < kAccounts; j += shape.sites) {
      dist->write(*t, names[j], argus::account::deposit(kInitialBalance));
    }
    dist->commit(t);
  }
  argus::FaultPlan plan;
  plan.leader_latency_permille = 1000;  // every site force pays the "disk"
  plan.leader_latency_us = disk.leader_latency_us;
  dist->set_fault_plan(plan);
  dist->decision_log().set_force_delay(
      std::chrono::microseconds(disk.leader_latency_us));
  r.setup_s = seconds_since(setup_start);

  std::unique_ptr<Tracer> tracer;
  if (trace) {
    tracer = std::make_unique<Tracer>(static_cast<std::size_t>(shape.workers),
                                      span_reserve(tasks, shape.workers));
  }
  Tracer* tr = tracer.get();
  std::vector<TaskRecord> records(tasks.size());
  std::atomic<std::uint32_t> next{0};

  auto site_pipeline = [&] {
    argus::CommitPipelineStats acc;
    for (std::size_t s = 0; s < shape.sites; ++s) {
      add_into(acc, dist->site(s).tm().pipeline_stats());
    }
    return acc;
  };
  auto site_group = [&] {
    argus::StableLog::GroupStats acc;
    for (std::size_t s = 0; s < shape.sites; ++s) {
      add_into(acc, dist->site(s).tm().log().group_stats());
    }
    return acc;
  };
  const auto pipeline0 = site_pipeline();
  const auto group0 = site_group();
  const argus::DistStats dist0 = dist->stats();
  const double cpu0 = cpu_seconds();
  const std::int64_t phase_start = now_ns();

  auto client = [&] {
    for (;;) {
      const std::uint32_t i = next.fetch_add(1);
      if (i >= tasks.size()) return;
      const TaskSpec& t = tasks[i];
      const std::int64_t start = now_ns();
      TaskRecord rec;
      while (!rec.committed && rec.attempts <= kMaxRetries) {
        ++rec.attempts;
        const auto txn = dist->begin();
        try {
          const Value got = traced(tr, SpanKind::kDistRead, i, [&] {
            return dist->read(*txn, names[t.from],
                              argus::account::withdraw(t.amount));
          });
          if (got.is_unit()) {
            traced(tr, SpanKind::kDistWrite, i, [&] {
              return dist->write(*txn, names[t.to],
                                 argus::account::deposit(t.amount));
            });
          }
          traced(tr,
                 t.cross ? SpanKind::kDistCommitCross
                         : SpanKind::kDistCommitLocal,
                 i, [&] { dist->commit(txn); });
          rec.committed = true;
        } catch (const TransactionAborted&) {
          dist->abort(txn);
        }
      }
      const std::int64_t end = now_ns();
      rec.latency_us = static_cast<double>(end - start) / 1000.0;
      rec.done = true;
      if (tr != nullptr) {
        tr->record(SpanKind::kDistTxn, i, start, end, !rec.committed);
      }
      records[i] = rec;
    }
  };
  {
    std::vector<std::jthread> clients;
    for (int c = 0; c < shape.workers; ++c) clients.emplace_back(client);
  }
  r.wall_s = seconds_since(phase_start);
  r.cpu_s = cpu_seconds() - cpu0;

  r.pipeline = minus(site_pipeline(), pipeline0);
  r.group = minus(site_group(), group0);
  const argus::DistStats d1 = dist->stats();
  r.dist.one_phase_commits = d1.one_phase_commits - dist0.one_phase_commits;
  r.dist.two_pc_commits = d1.two_pc_commits - dist0.two_pc_commits;
  r.dist.aborts = d1.aborts - dist0.aborts;
  r.decisions_logged = d1.decisions_logged - dist0.decisions_logged;
  r.decisions_outstanding = dist->decision_log().outstanding();
  r.executor_retries = 0;
  for (const TaskRecord& rec : records) {
    r.executor_retries += rec.attempts > 0 ? rec.attempts - 1 : 0;
  }

  tally(tasks, records, r);
  if (r.dist.one_phase_commits + r.dist.two_pc_commits != r.committed) {
    r.errors.push_back("DistStats commits disagree with task outcomes");
  }
  std::int64_t total = 0;
  for (const auto& entry : dist->dump(argus::account::balance())) {
    total += entry.value.as_int();
  }
  const std::int64_t expected = kInitialBalance * kAccounts;
  if (total != expected) {
    r.errors.push_back("money not conserved across sites: " +
                       std::to_string(total) + " != " +
                       std::to_string(expected));
  }
  if (tracer) r.spans = tracer->collect();
  return r;
}

}  // namespace

DiskModel disk_of(Workload w) {
  DiskModel d;
  if (w == Workload::kLockDurable) d.force_delay = std::chrono::microseconds(20);
  if (w == Workload::kMultisite2pc) d.leader_latency_us = 50;
  return d;
}

double calibrate_force_us(const DiskModel& disk, int samples) {
  argus::StableLog log;
  log.set_force_delay(disk.force_delay);
  argus::FaultPlan plan;
  plan.leader_latency_permille = disk.leader_latency_us > 0 ? 1000 : 0;
  plan.leader_latency_us = disk.leader_latency_us;
  argus::FaultInjector injector(plan);
  log.set_fault_injector(&injector);
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(samples));
  for (int i = 0; i < samples; ++i) {
    argus::CommitLogRecord rec;
    rec.txn = argus::ActivityId{static_cast<std::uint64_t>(i) + 1};
    rec.commit_ts = static_cast<argus::Timestamp>(i) + 1;
    const std::int64_t start = now_ns();
    if (log.append_group(std::move(rec)) != argus::AppendResult::kForced) {
      throw std::runtime_error("calibration force failed");
    }
    us.push_back(static_cast<double>(now_ns() - start) / 1000.0);
  }
  log.set_fault_injector(nullptr);
  std::nth_element(us.begin(), us.begin() + static_cast<long>(us.size() / 2),
                   us.end());
  return us[us.size() / 2];
}

RoundResult run_round(Workload w, const std::vector<TaskSpec>& tasks,
                      bool traced) {
  if (w == Workload::kMultisite2pc) return run_multisite(tasks, traced);
  return run_local(w, tasks, traced);
}

}  // namespace perfbench

// perfbench: the repository benchmark binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--source <id>] [--out-dir <dir>]
//   perfbench --digest --workload <name> --seed <n>
//
// A run generates the workload's task list from the seed, runs one
// unmeasured warm-up round, then repeats measured rounds (fresh runtime,
// whole task list, closed loop) until --seconds have passed. End-to-end
// metrics pool all untraced rounds (see EndToEnd). With --trace 1 rounds
// alternate untraced and traced; per-layer metrics are medians over the
// traced rounds and bench.trace_overhead compares the two kinds. A round
// prints a one-line summary to standard error. Every round checks its
// outputs; any failed check makes the run exit non-zero. The last line
// of standard output is the JSON result.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "provenance.h"
#include "tasks.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kMinRounds = 3;        // per kind (untraced / traced)
constexpr int kCalibrationForces = 200;
constexpr std::uint32_t kSpanDumpTasks = 20000;

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
  bool digest_only{false};
  std::string source{"unknown"};
  std::string out_dir{".bench_out"};
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(k + " needs a value");
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      a.seed = std::stoull(value());
    } else if (k == "--seconds") {
      a.seconds = std::stod(value());
    } else if (k == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") throw std::invalid_argument("--trace is 0 or 1");
      a.trace = v == "1";
    } else if (k == "--digest") {
      a.digest_only = true;
    } else if (k == "--source") {
      a.source = value();
    } else if (k == "--out-dir") {
      a.out_dir = value();
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (a.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<long>(k), v.end());
  return v[k];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// Metric name -> (value, unit), in insertion order.
struct Metrics {
  std::vector<std::string> order;
  std::map<std::string, std::pair<double, std::string>> values;
  void set(const std::string& name, double v, const std::string& unit) {
    if (values.find(name) == values.end()) order.push_back(name);
    values[name] = {v, unit};
  }
};

/// Median over rounds of every metric (rounds share one metric set).
Metrics median_of(const std::vector<Metrics>& rounds) {
  Metrics out;
  if (rounds.empty()) return out;
  for (const std::string& name : rounds.front().order) {
    std::vector<double> v;
    for (const Metrics& m : rounds) v.push_back(m.values.at(name).first);
    out.set(name, median(std::move(v)), rounds.front().values.at(name).second);
  }
  return out;
}

/// Latency samples pooled over a whole run in constant memory, so the
/// benchmark's own footprint does not grow with the number of rounds
/// (peak_rss_mb). Buckets are 0.1% wide on a log scale.
class LatencyHistogram {
 public:
  void add(const std::vector<double>& samples_us) {
    for (double us : samples_us) {
      const double x = std::max(us, kMinUs);
      const auto b = static_cast<std::size_t>(std::log(x / kMinUs) / kLogStep);
      ++counts_[std::min(b, counts_.size() - 1)];
      ++total_;
    }
  }

  /// The q-quantile (nearest rank), interpolated by rank within its
  /// bucket; 0 if empty.
  [[nodiscard]] double percentile(double q) const {
    if (total_ == 0) return 0.0;
    const auto rank = static_cast<std::uint64_t>(
        q * static_cast<double>(total_ - 1));
    std::uint64_t below = 0;
    for (std::size_t b = 0; b < counts_.size(); ++b) {
      if (below + counts_[b] > rank) {
        const double within = (static_cast<double>(rank - below) + 0.5) /
                              static_cast<double>(counts_[b]);
        return kMinUs * std::exp((static_cast<double>(b) + within) * kLogStep);
      }
      below += counts_[b];
    }
    return 0.0;
  }

 private:
  static constexpr double kMinUs = 0.01;
  static constexpr double kLogStep = 0.001;  // ln(1.001)
  // 0.01 us .. about 200 s.
  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(24000);
  std::uint64_t total_{0};
};

/// End-to-end metrics over all untraced rounds of a run. Latencies,
/// throughput and CPU are pooled over rounds rather than taken as the
/// median of per-round values: when a rare slow event (a starving
/// transaction, a burst of stolen CPU) hits some rounds and not others,
/// a median of that two-mode set flips between the modes from run to
/// run. Set-up time is the median of the rounds' set-ups.
struct EndToEnd {
  LatencyHistogram update_us, audit_us, cross_us;
  std::vector<double> setup_s;
  double wall_s{0};
  double cpu_s{0};
  std::uint64_t committed{0};
  std::uint64_t failed{0};
  std::uint64_t submitted{0};

  void add(const RoundResult& r) {
    update_us.add(r.update_us);
    audit_us.add(r.audit_us);
    cross_us.add(r.cross_us);
    setup_s.push_back(r.setup_s);
    wall_s += r.wall_s;
    cpu_s += r.cpu_s;
    committed += r.committed;
    failed += r.failed;
    submitted += r.submitted;
  }

  [[nodiscard]] Metrics metrics() const {
    Metrics m;
    m.set("throughput_tps", ratio(static_cast<double>(committed), wall_s),
          "txn/s");
    m.set("update_p50_us", update_us.percentile(0.50), "us");
    m.set("update_p99_us", update_us.percentile(0.99), "us");
    m.set("audit_p50_us", audit_us.percentile(0.50), "us");
    m.set("audit_p99_us", audit_us.percentile(0.99), "us");
    m.set("cross_p50_us", cross_us.percentile(0.50), "us");
    m.set("cross_p99_us", cross_us.percentile(0.99), "us");
    m.set("failed_share",
          ratio(static_cast<double>(failed), static_cast<double>(submitted)),
          "ratio");
    m.set("cpu_us_per_txn",
          ratio(cpu_s * 1e6, static_cast<double>(committed)), "us");
    m.set("setup_s", median(setup_s), "s");
    return m;
  }
};

Metrics per_layer(const RoundResult& r, int workers) {
  const LayerSummary s = summarize(r.spans);
  const auto committed = static_cast<double>(r.committed);
  const auto commits = static_cast<double>(r.pipeline.commits);
  auto durations = [&](SpanKind k) {
    return s.durations_us[static_cast<std::size_t>(k)];
  };
  auto count = [&](SpanKind k) {
    return static_cast<double>(s.count[static_cast<std::size_t>(k)]);
  };
  auto total = [&](SpanKind k) {
    return s.total_us[static_cast<std::size_t>(k)];
  };
  Metrics m;
  // sched: TxnExecutor pool and retry (or the dist client retry loop).
  m.set("sched.attempts_per_commit",
        ratio(static_cast<double>(r.attempts), committed), "ratio");
  m.set("sched.retries", static_cast<double>(r.executor_retries), "count");
  m.set("sched.max_attempts", static_cast<double>(r.max_attempts), "count");
  const double top_total = total(SpanKind::kTask) + total(SpanKind::kDistTxn);
  m.set("sched.self_us_per_commit",
        ratio(std::max(0.0, r.wall_s * 1e6 * workers - top_total), committed),
        "us");
  m.set("sched.audit_us.p50", percentile(r.audit_us, 0.50), "us");
  m.set("sched.audit_us.p99", percentile(r.audit_us, 0.99), "us");

  // core: object admission, waiting and snapshot reads.
  const std::pair<const char*, SpanKind> invokes[] = {
      {"withdraw", SpanKind::kInvokeWithdraw},
      {"deposit", SpanKind::kInvokeDeposit},
      {"balance", SpanKind::kInvokeBalance}};
  double invoke_count = 0;
  for (const auto& [op, kind] : invokes) {
    m.set(std::string("core.invoke_us.") + op + ".p50",
          percentile(durations(kind), 0.50), "us");
    m.set(std::string("core.invoke_us.") + op + ".p99",
          percentile(durations(kind), 0.99), "us");
    invoke_count += count(kind);
  }
  auto aborts_for = [&](const char* reason) {
    const auto it = s.invoke_aborts.find(reason);
    return it == s.invoke_aborts.end() ? 0.0 : static_cast<double>(it->second);
  };
  double invoke_aborts = 0;
  for (const auto& [reason, n] : s.invoke_aborts) invoke_aborts += n;
  m.set("core.invoke_aborts.deadlock", aborts_for("deadlock"), "count");
  m.set("core.invoke_aborts.wait_timeout", aborts_for("wait-timeout"), "count");
  m.set("core.invoke_aborts.other",
        invoke_aborts - aborts_for("deadlock") - aborts_for("wait-timeout"),
        "count");
  m.set("core.invokes_per_commit", ratio(invoke_count, committed), "ratio");
  m.set("core.self_us_per_commit", ratio(s.core_self_us, committed), "us");

  // txn: begin, commit pipeline, group-commit log, deadlock detector.
  m.set("txn.manager_us.p50", percentile(s.manager_us, 0.50), "us");
  m.set("txn.manager_us.p99", percentile(s.manager_us, 0.99), "us");
  m.set("txn.self_us_per_commit", ratio(s.txn_self_us, committed), "us");
  m.set("txn.validate_us_per_commit",
        ratio(static_cast<double>(r.pipeline.validate_us), commits), "us");
  m.set("txn.timestamp_us_per_commit",
        ratio(static_cast<double>(r.pipeline.timestamp_us), commits), "us");
  m.set("txn.log_us_per_commit",
        ratio(static_cast<double>(r.pipeline.log_us), commits), "us");
  m.set("txn.apply_us_per_commit",
        ratio(static_cast<double>(r.pipeline.apply_us), commits), "us");
  m.set("txn.commits_per_force",
        ratio(static_cast<double>(r.group.records_forced),
              static_cast<double>(r.group.forces)),
        "ratio");
  m.set("txn.deadlocks_per_kcommit",
        ratio(static_cast<double>(r.deadlocks) * 1000.0, committed), "ratio");

  // obs: flight recorder + atomicity sentinel.
  m.set("obs.sentinel_stop_ms", r.sentinel.stop_ms, "ms");
  m.set("obs.sentinel_coverage",
        ratio(static_cast<double>(r.sentinel.activities_checked), committed),
        "ratio");
  m.set("obs.fastpath_share",
        ratio(static_cast<double>(r.sentinel.fastpath_windows),
              static_cast<double>(r.sentinel.windows)),
        "ratio");
  m.set("obs.escalations", static_cast<double>(r.sentinel.escalations),
        "count");
  m.set("obs.violations", static_cast<double>(r.sentinel.violations), "count");

  // dist: routing, 1PC/2PC, decision log.
  m.set("dist.commit_us.local.p50",
        percentile(durations(SpanKind::kDistCommitLocal), 0.50), "us");
  m.set("dist.commit_us.local.p99",
        percentile(durations(SpanKind::kDistCommitLocal), 0.99), "us");
  m.set("dist.commit_us.cross.p50",
        percentile(durations(SpanKind::kDistCommitCross), 0.50), "us");
  m.set("dist.commit_us.cross.p99",
        percentile(durations(SpanKind::kDistCommitCross), 0.99), "us");
  m.set("dist.read_us.p50", percentile(durations(SpanKind::kDistRead), 0.50),
        "us");
  m.set("dist.write_us.p50", percentile(durations(SpanKind::kDistWrite), 0.50),
        "us");
  m.set("dist.txn_us.cross.p50", percentile(r.cross_us, 0.50), "us");
  m.set("dist.txn_us.cross.p99", percentile(r.cross_us, 0.99), "us");
  const double dist_commits = static_cast<double>(r.dist.one_phase_commits +
                                                  r.dist.two_pc_commits);
  m.set("dist.forces_per_commit",
        ratio(static_cast<double>(r.group.forces + r.group.prepared_forces +
                                  r.decisions_logged),
              dist_commits),
        "ratio");
  m.set("dist.two_pc_share",
        ratio(static_cast<double>(r.dist.two_pc_commits), dist_commits),
        "ratio");
  m.set("dist.decisions_outstanding",
        static_cast<double>(r.decisions_outstanding), "count");
  m.set("dist.self_us_per_commit", ratio(s.dist_self_us, committed), "us");

  // bench: the benchmark's own task code between runtime calls.
  m.set("bench.body_self_us_per_commit", ratio(s.bench_self_us, committed),
        "us");
  m.set("bench.spans_per_commit",
        ratio(static_cast<double>(r.spans.size()), committed), "ratio");
  return m;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string metrics_json(const Metrics& m,
                         const std::vector<std::string>& names) {
  std::string out = "{";
  for (const std::string& name : names) {
    const auto& [v, unit] = m.values.at(name);
    if (out.size() > 1) out += ", ";
    out += json_string(name) + ": {\"value\": " + json_number(v) +
           ", \"unit\": " + json_string(unit) + "}";
  }
  return out + "}";
}

std::string provenance_json(const Provenance& p, const Args& a,
                            Workload w, std::uint64_t digest,
                            const DiskModel& disk, double force_us) {
  char digest_hex[32];
  std::snprintf(digest_hex, sizeof digest_hex, "%016" PRIx64, digest);
  std::ostringstream o;
  o << "{\"workload\": " << json_string(to_string(w))
    << ", \"seed\": " << a.seed
    << ", \"task_digest\": " << json_string(digest_hex)
    << ", \"build_type\": " << json_string(p.build_type)
    << ", \"compiler\": " << json_string(p.compiler)
    << ", \"sanitizer\": " << json_string(p.sanitizer)
    << ", \"nproc\": " << p.nproc
    << ", \"source\": " << json_string(a.source)
    << ", \"force_us_modelled\": " << json_number(disk.modelled_us())
    << ", \"force_us_measured\": " << json_number(force_us) << "}";
  return o.str();
}

int run(const Args& a) {
  const Workload w = parse_workload(a.workload);
  const std::vector<TaskSpec> tasks = generate_tasks(w, a.seed);
  const std::uint64_t digest = task_digest(tasks);
  if (a.digest_only) {
    std::printf("%016" PRIx64 "\n", digest);
    return 0;
  }

  const Provenance prov = build_provenance();
  if (const std::string why = refusal_reason(prov); !why.empty()) {
    std::fprintf(stderr, "perfbench: refusing to measure a %s\n", why.c_str());
    return 3;
  }
  const DiskModel disk = disk_of(w);
  const double force_us = calibrate_force_us(disk, kCalibrationForces);
  const std::string prov_json =
      provenance_json(prov, a, w, digest, disk, force_us);
  std::printf("provenance %s\n", prov_json.c_str());
  std::fflush(stdout);

  const int workers = shape_of(w).workers;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  auto check = [&](const RoundResult& r) {
    for (const std::string& e : r.errors) errors.push_back(e);
  };

  check(run_round(w, tasks, false));  // warm-up: caches, allocator, threads

  EndToEnd plain;
  EndToEnd traced_e2e;  // only its throughput is used: trace overhead
  std::vector<Metrics> layered;
  std::vector<Span> last_spans;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(a.seconds * 1e9);
  for (int round = 0;; ++round) {
    const bool traced = a.trace && round % 2 == 1;
    RoundResult r = run_round(w, tasks, traced);
    check(r);
    attempted += r.submitted;
    failed += r.failed;
    std::fprintf(stderr,
                 "round %d%s: %.0f txn/s, update p50 %.1f us p99 %.1f us, "
                 "max attempts %" PRIu64 "\n",
                 round, traced ? " (traced)" : "",
                 ratio(static_cast<double>(r.committed), r.wall_s),
                 percentile(r.update_us, 0.50), percentile(r.update_us, 0.99),
                 r.max_attempts);
    if (traced) {
      layered.push_back(per_layer(r, workers));
      traced_e2e.add(r);
      last_spans = std::move(r.spans);
    } else {
      plain.add(r);
    }
    if (!errors.empty()) break;
    const bool enough =
        static_cast<int>(plain.setup_s.size()) >= kMinRounds &&
        (!a.trace || static_cast<int>(layered.size()) >= kMinRounds);
    if (enough && now_ns() >= deadline) break;
  }
  if (!errors.empty()) {
    for (const std::string& e : errors) {
      std::fprintf(stderr, "perfbench: CHECK FAILED (%s): %s\n",
                   a.workload.c_str(), e.c_str());
    }
    return 1;
  }

  Metrics e2e = plain.metrics();
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  e2e.set("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB");
  for (const std::string& name : e2e.order) {
    const auto& [v, unit] = e2e.values.at(name);
    std::printf("metric %s %.6g %s\n", name.c_str(), v, unit.c_str());
  }
  std::printf("rounds %zu untraced, %zu traced; %" PRIu64 " tasks\n",
              plain.setup_s.size(), layered.size(), attempted);

  const std::vector<std::string> reported = {
      "throughput_tps", "update_p50_us", "update_p99_us",
      "cpu_us_per_txn", "peak_rss_mb",   "setup_s"};
  std::string metrics;
  if (a.trace) {
    Metrics layer = median_of(layered);
    layer.set("txn.force_us_modelled", disk.modelled_us(), "us");
    layer.set("txn.force_us_measured", force_us, "us");
    layer.set("bench.trace_overhead",
              ratio(traced_e2e.metrics().values.at("throughput_tps").first,
                    e2e.values.at("throughput_tps").first),
              "ratio");
    for (const std::string& name : layer.order) {
      const auto& [v, unit] = layer.values.at(name);
      std::printf("layer %s %.6g %s\n", name.c_str(), v, unit.c_str());
    }
    metrics = metrics_json(layer, layer.order);
    std::filesystem::create_directories(a.out_dir);
    const std::string stem = a.out_dir + "/" + a.workload + "-seed" +
                             std::to_string(a.seed);
    std::ofstream(stem + ".trace.json")
        << "{\"provenance\": " << prov_json << ", \"metrics\": " << metrics
        << "}\n";
    write_spans(stem + ".spans.tsv", last_spans, kSpanDumpTasks);
    std::printf("trace written to %s.trace.json and %s.spans.tsv\n",
                stem.c_str(), stem.c_str());
  } else {
    metrics = metrics_json(e2e, reported);
  }
  std::printf("{\"correct\": true, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              attempted, failed, metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}

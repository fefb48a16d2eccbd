// Shared helpers for the experiment binaries (E1..E14, see EXPERIMENTS.md
// and DESIGN.md §5 for the paper-claim each reproduces).
#pragma once

#include <benchmark/benchmark.h>
#include <errno.h>  // program_invocation_short_name (GNU)

#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "sim/metrics.h"

#ifndef ARGUS_BENCH_BUILD_TYPE
#define ARGUS_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef ARGUS_BENCH_SANITIZER
#define ARGUS_BENCH_SANITIZER "unknown"
#endif

namespace argus::bench {

/// Machine-readable mirror of every counter published via report*():
/// rewritten after each report to BENCH_<binary>.json in the repository
/// root (ARGUS_BENCH_JSON_DIR, set by bench/CMakeLists.txt; falls back
/// to the working directory when unset), so the perf trajectory can be
/// diffed across PRs without scraping the human-oriented console table —
/// and so CI finds every artifact in one place no matter which directory
/// the binary ran from. A leading "_provenance" entry names the build
/// type, the host's hardware concurrency and the sanitizer ("none" when
/// ARGUS_SANITIZE is unset), so a number is never read without them.
class JsonSink {
 public:
  static JsonSink& instance() {
    static JsonSink sink;
    return sink;
  }

  void update(const std::string& bench_name,
              const std::map<std::string, double>& counters) {
    const std::scoped_lock lock(mu_);
    auto& slot = results_[bench_name];
    for (const auto& [k, v] : counters) slot[k] = v;
    write_locked();
  }

 private:
  static std::string escape(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  }

  void write_locked() const {
#ifdef ARGUS_BENCH_JSON_DIR
    const std::string dir = std::string(ARGUS_BENCH_JSON_DIR) + "/";
#else
    const std::string dir;
#endif
    std::ofstream out(dir + "BENCH_" + program_invocation_short_name +
                      ".json");
    out << "{\n  \"_provenance\": {\"build_type\": \""
        << escape(ARGUS_BENCH_BUILD_TYPE)
        << "\", \"nproc\": " << std::thread::hardware_concurrency()
        << ", \"sanitizer\": \"" << escape(ARGUS_BENCH_SANITIZER) << "\"}";
    for (const auto& [name, counters] : results_) {
      out << ",\n  \"" << escape(name) << "\": {";
      bool first = true;
      for (const auto& [k, v] : counters) {
        if (!first) out << ", ";
        first = false;
        out << "\"" << escape(k) << "\": " << v;
      }
      out << "}";
    }
    out << "\n}\n";
  }

  std::mutex mu_;
  std::map<std::string, std::map<std::string, double>> results_;
};

/// Publishes the WorkloadResult on the benchmark's counters so the
/// regenerated "table" carries the quantities the paper's qualitative
/// claims are about: throughput, abort breakdown, deadlocks — plus the
/// commit-pipeline stage counters. Also mirrors them to BENCH_*.json
/// under `key` (callers build it from the benchmark's config — the State
/// object does not expose its own name in this library version).
inline void report(benchmark::State& state, const WorkloadResult& result,
                   const std::string& key) {
  std::map<std::string, double> counters;
  counters["txn_per_s"] = result.throughput();
  counters["committed"] = static_cast<double>(result.committed);
  counters["aborted"] = static_cast<double>(result.aborted);
  counters["abort_rate"] = result.abort_rate();
  counters["deadlocks"] = static_cast<double>(result.deadlocks);
  counters["gave_up"] = static_cast<double>(result.gave_up);
  auto reason_count = [&](AbortReason reason) {
    auto it = result.aborts_by_reason.find(reason);
    return it == result.aborts_by_reason.end() ? 0.0
                                               : static_cast<double>(it->second);
  };
  counters["abort_deadlock"] = reason_count(AbortReason::kDeadlock);
  counters["abort_tsorder"] = reason_count(AbortReason::kTimestampOrder);
  counters["abort_timeout"] = reason_count(AbortReason::kWaitTimeout);
  counters["abort_validation"] = reason_count(AbortReason::kValidation);
  counters["retries"] = static_cast<double>(result.executor.retries);
  counters["validation_aborts"] =
      static_cast<double>(result.executor.validation_aborts);
  if (result.pipeline.commits > 0) {
    counters["pipeline_commits"] =
        static_cast<double>(result.pipeline.commits);
    counters["log_forces"] = static_cast<double>(result.pipeline.log_forces);
    counters["avg_batch"] = result.pipeline.avg_batch();
    counters["max_batch"] = static_cast<double>(result.pipeline.max_batch);
    counters["watermark_lag"] =
        static_cast<double>(result.pipeline.watermark_lag());
  }
  for (const auto& [k, v] : counters) state.counters[k] = v;
  JsonSink::instance().update(key, counters);
}

/// Adds a label's committed throughput and latency to the counters.
inline void report_label(benchmark::State& state, const WorkloadResult& result,
                         const std::string& label, const std::string& key) {
  auto it = result.by_label.find(label);
  if (it == result.by_label.end()) return;
  std::map<std::string, double> counters;
  counters[label + "_committed"] =
      static_cast<double>(it->second.committed);
  counters[label + "_aborted"] = static_cast<double>(it->second.aborted);
  counters[label + "_lat_us"] = it->second.latency.mean();
  counters[label + "_p95_us"] = it->second.latency.percentile(0.95);
  for (const auto& [k, v] : counters) state.counters[k] = v;
  JsonSink::instance().update(key, counters);
}

}  // namespace argus::bench

#include "trace.h"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

namespace {

std::atomic<std::uint64_t> g_generation{0};

/// The calling thread's buffer, cached per Tracer generation so a thread
/// that outlives one round never writes into the next round's buffers.
struct ThreadSlot {
  std::uint64_t generation{0};
  std::vector<Span>* buffer{nullptr};
};
thread_local ThreadSlot t_slot;

bool is_invoke(SpanKind k) {
  return k == SpanKind::kInvokeWithdraw || k == SpanKind::kInvokeDeposit ||
         k == SpanKind::kInvokeBalance;
}

bool is_dist_call(SpanKind k) {
  return k == SpanKind::kDistRead || k == SpanKind::kDistWrite ||
         k == SpanKind::kDistCommitLocal || k == SpanKind::kDistCommitCross;
}

double duration_us(const Span& s) {
  return static_cast<double>(s.end_ns - s.start_ns) / 1000.0;
}

}  // namespace

const char* to_string(SpanKind k) {
  switch (k) {
    case SpanKind::kTask:
      return "sched.task";
    case SpanKind::kAttempt:
      return "sched.attempt";
    case SpanKind::kInvokeWithdraw:
      return "core.invoke.withdraw";
    case SpanKind::kInvokeDeposit:
      return "core.invoke.deposit";
    case SpanKind::kInvokeBalance:
      return "core.invoke.balance";
    case SpanKind::kDistTxn:
      return "dist.txn";
    case SpanKind::kDistRead:
      return "dist.read";
    case SpanKind::kDistWrite:
      return "dist.write";
    case SpanKind::kDistCommitLocal:
      return "dist.commit.local";
    case SpanKind::kDistCommitCross:
      return "dist.commit.cross";
  }
  return "?";
}

Tracer::Tracer(std::size_t threads, std::size_t reserve)
    : generation_(g_generation.fetch_add(1) + 1), buffers_(threads) {
  for (auto& b : buffers_) b.reserve(reserve);
}

std::vector<Span>& Tracer::buffer_for_this_thread() {
  if (t_slot.generation == generation_) return *t_slot.buffer;
  const std::size_t i = next_buffer_.fetch_add(1);
  if (i >= buffers_.size()) {
    throw std::logic_error("perfbench: more recording threads than buffers");
  }
  t_slot = ThreadSlot{generation_, &buffers_[i]};
  return buffers_[i];
}

void Tracer::record(SpanKind kind, std::uint32_t task, std::int64_t start_ns,
                    std::int64_t end_ns, bool aborted,
                    argus::AbortReason reason) {
  buffer_for_this_thread().push_back(
      Span{start_ns, end_ns, task, kind, aborted, reason});
}

std::vector<Span> Tracer::collect() const {
  std::vector<Span> all;
  for (const auto& b : buffers_) all.insert(all.end(), b.begin(), b.end());
  return all;
}

LayerSummary summarize(const std::vector<Span>& spans) {
  LayerSummary out;
  struct PerTask {
    double top_us{0};  // task or dist txn span
    double attempts_us{0};
    double invokes_us{0};
    double dist_us{0};
    bool has_task{false};
    bool has_dist_txn{false};
  };
  std::unordered_map<std::uint32_t, PerTask> tasks;
  tasks.reserve(spans.size() / 2);
  for (const Span& s : spans) {
    const auto k = static_cast<std::size_t>(s.kind);
    const double d = duration_us(s);
    ++out.count[k];
    if (s.aborted && is_invoke(s.kind)) {
      ++out.invoke_aborts[argus::to_string(s.reason)];
    }
    out.total_us[k] += d;
    out.durations_us[k].push_back(d);
    PerTask& t = tasks[s.task];
    if (s.kind == SpanKind::kTask) {
      t.top_us = d;
      t.has_task = true;
    } else if (s.kind == SpanKind::kDistTxn) {
      t.top_us = d;
      t.has_dist_txn = true;
    } else if (s.kind == SpanKind::kAttempt) {
      t.attempts_us += d;
    } else if (is_invoke(s.kind)) {
      t.invokes_us += d;
    } else if (is_dist_call(s.kind)) {
      t.dist_us += d;
    }
  }
  for (const auto& [id, t] : tasks) {
    if (t.has_task) {
      const double manager = std::max(0.0, t.top_us - t.attempts_us);
      out.txn_self_us += manager;
      out.manager_us.push_back(manager);
      out.bench_self_us += std::max(0.0, t.attempts_us - t.invokes_us);
      out.core_self_us += t.invokes_us;
    } else if (t.has_dist_txn) {
      out.dist_self_us += t.dist_us;
      out.bench_self_us += std::max(0.0, t.top_us - t.dist_us);
    }
  }
  return out;
}

void write_spans(const std::string& path, const std::vector<Span>& spans,
                 std::uint32_t max_task) {
  std::int64_t origin = 0;
  bool first = true;
  for (const Span& s : spans) {
    if (first || s.start_ns < origin) origin = s.start_ns;
    first = false;
  }
  std::ofstream out(path);
  if (!out) throw std::runtime_error("perfbench: cannot write " + path);
  out << "task\tspan\tstart_ns\tend_ns\taborted\n";
  for (const Span& s : spans) {
    if (s.task >= max_task) continue;
    out << s.task << '\t' << to_string(s.kind) << '\t' << s.start_ns - origin
        << '\t' << s.end_ns - origin << '\t' << (s.aborted ? 1 : 0) << '\n';
  }
}

}  // namespace perfbench

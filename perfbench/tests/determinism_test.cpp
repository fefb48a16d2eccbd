// Workload determinism: for a fixed seed the generated task list (labels,
// kinds, per-task seeds, account picks) hashes the same on every call,
// and a different seed gives a different list. Also checks the shape
// invariants the runners rely on. Exits non-zero on the first failure.
#include <cstdio>
#include <set>

#include "tasks.h"

using namespace perfbench;

namespace {

int failures = 0;

void expect(bool ok, const char* what, const char* workload) {
  if (!ok) {
    std::fprintf(stderr, "FAIL %s: %s\n", workload, what);
    ++failures;
  }
}

}  // namespace

int main() {
  for (Workload w : {Workload::kCertifiedCommit, Workload::kSnapshotAudit,
                     Workload::kLockDurable, Workload::kMultisite2pc}) {
    const char* name = to_string(w);
    const WorkloadShape shape = shape_of(w);
    const auto a = generate_tasks(w, 42);
    const auto b = generate_tasks(w, 42);
    const auto c = generate_tasks(w, 43);
    expect(task_digest(a) == task_digest(b), "same seed, same digest", name);
    expect(task_digest(a) != task_digest(c), "new seed, new digest", name);
    expect(a.size() == shape.tasks, "task count matches the shape", name);
    expect(parse_workload(name) == w, "name round-trips", name);

    std::set<std::uint64_t> seeds;
    std::size_t audits = 0;
    std::size_t cross = 0;
    bool picks_ok = true;
    for (const TaskSpec& t : a) {
      seeds.insert(t.seed);
      if (t.kind == TaskKind::kAudit) {
        ++audits;
        continue;
      }
      picks_ok = picks_ok && t.from != t.to && t.from < kAccounts &&
                 t.to < kAccounts && t.amount >= 1 && t.amount <= 10;
      if (shape.sites > 1) {
        const bool crosses = t.from % shape.sites != t.to % shape.sites;
        picks_ok = picks_ok && crosses == t.cross;
        if (t.cross) ++cross;
      }
    }
    expect(picks_ok, "transfer endpoints valid and placed as labelled", name);
    expect(seeds.size() == a.size(), "per-task seeds distinct", name);
    const double audit_share =
        static_cast<double>(audits) / static_cast<double>(a.size());
    const double want_audits = shape.audit_permille / 1000.0;
    expect(audit_share > want_audits - 0.03 && audit_share < want_audits + 0.03,
           "audit share near the shape's", name);
    if (shape.sites > 1) {
      const double cross_share =
          static_cast<double>(cross) / static_cast<double>(a.size());
      expect(cross_share > 0.2 && cross_share < 0.3, "about 25% cross-site",
             name);
    }
  }
  if (failures == 0) std::printf("determinism_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}

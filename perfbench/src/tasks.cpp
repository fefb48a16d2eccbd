#include "tasks.h"

#include <stdexcept>

#include "common/rng.h"

namespace perfbench {

namespace {

struct Fnv1a {
  std::uint64_t h{0xcbf29ce484222325ULL};
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  void add(const char* s) {
    for (; *s != '\0'; ++s) {
      h ^= static_cast<unsigned char>(*s);
      h *= 0x100000001b3ULL;
    }
    add(std::uint64_t{0});  // terminator: "ab"+"c" and "a"+"bc" hash differently
  }
};

/// Two distinct indices in {base, base+stride, base+2*stride, ...} below
/// `count` accounts.
void pick_pair(argus::SplitMix64& rng, std::uint32_t base,
               std::uint32_t stride, std::uint32_t count, TaskSpec& t) {
  const std::uint32_t span = (count - base + stride - 1) / stride;
  const auto a = static_cast<std::uint32_t>(rng.below(span));
  auto b = static_cast<std::uint32_t>(rng.below(span - 1));
  if (b >= a) ++b;
  t.from = base + a * stride;
  t.to = base + b * stride;
}

}  // namespace

Workload parse_workload(const std::string& name) {
  for (Workload w : {Workload::kCertifiedCommit, Workload::kSnapshotAudit,
                     Workload::kLockDurable, Workload::kMultisite2pc}) {
    if (name == to_string(w)) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

const char* to_string(Workload w) {
  switch (w) {
    case Workload::kCertifiedCommit:
      return "certified_commit";
    case Workload::kSnapshotAudit:
      return "snapshot_audit";
    case Workload::kLockDurable:
      return "lock_durable";
    case Workload::kMultisite2pc:
      return "multisite_2pc";
  }
  return "?";
}

// Sizes keep one round near half a second on a 4-core host, so a run of
// a few seconds pools many rounds. Two client threads (plus the sentinel
// in certified_commit; three on lock_durable, which sleeps in log forces
// and uses about half a core) leave at least one core of headroom. On a
// host whose vCPUs are stolen for milliseconds at a time, a workload with
// a runnable thread per core collapses from lock-holder preemption
// (throughput fell 4x in such runs), which no amount of repetition
// steadies.
WorkloadShape shape_of(Workload w) {
  WorkloadShape s;
  switch (w) {
    case Workload::kCertifiedCommit:
      s.workers = 2;
      s.tasks = 40000;
      break;
    case Workload::kSnapshotAudit:
      s.workers = 2;
      s.tasks = 5000;
      s.audit_permille = 143;  // about 6 transfers per audit
      s.read_only_audits = true;
      break;
    case Workload::kLockDurable:
      s.workers = 3;
      s.tasks = 10000;
      s.audit_permille = 143;
      break;
    case Workload::kMultisite2pc:
      s.workers = 2;
      s.tasks = 3000;
      s.cross_permille = 250;
      s.sites = 2;
      break;
  }
  return s;
}

const char* label_of(const TaskSpec& t) {
  if (t.kind == TaskKind::kAudit) return "audit";
  return t.cross ? "cross" : "transfer";
}

std::vector<TaskSpec> generate_tasks(Workload w, std::uint64_t seed) {
  const WorkloadShape s = shape_of(w);
  Fnv1a name_hash;
  name_hash.add(to_string(w));
  argus::SplitMix64 rng(seed ^ name_hash.h);
  std::vector<TaskSpec> tasks(s.tasks);
  for (TaskSpec& t : tasks) {
    if (rng.below(1000) < s.audit_permille) {
      t.kind = TaskKind::kAudit;
      t.txn_kind = s.read_only_audits ? argus::TxnKind::kReadOnly
                                      : argus::TxnKind::kUpdate;
    } else if (s.sites > 1) {
      // Account j lives on site j % sites (round-robin placement).
      const auto site = static_cast<std::uint32_t>(rng.below(s.sites));
      t.cross = rng.below(1000) < s.cross_permille;
      pick_pair(rng, site, s.sites, kAccounts, t);
      if (t.cross) {
        const std::uint32_t other =
            (site + 1 + static_cast<std::uint32_t>(rng.below(s.sites - 1))) %
            s.sites;
        t.to = t.to - site + other;
      }
    } else {
      pick_pair(rng, 0, 1, kAccounts, t);
    }
    t.amount = rng.range(1, 10);
    t.seed = rng.next();
  }
  return tasks;
}

std::uint64_t task_digest(const std::vector<TaskSpec>& tasks) {
  Fnv1a f;
  for (const TaskSpec& t : tasks) {
    f.add(label_of(t));
    f.add(static_cast<std::uint64_t>(t.txn_kind));
    f.add((static_cast<std::uint64_t>(t.from) << 32) | t.to);
    f.add(static_cast<std::uint64_t>(t.amount));
    f.add(t.seed);
  }
  return f.h;
}

}  // namespace perfbench

// Seeded task lists for the benchmark workloads.
//
// A workload's whole input is a list of TaskSpecs generated from the run
// seed before any runtime exists; the runtime only ever sees these tasks.
// The list is a pure function of (workload, seed), and task_digest()
// fingerprints it so every result names the exact input it measured.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "txn/transaction.h"

namespace perfbench {

enum class Workload {
  kCertifiedCommit,
  kSnapshotAudit,
  kLockDurable,
  kMultisite2pc,
};

/// Parses a workload name; throws std::invalid_argument on an unknown one.
Workload parse_workload(const std::string& name);
const char* to_string(Workload w);

/// Bank accounts in every workload.
inline constexpr std::uint32_t kAccounts = 16;

/// Everything that sizes and shapes one workload.
struct WorkloadShape {
  int workers{3};               // executor workers / client threads
  std::uint32_t tasks{0};       // transactions per round
  std::uint32_t audit_permille{0};  // share of tasks that are audits
  bool read_only_audits{false};
  std::uint32_t cross_permille{0};  // multisite: cross-site transfers
  std::uint32_t sites{0};           // multisite: sites (accounts round-robin)
};

WorkloadShape shape_of(Workload w);

enum class TaskKind : std::uint8_t { kTransfer, kAudit };

struct TaskSpec {
  TaskKind kind{TaskKind::kTransfer};
  argus::TxnKind txn_kind{argus::TxnKind::kUpdate};
  bool cross{false};         // multisite: endpoints on different sites
  std::uint32_t from{0};     // account indices (transfers)
  std::uint32_t to{0};
  std::int64_t amount{0};
  std::uint64_t seed{0};     // per-task executor seed
};

/// "transfer", "audit", or for multisite "local" / "cross".
const char* label_of(const TaskSpec& t);

std::vector<TaskSpec> generate_tasks(Workload w, std::uint64_t seed);

/// FNV-1a over every field of every task, in order.
std::uint64_t task_digest(const std::vector<TaskSpec>& tasks);

}  // namespace perfbench

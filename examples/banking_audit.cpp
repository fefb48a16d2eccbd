// The Lamport banking example (§4.3.3): transfers + audits, three ways.
//
// Runs the same workload — concurrent transfer transactions and
// whole-bank audit activities — under dynamic, static and hybrid
// atomicity, and prints the comparison the paper argues qualitatively:
// under locking (dynamic) the audits block updates and risk deadlock;
// under static the audits are safe but updates pay timestamp aborts;
// under hybrid the audits are invisible to updates and every audit sees
// a consistent total.
//
// Build & run:  ./build/examples/banking_audit
#include <iostream>

#include "sim/scenarios.h"
#include "sim/workload.h"
#include "spec/adts/bank_account.h"

int main() {
  using namespace argus;

  constexpr int kAccounts = 12;
  constexpr std::int64_t kInitial = 500;
  constexpr std::int64_t kExpectedTotal = kAccounts * kInitial;

  for (Protocol protocol :
       {Protocol::kDynamic, Protocol::kStatic, Protocol::kHybrid}) {
    Runtime rt(Runtime::RecorderMode::kOff);
    auto bank = BankScenario::create(rt, protocol, kAccounts, kInitial);
    rt.set_wait_timeout_all(std::chrono::milliseconds(200));

    WorkloadOptions options;
    options.threads = 4;
    options.transactions_per_thread = 150;
    options.seed = 1983;
    WorkloadDriver driver(rt, options);
    const auto result = driver.run({
        bank.transfer_mix(5, 4),
        bank.audit_mix(supports_snapshot_reads(protocol), 1),
    });

    std::cout << "=== " << to_string(protocol) << " atomicity ===\n"
              << "  " << result.summary() << "\n";
    for (const auto& [label, stats] : result.by_label) {
      std::cout << "  " << label << ": committed=" << stats.committed
                << " aborted=" << stats.aborted
                << " mean_latency_us=" << stats.latency.mean() << "\n";
    }

    // Every protocol must preserve the invariant; the difference is the
    // price paid to do so.
    const std::int64_t total =
        bank.total_balance(rt, supports_snapshot_reads(protocol));
    std::cout << "  final audit total = " << total << " (expected "
              << kExpectedTotal << ")\n\n";
    if (total != kExpectedTotal) return 1;
  }
  return 0;
}

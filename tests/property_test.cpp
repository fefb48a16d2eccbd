// Property tests: the bridge between implementation and theory. Random
// concurrent workloads run against each protocol with history recording
// on; the captured history must satisfy the protocol's local atomicity
// property *as formally defined* (and its alphabet's well-formedness
// rules). This is Theorem 1/4/5 exercised end-to-end.
#include <gtest/gtest.h>

#include <thread>

#include "check/atomicity.h"
#include "check/random_history.h"
#include "hist/wellformed.h"
#include "sched/factory.h"
#include "sim/certifier.h"
#include "sim/scenarios.h"
#include "spec/adts/bank_account.h"
#include "spec/adts/fifo_queue.h"
#include "spec/adts/int_set.h"
#include "spec/adts/kv_store.h"
#include "test_util.h"

namespace argus {
namespace {

Operation random_read_only_op(const std::string& adt, SplitMix64& rng) {
  if (adt == "int_set") return op("member", rng.range(0, 3));
  if (adt == "bank_account") return op("balance");
  if (adt == "kv_store") {
    return rng.chance(1, 2) ? op("get", rng.range(0, 2))
                            : op("contains", rng.range(0, 2));
  }
  return op("balance");
}

struct RunResult {
  History history;
  SystemSpec system;
  std::unordered_set<ActivityId> read_only;
};

/// Runs a small concurrent workload (3 threads x 2 transactions) against
/// one object under `protocol`, with random operations, occasional user
/// aborts, and (for snapshot protocols) occasional read-only
/// transactions. Small on purpose: the checkers enumerate activity
/// orders.
template <AdtTraits A>
RunResult run_property_workload(Protocol protocol, const std::string& adt,
                                std::uint64_t seed,
                                bool with_faults = false) {
  Runtime rt;
  auto obj = make_object<A>(rt, protocol, "x");
  if (auto base = std::dynamic_pointer_cast<ObjectBase>(obj)) {
    base->set_wait_timeout(std::chrono::milliseconds(1000));
  }
  if (with_faults) {
    // The stable log misbehaves: transient force failures (retried, and
    // sometimes exhausted into io-error aborts) and torn batch tails.
    // Faults may abort transactions, never corrupt the history — the
    // property checks below are identical either way.
    FaultPlan plan;
    plan.seed = seed * 2654435761ULL + static_cast<std::uint64_t>(protocol);
    plan.force_fail_permille = 250;
    plan.force_max_retries = 1;
    plan.force_retry_backoff_us = 5;
    plan.torn_batch_permille = 300;
    rt.set_fault_injector(std::make_shared<FaultInjector>(plan));
  }

  RunResult out;
  std::mutex ro_mu;

  auto worker = [&](int index) {
    SplitMix64 rng(seed * 1000003ULL + static_cast<std::uint64_t>(index));
    for (int k = 0; k < 2; ++k) {
      const bool read_only =
          supports_snapshot_reads(protocol) && rng.chance(1, 3);
      auto txn = read_only ? rt.begin_read_only() : rt.begin();
      if (read_only) {
        const std::scoped_lock lock(ro_mu);
        out.read_only.insert(txn->id());
      }
      try {
        const int ops = static_cast<int>(rng.range(1, 3));
        for (int i = 0; i < ops; ++i) {
          const Operation o = read_only ? random_read_only_op(adt, rng)
                                        : random_operation(adt, rng);
          obj->invoke(*txn, o);
          // Hold the transaction open briefly so workers genuinely
          // overlap — otherwise each finishes before the next begins and
          // the property is tested only on near-serial histories.
          std::this_thread::sleep_for(
              std::chrono::microseconds(rng.range(0, 300)));
        }
        if (!read_only && rng.chance(1, 5)) {
          rt.abort(txn);
        } else {
          rt.commit(txn);
        }
      } catch (const TransactionAborted&) {
        rt.abort(txn);
      }
    }
  };

  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i) threads.emplace_back(worker, i);
  for (auto& t : threads) t.join();

  out.history = rt.history();
  out.system.add_object(obj->id(), adt);
  return out;
}

template <AdtTraits A>
void check_protocol_property(Protocol protocol, const std::string& adt,
                             std::uint64_t seed, bool with_faults = false) {
  const RunResult run =
      run_property_workload<A>(protocol, adt, seed, with_faults);
  const History& h = run.history;

  // OCC/MVCC updates serialize at commit timestamps (validation runs at
  // the pipeline turn) and MVCC reads at initiation snapshots — exactly
  // the hybrid atomicity property, which is what the certifier checks.
  Certifier cert;
  const auto verdict =
      cert.check_history(protocol, run.system, h, run.read_only);
  ASSERT_TRUE(verdict.well_formed) << cert.failure() << "\n" << h.to_string();
  EXPECT_TRUE(verdict.atomic) << cert.failure() << "\n" << h.to_string();
}

class ProtocolProperty
    : public ::testing::TestWithParam<std::tuple<Protocol, std::uint64_t>> {};

TEST_P(ProtocolProperty, IntSetHistoriesSatisfyLocalProperty) {
  const auto& [protocol, seed] = GetParam();
  check_protocol_property<IntSetAdt>(protocol, "int_set", seed);
}

TEST_P(ProtocolProperty, BankAccountHistoriesSatisfyLocalProperty) {
  const auto& [protocol, seed] = GetParam();
  check_protocol_property<BankAccountAdt>(protocol, "bank_account", seed + 77);
}

TEST_P(ProtocolProperty, KVStoreHistoriesSatisfyLocalProperty) {
  const auto& [protocol, seed] = GetParam();
  check_protocol_property<KVStoreAdt>(protocol, "kv_store", seed + 154);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ProtocolProperty,
    ::testing::Combine(::testing::Values(Protocol::kDynamic, Protocol::kStatic,
                                         Protocol::kHybrid,
                                         Protocol::kTwoPhase,
                                         Protocol::kCommutativity,
                                         Protocol::kTimestamp, Protocol::kOcc,
                                         Protocol::kMvcc),
                       ::testing::Range<std::uint64_t>(1, 9)),
    [](const auto& info) {
      std::string name = to_string(std::get<0>(info.param)) + "_seed" +
                         std::to_string(std::get<1>(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// The same property sweep under injected stable-log faults: force
// failures and torn tails shrink the committed set but must leave every
// checker verdict unchanged — a fault is just another way to abort.
class ProtocolPropertyUnderFaults
    : public ::testing::TestWithParam<std::tuple<Protocol, std::uint64_t>> {};

TEST_P(ProtocolPropertyUnderFaults, IntSetHistoriesStillSatisfyProperty) {
  const auto& [protocol, seed] = GetParam();
  check_protocol_property<IntSetAdt>(protocol, "int_set", seed,
                                     /*with_faults=*/true);
}

TEST_P(ProtocolPropertyUnderFaults, BankAccountHistoriesStillSatisfyProperty) {
  const auto& [protocol, seed] = GetParam();
  check_protocol_property<BankAccountAdt>(protocol, "bank_account", seed + 77,
                                          /*with_faults=*/true);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ProtocolPropertyUnderFaults,
    ::testing::Combine(::testing::Values(Protocol::kDynamic, Protocol::kStatic,
                                         Protocol::kHybrid,
                                         Protocol::kTwoPhase,
                                         Protocol::kCommutativity,
                                         Protocol::kTimestamp, Protocol::kOcc,
                                         Protocol::kMvcc),
                       ::testing::Range<std::uint64_t>(1, 5)),
    [](const auto& info) {
      std::string name = to_string(std::get<0>(info.param)) + "_seed" +
                         std::to_string(std::get<1>(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// Hybrid queue histories, separately (type-specific object).
class HybridQueueProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HybridQueueProperty, HistoriesAreHybridAtomic) {
  const std::uint64_t seed = GetParam();
  Runtime rt;
  auto q = rt.create_hybrid_queue("q");
  q->set_wait_timeout(std::chrono::milliseconds(500));

  // Seed items so dequeues rarely block at the tail.
  {
    auto t = rt.begin();
    for (int i = 0; i < 8; ++i) q->invoke(*t, fifo::enqueue(100 + i));
    rt.commit(t);
  }

  std::mutex ro_mu;
  std::unordered_set<ActivityId> read_only;
  auto worker = [&](int index) {
    SplitMix64 rng(seed * 7919ULL + static_cast<std::uint64_t>(index));
    for (int k = 0; k < 2; ++k) {
      const bool ro = rng.chance(1, 4);
      auto txn = ro ? rt.begin_read_only() : rt.begin();
      if (ro) {
        const std::scoped_lock lock(ro_mu);
        read_only.insert(txn->id());
      }
      try {
        if (ro) {
          q->invoke(*txn, fifo::size());
        } else {
          const int ops = static_cast<int>(rng.range(1, 2));
          for (int i = 0; i < ops; ++i) {
            if (rng.chance(2, 3)) {
              q->invoke(*txn, fifo::enqueue(rng.range(0, 9)));
            } else {
              q->invoke(*txn, fifo::dequeue());
            }
          }
        }
        if (!ro && rng.chance(1, 5)) {
          rt.abort(txn);
        } else {
          rt.commit(txn);
        }
      } catch (const TransactionAborted&) {
        rt.abort(txn);
      }
    }
  };
  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i) threads.emplace_back(worker, i);
  for (auto& t : threads) t.join();

  const History h = rt.history();
  const auto wf = check_well_formed_hybrid(h, read_only);
  ASSERT_TRUE(wf.ok()) << wf.summary() << "\n" << h.to_string();
  const auto verdict = check_hybrid_atomic(rt.system(), h);
  EXPECT_TRUE(verdict.ok) << verdict.explanation << "\n" << h.to_string();
}

INSTANTIATE_TEST_SUITE_P(Seeds, HybridQueueProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

// Recovery property: random workload, crash at a random point, recover,
// and the surviving state equals a replay of exactly the committed
// transactions.
class RecoveryProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RecoveryProperty, RecoveredStateMatchesCommittedLog) {
  const std::uint64_t seed = GetParam();
  Runtime rt(Runtime::RecorderMode::kOff);
  auto acct = rt.create_dynamic<BankAccountAdt>("a");

  SplitMix64 rng(seed);
  std::int64_t expected = 0;
  for (int i = 0; i < 20; ++i) {
    auto t = rt.begin();
    const std::int64_t amount = rng.range(1, 9);
    const bool deposit = rng.chance(2, 3);
    const Operation o =
        deposit ? account::deposit(amount) : account::withdraw(amount);
    const Value result = acct->invoke(*t, o);
    if (rng.chance(1, 4)) {
      rt.abort(t);
      continue;
    }
    rt.commit(t);
    if (deposit) {
      expected += amount;
    } else if (result == ok()) {
      expected -= amount;
    }
  }

  rt.crash();
  rt.recover();
  EXPECT_EQ(acct->committed_state(), expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecoveryProperty,
                         ::testing::Range<std::uint64_t>(1, 17));

}  // namespace
}  // namespace argus

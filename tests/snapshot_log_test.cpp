// SnapshotLog: differential and bounded-work tests.
//
//   * differential — random committed logs for five ADTs (bank account,
//     counter, bag, FIFO queue, and a local ADT whose replay keeps several
//     candidate states), queried at random timestamps in random order
//     with repeats, interleaved with appends: every answer must equal the
//     full replay_logged from A::initial() over the prefix below the
//     timestamp;
//   * bounded work — a step-counting ADT pins the replay cost: a read
//     replays fewer than kCheckpointEvery entries plus those appended past
//     the furthest point any read has reached, so a return to O(history)
//     reads fails here.
#include "core/snapshot_log.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/validation.h"
#include "spec/adts/bag.h"
#include "spec/adts/bank_account.h"
#include "spec/adts/counter.h"
#include "spec/adts/fifo_queue.h"

namespace argus {
namespace {

constexpr std::size_t kEvery = SnapshotLog<CounterAdt>::kCheckpointEvery;

// A value in [0, 16) that `bump` advances by 1 or 2 without saying which,
// and `parity` observes. Replaying a log keeps every state the recorded
// results allow, so candidate sets grow past one and are pruned again.
struct DriftAdt {
  using State = std::int64_t;
  static State initial() { return 0; }
  static Outcomes<State> step(const State& s, const Operation& o) {
    if (o.name == "bump") return {{ok(), (s + 1) % 16}, {ok(), (s + 2) % 16}};
    if (o.name == "parity") return {{Value{s % 2}, s}};
    return {};
  }
  static bool is_read_only(const Operation& o) { return o.name == "parity"; }
  static bool static_commutes(const Operation&, const Operation&) {
    return false;
  }
  static std::string type_name() { return "drift"; }
  static std::string describe(const State& s) { return std::to_string(s); }
};

// Counts every step() call: with singleton candidate sets, one step per
// replayed log entry.
struct CountingAdt {
  using State = std::int64_t;
  inline static std::size_t steps = 0;
  static State initial() { return 0; }
  static Outcomes<State> step(const State& s, const Operation&) {
    ++steps;
    return {{ok(), s + 1}};
  }
  static bool is_read_only(const Operation&) { return false; }
  static bool static_commutes(const Operation&, const Operation&) {
    return true;
  }
  static std::string type_name() { return "counting"; }
  static std::string describe(const State& s) { return std::to_string(s); }
};

std::vector<Operation> ops_of(const BankAccountAdt*) {
  return {account::deposit(3), account::deposit(7), account::withdraw(5),
          account::withdraw(9), account::balance()};
}
std::vector<Operation> ops_of(const CounterAdt*) {
  return {counter::increment()};
}
std::vector<Operation> ops_of(const BagAdt*) {
  return {bag::insert(1), bag::insert(2), bag::insert(3), bag::remove(),
          bag::remove()};
}
std::vector<Operation> ops_of(const FifoQueueAdt*) {
  return {fifo::enqueue(1), fifo::enqueue(2), fifo::dequeue(), fifo::size()};
}
std::vector<Operation> ops_of(const DriftAdt*) {
  return {op("bump"), op("bump"), op("parity")};
}

// The committed log under test and the reference it must agree with.
template <AdtTraits A>
class Harness {
 public:
  explicit Harness(std::uint64_t seed) : rng_(seed) {}

  // Appends one committed transaction of 1-3 operations, executed from
  // one of the true states so every recorded result is reproducible.
  void append_txn() {
    const auto ops = ops_of(static_cast<const A*>(nullptr));
    ts_ += 1 + rng_() % 3;
    const std::size_t count = 1 + rng_() % 3;
    for (std::size_t i = 0; i < count; ++i) {
      const Operation& o = ops[rng_() % ops.size()];
      auto outcomes = A::step(state_, o);
      if (outcomes.empty()) continue;  // not enabled here
      auto& [result, next] = outcomes[rng_() % outcomes.size()];
      log_.append(ts_, LoggedOp{o, result});
      entries_.push_back({ts_, LoggedOp{o, result}});
      state_ = std::move(next);
    }
  }

  // Queries timestamps in random order, each twice: below the first
  // entry, above the last, the timestamp of every kCheckpointEvery-th
  // entry, and random entries' timestamps and the ones after them.
  // Returns how many queries ended a prefix on a checkpoint boundary.
  std::size_t query_some() {
    std::vector<Timestamp> ts{0, 1, ts_ + 1, ts_ + 5};
    for (std::size_t i = kEvery; i < entries_.size(); i += kEvery) {
      ts.push_back(entries_[i].first);
    }
    for (int i = 0; i < 30 && !entries_.empty(); ++i) {
      const Timestamp t = entries_[rng_() % entries_.size()].first;
      ts.push_back(t);
      ts.push_back(t + 1);
    }
    const std::vector<Timestamp> once = ts;
    ts.insert(ts.end(), once.begin(), once.end());
    std::shuffle(ts.begin(), ts.end(), rng_);
    std::size_t on_boundary = 0;
    for (const Timestamp t : ts) {
      std::vector<LoggedOp> prefix;
      for (const auto& [et, logged] : entries_) {
        if (et >= t) break;
        prefix.push_back(logged);
      }
      if (!prefix.empty() && prefix.size() % kEvery == 0) ++on_boundary;
      const auto want = replay_logged<A>({A::initial()}, prefix);
      EXPECT_FALSE(want.empty());
      EXPECT_EQ(log_.states_below(t), want)
          << A::type_name() << " at t=" << t << " (prefix "
          << prefix.size() << " of " << entries_.size() << ")";
    }
    return on_boundary;
  }

  void clear() {
    log_.clear();
    entries_.clear();
    state_ = A::initial();
    ts_ = 0;
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  std::mt19937_64 rng_;
  SnapshotLog<A> log_;
  std::vector<std::pair<Timestamp, LoggedOp>> entries_;
  typename A::State state_ = A::initial();
  Timestamp ts_{0};
};

template <AdtTraits A>
void run_differential(std::uint64_t seed) {
  Harness<A> h(seed);
  std::size_t on_boundary = 0;
  // Two lives: clear() must drop the cursor and checkpoints too, or the
  // second log's answers come from the first log's states.
  for (int life = 0; life < 2; ++life) {
    on_boundary += h.query_some();  // empty log
    for (int round = 0; round < 6; ++round) {
      for (int i = 0; i < 30 + 20 * round; ++i) h.append_txn();
      on_boundary += h.query_some();
    }
    EXPECT_GT(h.size(), 4 * kEvery);
    h.clear();
  }
  EXPECT_GT(on_boundary, 0U) << A::type_name();
}

TEST(SnapshotLog, MatchesFullReplayForBankAccount) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    run_differential<BankAccountAdt>(seed);
  }
}

TEST(SnapshotLog, MatchesFullReplayForCounter) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    run_differential<CounterAdt>(seed);
  }
}

TEST(SnapshotLog, MatchesFullReplayForBag) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    run_differential<BagAdt>(seed);
  }
}

TEST(SnapshotLog, MatchesFullReplayForFifoQueue) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    run_differential<FifoQueueAdt>(seed);
  }
}

TEST(SnapshotLog, MatchesFullReplayWithSeveralCandidateStates) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    run_differential<DriftAdt>(seed);
  }
  // The ADT really does keep more than one candidate.
  SnapshotLog<DriftAdt> log;
  log.append(1, LoggedOp{op("bump"), ok()});
  log.append(2, LoggedOp{op("bump"), ok()});
  EXPECT_EQ(log.states_below(3), (std::vector<std::int64_t>{2, 3, 4}));
  log.append(3, LoggedOp{op("parity"), Value{std::int64_t{1}}});
  EXPECT_EQ(log.states_below(4), (std::vector<std::int64_t>{3}));
}

TEST(SnapshotLog, UnreplayablePrefixYieldsNoStates) {
  SnapshotLog<BankAccountAdt> log;
  log.append(1, LoggedOp{account::deposit(5), ok()});
  log.append(2, LoggedOp{account::balance(), Value{std::int64_t{6}}});
  log.append(3, LoggedOp{account::deposit(1), ok()});
  EXPECT_EQ(log.states_below(2), (std::vector<std::int64_t>{5}));
  EXPECT_TRUE(log.states_below(4).empty());
  EXPECT_EQ(log.states_below(2), (std::vector<std::int64_t>{5}));
}

// Steps one read takes, and the state it returns.
std::size_t read_cost(SnapshotLog<CountingAdt>& log, Timestamp t,
                      std::int64_t expect) {
  CountingAdt::steps = 0;
  const auto& states = log.states_below(t);
  EXPECT_EQ(states, (std::vector<std::int64_t>{expect})) << "t=" << t;
  return CountingAdt::steps;
}

TEST(SnapshotLog, ReadsReplayBoundedWork) {
  // Entry i (0-based) carries timestamp i+1, so reading at t sees t-1
  // entries.
  SnapshotLog<CountingAdt> log;
  Timestamp next = 1;
  auto append = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      log.append(next++, LoggedOp{op("x"), ok()});
    }
  };
  append(10000);

  // The first read pays for the whole history once.
  EXPECT_LE(read_cost(log, next, 10000), 10000 + kEvery);
  // A fresh read pays for what was appended since, plus < one interval.
  append(100);
  EXPECT_LE(read_cost(log, next, 10100), 100 + kEvery);
  EXPECT_EQ(read_cost(log, next, 10100), 0U);  // repeat: cursor hit

  // Old reads start from the nearest checkpoint.
  for (const Timestamp t : {Timestamp{1}, Timestamp{37}, Timestamp{5000},
                            Timestamp{50 * kEvery + 1}, Timestamp{9999}}) {
    EXPECT_LT(read_cost(log, t, static_cast<std::int64_t>(t - 1)), kEvery)
        << "t=" << t;
  }
  EXPECT_EQ(read_cost(log, 50 * kEvery + 1, 50 * kEvery), 0U);
  // Back to the present without new entries: still < one interval.
  EXPECT_LE(read_cost(log, next, 10100), kEvery);

  // Random interleaving: any read replays at most kCheckpointEvery - 1
  // entries plus those past the furthest prefix a read has reached.
  std::mt19937_64 rng(7);
  std::size_t frontier = 10100;
  for (int i = 0; i < 3000; ++i) {
    if (rng() % 3 == 0) append(rng() % 40);
    const std::size_t n = (rng() % 4 == 0) ? next - 1 : rng() % next;
    const std::size_t past = n > frontier ? n - frontier : 0;
    EXPECT_LE(read_cost(log, n + 1, static_cast<std::int64_t>(n)),
              kEvery - 1 + past)
        << "prefix " << n << ", frontier " << frontier;
    frontier = std::max(frontier, n);
  }
}

}  // namespace
}  // namespace argus

// Shared helpers for the test suite: terse history construction in the
// paper's notation, utilities for running transactions on separate
// threads with step synchronization, and the replay check for sweep
// cases.
#pragma once

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "common/ids.h"
#include "hist/history.h"

namespace argus::testutil {

// The paper's activity letters.
inline constexpr ActivityId A{0};
inline constexpr ActivityId B{1};
inline constexpr ActivityId C{2};
inline constexpr ActivityId R{17};  // read-only activities r, s, t
inline constexpr ActivityId S{18};
inline constexpr ActivityId T{19};

// Objects x, y.
inline constexpr ObjectId X{0};
inline constexpr ObjectId Y{1};

/// Builds a history from an initializer list of events.
inline History hist(std::vector<Event> events) {
  return History(std::move(events));
}

/// Runs `f` on another thread and asserts it does not finish within
/// `millis` — the standard idiom for "this invocation blocks". Returns a
/// future the caller must eventually resolve (by unblocking f) and join
/// via get().
template <typename F>
std::future<void> expect_blocks(F f, int millis = 100) {
  auto fut = std::async(std::launch::async, std::move(f));
  if (fut.wait_for(std::chrono::milliseconds(millis)) ==
      std::future_status::ready) {
    throw std::runtime_error("expected the call to block, but it finished");
  }
  return fut;
}

/// Waits for a future with a timeout, failing the test on deadline.
inline void join_within(std::future<void>& fut, int millis = 5000) {
  if (fut.wait_for(std::chrono::milliseconds(millis)) !=
      std::future_status::ready) {
    throw std::runtime_error("future did not complete in time");
  }
  fut.get();
}

/// Runs a sweep case (fault, sched or dist) twice and expects the two
/// runs to agree byte for byte: trace, failure text and counters,
/// including each sweep's own (stable-log size, schedule, site churn,
/// coordinator crashes, lost messages). Returns the first run.
template <typename Case>
auto expect_replays_byte_equal(const Case& c) {
  const auto first = run_case(c);
  const auto second = run_case(c);
  EXPECT_EQ(first.trace, second.trace)
      << "same case must reproduce the trace byte for byte";
  EXPECT_EQ(first.failure, second.failure);
  EXPECT_EQ(first.committed, second.committed);
  EXPECT_EQ(first.aborted, second.aborted);
  EXPECT_EQ(first.faults_injected, second.faults_injected);
  if constexpr (requires { first.log_records; }) {
    EXPECT_EQ(first.log_records, second.log_records);
  }
  if constexpr (requires { first.schedule; }) {
    EXPECT_EQ(first.schedule, second.schedule);
    EXPECT_EQ(first.steps, second.steps);
  }
  if constexpr (requires { first.stats; }) {
    EXPECT_EQ(first.stats.site_fails, second.stats.site_fails);
    EXPECT_EQ(first.stats.coord_crashes, second.stats.coord_crashes);
    EXPECT_EQ(first.stats.msgs_lost, second.stats.msgs_lost);
  }
  return first;
}

}  // namespace argus::testutil

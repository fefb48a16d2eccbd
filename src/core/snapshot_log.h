// SnapshotLog<A>: the timestamp-sorted committed operation log behind
// every read-only snapshot path (§4.3.3), answering "which states can the
// object be in just below timestamp t" without replaying history.
//
// Hybrid atomicity lets a read-only activity see exactly the committed
// updates below its timestamp — Reed's multi-version reads, generalized
// to arbitrary ADTs as in §4.2. Replaying the whole prefix from
// A::initial() on every read costs O(history) under the object mutex.
// This log instead keeps
//   * a memoized cursor: the candidate-state set after the first
//     `cursor_index_` entries, left wherever the last read put it, and
//   * sparse checkpoints: the candidate-state set after every
//     kCheckpointEvery-th entry the cursor has ever passed.
// A read binary-searches its prefix end n, starts from whichever of the
// cursor (when at or below n) and the nearest checkpoint at or below n is
// closer to n, and replays only the entries in between, dropping new
// checkpoints as it passes them. So a read at a fresh timestamp replays
// fewer than kCheckpointEvery entries plus those appended since a read
// last reached the log's end, and a read below that point replays fewer
// than kCheckpointEvery entries.
//
// All checkpoint and cursor upkeep runs on the read path: append() is a
// plain push_back, so commit and recovery replay do no new work. Not
// thread-safe; callers hold their object mutex around every call.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "spec/adt_spec.h"
#include "txn/stable_log.h"

namespace argus {

/// One committed operation at its commit timestamp.
using SnapshotEntry = std::pair<Timestamp, LoggedOp>;

/// replay_logged (core/validation.h) over a range of log entries, so the
/// logged operations are read in place rather than copied out. Returns
/// exactly the candidate set replay_logged returns for the same
/// operations, in the same order.
template <AdtTraits A, typename It>
[[nodiscard]] std::vector<typename A::State> replay_range(
    std::vector<typename A::State> candidates, It first, It last) {
  for (; first != last; ++first) {
    const LoggedOp& logged = first->second;
    std::vector<typename A::State> next;
    for (const auto& s : candidates) {
      for (auto& [result, successor] : A::step(s, logged.op)) {
        if (result != logged.result) continue;
        // Dedupe: nondeterministic branches often reconverge.
        if (std::find(next.begin(), next.end(), successor) == next.end()) {
          next.push_back(std::move(successor));
        }
      }
    }
    if (next.empty()) return {};
    candidates = std::move(next);
  }
  return candidates;
}

template <AdtTraits A>
class SnapshotLog {
 public:
  using States = std::vector<typename A::State>;

  static constexpr std::size_t kCheckpointEvery = 64;

  SnapshotLog() { clear(); }

  /// Appends a committed operation. Timestamps never decrease: applies
  /// run in commit-timestamp order and recovery replays the
  /// timestamp-sorted stable log.
  void append(Timestamp ts, LoggedOp logged) {
    entries_.emplace_back(ts, std::move(logged));
  }

  /// Drops every entry, checkpoint and the cursor (crash recovery).
  void clear() {
    entries_.clear();
    checkpoints_.assign(1, States{A::initial()});
    cursor_ = checkpoints_.front();
    cursor_index_ = 0;
  }

  /// Candidate states after every entry with timestamp strictly below t:
  /// exactly replay_logged<A>({A::initial()}, that prefix). Empty iff some
  /// recorded result in the prefix cannot be reproduced. The reference
  /// stays valid until the next non-const call.
  const States& states_below(Timestamp t) {
    const auto end = std::partition_point(
        entries_.begin(), entries_.end(),
        [t](const SnapshotEntry& e) { return e.first < t; });
    const auto n = static_cast<std::size_t>(end - entries_.begin());
    const std::size_t nearest =
        std::min(n / kCheckpointEvery, checkpoints_.size() - 1);
    if (cursor_index_ > n || cursor_index_ < nearest * kCheckpointEvery) {
      cursor_ = checkpoints_[nearest];
      cursor_index_ = nearest * kCheckpointEvery;
    }
    while (cursor_index_ < n) {
      const std::size_t stop = std::min(
          n, (cursor_index_ / kCheckpointEvery + 1) * kCheckpointEvery);
      cursor_ =
          replay_range<A>(std::move(cursor_), at(cursor_index_), at(stop));
      cursor_index_ = stop;
      if (stop == checkpoints_.size() * kCheckpointEvery) {
        checkpoints_.push_back(cursor_);
      }
    }
    return cursor_;
  }

 private:
  [[nodiscard]] auto at(std::size_t i) const {
    return entries_.begin() + static_cast<std::ptrdiff_t>(i);
  }

  std::vector<SnapshotEntry> entries_;
  // checkpoints_[i]: the candidate set after the first i*kCheckpointEvery
  // entries; checkpoints_[0] is {A::initial()}.
  std::vector<States> checkpoints_;
  States cursor_;              // the candidate set after cursor_index_ entries
  std::size_t cursor_index_{0};
};

}  // namespace argus

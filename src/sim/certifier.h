// The certification probes the fault, schedule and dist sweeps share.
// A Certifier accumulates every failed probe of one case, in the order
// the probes ran; the sweeps add only their own probes (conservation,
// replica agreement, decision-log drain, termination) through check().
//
// Every probe takes a tag that prefixes its failure text, so the dist
// sweep runs the same probes per site ("site1 ") and over the merged
// cross-site history ("merged ").
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "check/system.h"
#include "core/runtime.h"
#include "hist/history.h"
#include "sched/factory.h"

namespace argus {

class Certifier {
 public:
  /// Records `what` as a failure unless `ok`.
  void check(bool ok, const std::string& what);

  /// Stable-log probes over one runtime: the log is sorted by commit
  /// timestamp (recovery replays in serialization order), and every
  /// forced record is covered by the visibility watermark (nothing
  /// stable is invisible). Returns the number of records.
  std::size_t check_log(Runtime& rt, const std::string& tag = {});

  struct HistoryVerdict {
    bool well_formed{false};
    bool atomic{false};
  };
  /// The formal checkers: `h` is well-formed and satisfies `protocol`'s
  /// local atomicity property — dynamic (§4.1), static (§4.2.2) or
  /// hybrid (§4.3.2). The lock baselines are certified as dynamic and
  /// the timestamp baseline as static; OCC and MVCC serialize updates at
  /// their commit timestamp and read at initiation snapshots, so they
  /// are certified as hybrid. `read_only` names the snapshot readers
  /// (hybrid well-formedness only).
  HistoryVerdict check_history(
      Protocol protocol, const SystemSpec& system, const History& h,
      const std::unordered_set<ActivityId>& read_only,
      const std::string& tag = {});

  /// Stops `rt`'s online sentinel, if one runs, and records any
  /// violation it saw. Returns the violation count.
  std::uint64_t check_sentinel(Runtime& rt, const std::string& tag = {});

  [[nodiscard]] bool ok() const { return failures_.empty(); }

  /// Every failed probe, newline-separated, in the order they ran.
  [[nodiscard]] std::string failure() const;

 private:
  std::vector<std::string> failures_;
};

}  // namespace argus

// DecisionLog: the coordinator's durable commit list.
//
// PR 6's coordinator kept its 2PC decisions in a volatile std::map — the
// one piece of recovery-critical state outside the fault model. This log
// closes that gap by reusing the StableLog machinery: each commit
// decision is force-written as a CommitLogRecord *before* any delivery
// (write-ahead for the decision itself), survives crash(), and is
// replayed at coordinator restart. Presumed abort is preserved: only
// commits are logged, so a gid absent from the log is an abort.
//
// The force is split into submit and await (StableLog::submit_force),
// so the coordinator can submit it beside the participants' prepare
// forces and pay one device round trip per 2PC instead of two. The
// decision becomes stable only in await_decision(), which the
// coordinator calls after every prepare has been awaited stable; a
// pending decision that is never awaited (a veto, a coordinator crash)
// simply never becomes stable, and crash() makes any later await of it
// return kDropped.
//
// Record encoding: txn = the global transaction id, commit_ts = the
// decision timestamp G, and one entry per participant whose ObjectId
// holds the participant's *site index* (the decision log tracks sites,
// not objects — the participants are who must acknowledge before the
// decision can be truncated).
//
// Acknowledgements are deliberately volatile: a participant that applied
// the decision (its own stable log now holds the promoted record) acks,
// and checkpoint() truncates every fully-acknowledged decision.
// Truncation is safe because a full ack set means every participant's
// *own* stable log carries the commit — no in-doubt prepared record for
// that gid can ever reappear, so nobody will ask the coordinator again.
// A decision can only become fully acknowledged by an ack, so
// checkpoint() examines just the gids acknowledged since the last one,
// by id, without copying the log. A coordinator crash loses the ack
// table; recovery re-syncs it from the participants' stable logs
// (StableLog::committed_ts) and checkpoints again, so truncation
// survives failover without ever being unsafe.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <vector>

#include "txn/stable_log.h"

namespace argus {

class FaultInjector;

class DecisionLog {
 public:
  struct Decision {
    ActivityId gid{0};
    Timestamp decision{kNoTimestamp};
    std::vector<std::size_t> participants;
  };

  struct Stats {
    std::uint64_t logged{0};          // decisions force-written
    std::uint64_t force_failures{0};  // injected force failures
    std::uint64_t truncated{0};       // decisions checkpointed away
    std::uint64_t acks{0};            // participant acknowledgements
  };

  /// Fault hook for decision-force failures (FaultSite::kDecisionForce).
  /// nullptr = no injection; the pointer must outlive the log or be
  /// cleared first.
  void set_fault_injector(FaultInjector* injector) {
    fault_.store(injector, std::memory_order_release);
  }

  /// Simulated per-force storage latency (what E18 prices).
  void set_force_delay(std::chrono::microseconds delay) {
    log_.set_force_delay(delay);
  }

  /// A decision force submitted but not yet awaited.
  using PendingDecision = StableLog::PendingForce;

  /// Submits the force of one commit decision without waiting for it.
  /// Nothing is stable until await_decision().
  [[nodiscard]] PendingDecision submit_decision(
      ActivityId gid, Timestamp decision,
      const std::vector<std::size_t>& parts);

  /// Draws the decision-force fault, then waits for the submitted force.
  /// kForced: the decision is stable, and may be delivered. kIoError: an
  /// injected force failure lost it; kDropped: a crash() ran since
  /// submission. On either nothing is stable, and the coordinator never
  /// delivers a commit it could not remember.
  [[nodiscard]] AppendResult await_decision(PendingDecision pending);

  /// One participant acknowledges having durably applied the decision.
  void ack(ActivityId gid, std::size_t site_index);

  /// Truncates every decision all of whose participants have
  /// acknowledged. Returns the number removed.
  std::size_t checkpoint();

  /// The decision timestamp for `gid`, if a stable decision exists.
  [[nodiscard]] std::optional<Timestamp> lookup(ActivityId gid) const;

  /// Every stable (not yet truncated) decision — what coordinator
  /// recovery rebuilds its commit list from.
  [[nodiscard]] std::vector<Decision> replay() const;

  /// Stable decisions awaiting truncation.
  [[nodiscard]] std::size_t outstanding() const { return log_.size(); }

  /// Coordinator crash: the volatile ack table is lost and a pending
  /// decision is dropped; stable decisions survive (that is the whole
  /// point).
  void crash();

  [[nodiscard]] Stats stats() const;

 private:
  StableLog log_;
  std::atomic<FaultInjector*> fault_{nullptr};

  mutable std::mutex mu_;  // ack table + counters
  std::map<ActivityId, std::set<std::size_t>> acks_;
  std::vector<ActivityId> acked_since_checkpoint_;
  Stats stats_;
};

}  // namespace argus

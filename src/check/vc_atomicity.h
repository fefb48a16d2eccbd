// VectorClockChecker: a linear-time fast path for atomicity
// certification, in the spirit of Mathur & Viswanathan's "Atomicity
// Checking in Linear Time using Vector Clocks" (PAPERS.md) generalized
// from read/write conflicts to the specification commutativity the
// paper's data-dependent protocols are built on.
//
// The exact online checker (obs/sentinel.h, CheckMode::kExact) re-replays
// every unfolded committed activity each window — robust, but the work
// per window grows with the buffered suffix. This checker processes the
// committed projection in a single pass:
//
//   * Events stream in sequence order. When an activity commits it is
//     *folded*: its per-object event subsequences replay into the running
//     observed chain (one NFA state-set per object, exactly spec/serial.h's
//     acceptance machine, stepped straight from the activity's events),
//     so each operation is replayed once. By default the fold happens as
//     the commit arrives. With `hold_back` (the online sentinel), a commit
//     whose key is not yet below the frontier waits, and commits fold in
//     key order once the frontier passes them — the observed chain then
//     *is* the canonical chain, and every epoch seals clean.
//
//   * Per object the checker maintains a compressed vector clock: for
//     every distinct operation folded since the last checkpoint (and, in
//     summary form, ever sealed), the maximum serialization key it was
//     folded under. Folding an activity joins these clocks into the
//     activity's own clock, restricted to *conflicting* pairs — pairs
//     that do not commute in every state, per the same commutativity
//     relation (ConflictRelation) the admission controllers consult.
//
//   * An activity whose clock stays below its own key folded in an order
//     that agrees with the canonical serialization order on every
//     conflict; the commuting-swap argument then makes the observed fold
//     equivalent to the canonical one, so a successful fold certifies the
//     activity (PASS) and a failed fold in a clean context is a genuine
//     VIOLATION — the same judgement the exact checker computes, in
//     linear time.
//
//   * Everything else is SUSPICIOUS: a conflict folded against canonical
//     order (commonly an operation pair whose conflict behaviour is
//     data-dependent — hybrid_bag removes, escrow-style withdraws — and
//     so not expressible as a static relation), a fold failure while the
//     canonical prefix is still open, or late events for an activity
//     already folded. With `escalate` set (CheckMode::kEscalating) a
//     suspicious window re-replays the epoch's buffered activities from
//     the last checkpoint in exact canonical order — the existing exact
//     incremental check, confined to the window's buffer — resolving
//     each suspect to PASS or VIOLATION. Without it
//     (CheckMode::kVectorClock) suspects are quarantined and reported as
//     SUSPICIOUS, and the checker never claims a verdict it cannot
//     prove cheaply.
//
// Canonical serialization keys are the sentinel's: an activity's
// timestamp when it has one (static initiations, hybrid commit stamps,
// hybrid read-only initiations), otherwise its first commit event's
// sequence number; both are drawn from the same Lamport clock.
//
// Memory is bounded by checkpointing, as in the exact sentinel: when the
// buffered committed events exceed `checkpoint_threshold` the epoch is
// sealed — clean monotone epochs seal by cloning the observed chain
// (no re-replay at all); epochs that saw suspicion or out-of-order keys
// seal through the exact canonical re-replay. Activities that commit
// with a key below an already-sealed checkpoint are stragglers: folded
// anyway when they commute with everything sealed above their key,
// quarantined and counted otherwise (never reported as violations),
// matching the exact sentinel's behaviour.
//
// The checker holds pointers to the events it is fed, not copies: the
// owner keeps each event alive until the checker has sealed or dropped
// its activity (oldest_retained_seq()). The flight recorder's unbounded
// shards never move their events; ring-mode drains and the offline
// wrapper below own copies instead.
//
// Not thread-safe; the owner (AtomicitySentinel, tests, the offline
// wrapper below) serializes access.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "check/atomicity.h"
#include "check/conflict.h"
#include "check/system.h"
#include "hist/history.h"
#include "obs/flight_recorder.h"
#include "spec/spec.h"

namespace argus {

enum class VcVerdict {
  kPass,        // every committed activity certified atomic
  kSuspicious,  // unresolved suspicion (only without escalation)
  kViolation,   // at least one proven atomicity violation
};

[[nodiscard]] const char* to_string(VcVerdict v);

struct VcCheckerOptions {
  /// Resolve suspicious windows by exact canonical re-replay of the
  /// epoch buffer (CheckMode::kEscalating). When false, suspects are
  /// quarantined and reported as SUSPICIOUS (CheckMode::kVectorClock).
  bool escalate{true};
  /// Buffered committed events above which the epoch is sealed into the
  /// checkpoint. Default: seal only when asked (finish()).
  std::size_t checkpoint_threshold{static_cast<std::size_t>(-1)};
  /// Fold a committed activity only once advance_frontier() has passed
  /// its key, in key order. Sound only when each frontier is exact (no
  /// key below it can still arrive), as the sentinel's is; then no fold
  /// is mis-ordered and no epoch needs a re-replay. Off: fold in arrival
  /// order and resolve mis-orders through suspicion and escalation.
  bool hold_back{false};
};

struct VcStats {
  std::uint64_t events{0};
  std::uint64_t folds{0};              // observed-order activity folds
  std::uint64_t certified{0};          // activities certified atomic
  std::uint64_t violations{0};
  std::uint64_t suspicious{0};         // activities ever flagged suspicious
  std::uint64_t unresolved{0};         // suspects quarantined unresolved
  std::uint64_t escalations{0};        // exact re-replays of an epoch buffer
  std::uint64_t windows{0};
  std::uint64_t fastpath_windows{0};   // windows closed without escalation
  std::uint64_t vc_ops{0};             // conflict consults + clock joins
  std::uint64_t stragglers{0};
  std::uint64_t straggler_resolved{0}; // stragglers folded by commutation
  std::uint64_t checkpoints{0};
  std::uint64_t clean_seals{0};        // seals that adopted the observed chain
  std::uint64_t reseals{0};            // seals through an exact re-replay
};

/// Folds committed activities, one at a time, into per-object sets of
/// candidate specification states: spec/serial.h's acceptance machine,
/// stepped straight from an activity's events rather than from a
/// per-object History. Keeps its scratch buffers across calls.
class SerialFold {
 public:
  using StateSet = std::vector<std::unique_ptr<SpecState>>;
  using StateMap = std::map<ObjectId, StateSet>;

  /// `system` must outlive the fold.
  explicit SerialFold(const SystemSpec& system) : system_(system) {}

  /// Steps `states` through `events` (one activity's; sorted here by
  /// sequence if they are not already) at every object they touch;
  /// objects missing from `states` start in their initial state. True on
  /// success, with `states` advanced. False with every touched object's
  /// set unchanged and, if `why` is set, an explanation naming the object
  /// and the activity's events there.
  bool fold(ActivityId id, std::uint64_t key,
            std::vector<const SequencedEvent*>& events, StateMap& states,
            std::string* why);

  [[nodiscard]] static StateMap clone(const StateMap& states);

 private:
  /// An empty set, reusing a spare buffer when there is one.
  StateSet take_set();
  void give_back(StateSet set);

  const SystemSpec& system_;
  std::vector<ObjectId> objects_;                     // scratch
  std::vector<std::pair<StateSet*, StateSet>> next_;  // scratch
  std::vector<StateSet> spare_;  // emptied set buffers, for take_set()
};

class VectorClockChecker {
 public:
  /// Snapshots `system` (register objects first; events of unknown
  /// objects are counted, not checked).
  VectorClockChecker(const SystemSpec& system, VcCheckerOptions options = {});

  /// Ingests one event (sequence-stamped, arrival order). The checker
  /// keeps the pointer of every invocation and response until their
  /// epoch seals; the caller keeps the event alive that long.
  void feed(const SequencedEvent* se);
  void feed(const std::vector<const SequencedEvent*>& batch);

  /// Closes a window: `frontier` is a key below which no new
  /// serialization key can arrive (the runtime's serialization frontier,
  /// read before the batch was drained); the effective frontier also
  /// respects open initiations. Folds the held-back commits it passes,
  /// runs escalation if the window went suspicious and seals the epoch
  /// when the checkpoint threshold is exceeded.
  void advance_frontier(std::uint64_t frontier);

  /// Final flush: folds, resolves and seals everything buffered
  /// (activities that never committed impose no constraint).
  void finish();

  [[nodiscard]] VcVerdict verdict() const;
  [[nodiscard]] const VcStats& stats() const { return stats_; }
  [[nodiscard]] std::string last_violation() const { return last_violation_; }
  [[nodiscard]] std::string last_suspicion() const { return last_suspicion_; }
  /// Violation explanations accumulated since the previous drain (the
  /// sentinel forwards these to its on_violation hook).
  [[nodiscard]] std::vector<std::string> drain_reports();

  [[nodiscard]] const ConflictRelation& conflicts() const {
    return conflicts_;
  }

  /// Adjusts the seal threshold (takes effect at the next window).
  void set_checkpoint_threshold(std::size_t threshold) {
    options_.checkpoint_threshold = threshold;
  }

  /// Committed activities held back until the frontier passes their key
  /// (hold_back only).
  [[nodiscard]] std::size_t held() const { return held_.size(); }

  /// The smallest sequence among the events the checker still points to
  /// (UINT64_MAX when none): an owner of event copies may free every
  /// event below it.
  [[nodiscard]] std::uint64_t oldest_retained_seq() const;

 private:
  using StateSet = SerialFold::StateSet;
  using StateMap = SerialFold::StateMap;
  /// Compressed per-object clock: distinct operation -> max key folded.
  using OpClock = std::map<Operation, std::uint64_t>;

  struct ActivityState {
    std::vector<const SequencedEvent*> events;  // invoke/respond only
    Timestamp ts{kNoTimestamp};
    std::uint64_t first_commit_seq{0};
    bool committed{false};
    bool aborted{false};
    bool quarantined{false};
    bool folded{false};      // replayed into the observed chain
    bool certified{false};
    bool suspicious{false};
    bool init_open{false};
    [[nodiscard]] std::uint64_t key() const {
      return ts != kNoTimestamp ? ts : first_commit_seq;
    }
  };

  void handle_commit(ActivityId id, ActivityState& act);
  /// Folds the held-back commits whose key lies below `limit`, in key
  /// order.
  void fold_held(std::uint64_t limit);
  /// True iff one of act's operations conflicts with an operation folded
  /// (this epoch or ever sealed) under a key above `key`.
  bool conflicts_above(const ActivityState& act, std::uint64_t key);
  void register_fold(const ActivityState& act, std::uint64_t key);
  void certify(ActivityId id, ActivityState& act);
  void mark_suspicious(ActivityId id, ActivityState& act,
                       const std::string& why);
  void report_violation(ActivityId id, ActivityState& act,
                        const std::string& why);
  /// Exact canonical re-replay of the epoch buffer from the checkpoint;
  /// seals activities below `frontier`. `exact_verdicts` distinguishes
  /// escalation (kEscalating: failures are violations) from the
  /// vector-clock mode's quarantining seal.
  void reseal_epoch(std::uint64_t frontier, bool exact_verdicts);
  /// Clean monotone epochs seal by cloning the observed chain.
  void seal_clean_epoch(std::uint64_t frontier);
  void maybe_checkpoint(std::uint64_t frontier);
  void drop_sealed(const std::vector<ActivityId>& sealed);

  const SystemSpec system_;
  VcCheckerOptions options_;
  ConflictRelation conflicts_;
  SerialFold fold_;

  std::unordered_map<ActivityId, ActivityState> activities_;
  std::multiset<Timestamp> open_initiations_;
  /// hold_back: committed activities whose key the frontier has not yet
  /// passed, as (key, id).
  std::vector<std::pair<std::uint64_t, ActivityId>> held_;

  StateMap observed_;    // fast-path chain: folds land here as they arrive
  StateMap checkpoint_;  // exact canonical states at the last seal
  std::uint64_t checkpoint_key_{0};
  std::uint64_t epoch_max_key_{0};
  /// Highest frontier observed: no key below it can still be drawn.
  /// Immediate (pre-escalation) violation verdicts are gated on it.
  std::uint64_t frontier_seen_{0};

  std::map<ObjectId, OpClock> window_ops_;  // folded since the checkpoint
  std::map<ObjectId, OpClock> sealed_ops_;  // max-key summary, all time

  std::vector<ActivityId> epoch_folded_;  // commit order, for resealing
  std::vector<ActivityId> deferred_;      // folded ok, certificate pending
  std::size_t buffered_events_{0};
  bool dirty_{false};            // suspicion since the last seal
  bool epoch_quarantine_{false}; // a quarantine happened this epoch

  VcStats stats_;
  std::string last_violation_;
  std::string last_suspicion_;
  std::vector<std::string> pending_reports_;
};

/// Canonical serialization order of h's committed activities (timestamp
/// where present, else first-commit position — the sentinel's key), ties
/// broken by activity id.
[[nodiscard]] std::vector<ActivityId> canonical_order(const History& h);

/// The exact judgement the fast path approximates: perm(h) serializable
/// in canonical order. This is what the online sentinel certifies, and
/// the reference the differential tier compares the fast path against.
[[nodiscard]] CheckResult check_canonical_atomic(const SystemSpec& system,
                                                 const History& h);

struct VcReport {
  VcVerdict verdict{VcVerdict::kPass};
  VcStats stats;
  std::vector<std::string> reports;
};

/// Offline wrapper: streams h through a VectorClockChecker (events get
/// sequence numbers 1..n, and the wrapper owns their copies), advancing
/// the frontier every `window` events (0 = single final flush) to the
/// smallest key any later event introduces, and returns the verdict.
[[nodiscard]] VcReport check_vc_atomic(const SystemSpec& system,
                                       const History& h,
                                       VcCheckerOptions options = {},
                                       std::size_t window = 0);

}  // namespace argus

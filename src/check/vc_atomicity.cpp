#include "check/vc_atomicity.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <utility>

#include "spec/serial.h"

namespace argus {

namespace {

/// Deduplicates a candidate set by pairwise equality (same discipline as
/// spec/serial.cpp: candidate sets stay tiny for our ADTs).
void dedupe(std::vector<std::unique_ptr<SpecState>>& states) {
  std::vector<std::unique_ptr<SpecState>> unique;
  for (auto& s : states) {
    bool dup = false;
    for (const auto& u : unique) {
      if (u->equals(*s)) {
        dup = true;
        break;
      }
    }
    if (!dup) unique.push_back(std::move(s));
  }
  states = std::move(unique);
}

std::map<ObjectId, std::vector<std::unique_ptr<SpecState>>> clone_states(
    const std::map<ObjectId, std::vector<std::unique_ptr<SpecState>>>& from) {
  std::map<ObjectId, std::vector<std::unique_ptr<SpecState>>> out;
  for (const auto& [x, set] : from) {
    auto& dst = out[x];
    dst.reserve(set.size());
    for (const auto& s : set) dst.push_back(s->clone());
  }
  return out;
}

constexpr std::uint64_t kMaxKey = std::numeric_limits<std::uint64_t>::max();

}  // namespace

const char* to_string(VcVerdict v) {
  switch (v) {
    case VcVerdict::kPass:
      return "PASS";
    case VcVerdict::kSuspicious:
      return "SUSPICIOUS";
    case VcVerdict::kViolation:
      return "VIOLATION";
  }
  return "?";
}

VectorClockChecker::VectorClockChecker(const SystemSpec& system,
                                       VcCheckerOptions options)
    : system_(system), options_(options), conflicts_(system_) {}

void VectorClockChecker::feed(std::vector<SequencedEvent> batch) {
  for (SequencedEvent& se : batch) feed(std::move(se));
}

void VectorClockChecker::feed(SequencedEvent se) {
  ++stats_.events;
  const ActivityId id = se.event.activity;
  ActivityState& act = activities_[id];
  const bool terminated = act.committed || act.aborted;
  switch (se.event.kind) {
    case EventKind::kInitiate:
      if (act.ts == kNoTimestamp) {
        act.ts = se.event.timestamp;
        if (!terminated) {
          open_initiations_.insert(act.ts);
          act.init_open = true;
        }
      }
      return;
    case EventKind::kCommit:
      if (!act.committed && !act.aborted) {
        act.committed = true;
        act.first_commit_seq = se.seq;
        if (se.event.has_timestamp() && act.ts == kNoTimestamp) {
          act.ts = se.event.timestamp;  // hybrid update commit stamp
        }
        if (act.init_open) {
          open_initiations_.erase(open_initiations_.find(act.ts));
          act.init_open = false;
        }
        handle_commit(id, act);
      }
      return;
    case EventKind::kAbort:
      if (!act.committed && !act.aborted) {
        act.aborted = true;
        act.events.clear();  // not part of the committed projection
        act.events.shrink_to_fit();
        if (act.init_open) {
          open_initiations_.erase(open_initiations_.find(act.ts));
          act.init_open = false;
        }
      }
      return;
    case EventKind::kInvoke:
    case EventKind::kRespond:
      if (act.aborted || act.quarantined) return;
      act.events.push_back(std::move(se));
      if (act.folded) {
        // The activity was folded from an incomplete buffer (a slow
        // recorder shard published late). The fold is stale; only an
        // exact re-replay with the full buffer can re-judge it.
        ++buffered_events_;
        if (act.certified) {
          act.certified = false;
          --stats_.certified;
        }
        mark_suspicious(id, act,
                        "events for " + argus::to_string(id) +
                            " arrived after it was folded");
      }
      return;
  }
}

void VectorClockChecker::handle_commit(ActivityId id, ActivityState& act) {
  const std::uint64_t key = act.key();
  if (checkpoint_key_ != 0 && key <= checkpoint_key_) {
    // Straggler: committed below an already-sealed prefix. Its canonical
    // slot is gone, but if every one of its operations always-commutes
    // with everything folded above its key, folding it now is equivalent
    // to folding it in place.
    bool commutes = true;
    for (const SequencedEvent& se : act.events) {
      if (se.event.kind != EventKind::kInvoke) continue;
      const ObjectId x = se.event.object;
      if (!system_.has(x)) continue;
      for (const auto* clock : {&sealed_ops_, &window_ops_}) {
        auto it = clock->find(x);
        if (it == clock->end()) continue;
        for (const auto& [op, op_key] : it->second) {
          if (op_key <= key) continue;
          ++stats_.vc_ops;
          if (conflicts_.conflicts(x, se.event.operation, op)) {
            commutes = false;
            break;
          }
        }
        if (!commutes) break;
      }
      if (!commutes) break;
    }
    if (!commutes) {
      ++stats_.stragglers;
      act.quarantined = true;
      act.events.clear();
      act.events.shrink_to_fit();
      return;
    }
    ++stats_.straggler_resolved;
    // Fall through: fold in observed order, exact by commutation.
  }

  const bool mis = join_clocks(act, key, /*include_sealed=*/true);
  epoch_max_key_ = std::max(epoch_max_key_, key);
  if (mis) {
    std::ostringstream why;
    why << "activity " << argus::to_string(id) << " (key " << key
        << ") committed after a conflicting operation was folded under a "
           "larger key";
    mark_suspicious(id, act, why.str());
    if (act.quarantined) {  // kVectorClock: quarantined unresolved
      act.events.clear();
      act.events.shrink_to_fit();
      return;
    }
    // kEscalating: buffer unfolded; the escalation re-replays it in its
    // exact canonical slot.
    epoch_folded_.push_back(id);
    buffered_events_ += act.events.size();
    return;
  }

  epoch_folded_.push_back(id);
  buffered_events_ += act.events.size();
  ++stats_.folds;
  const bool open_below =
      !open_initiations_.empty() && *open_initiations_.begin() < key;
  const bool clean_context =
      !dirty_ && !epoch_quarantine_ && !open_below && deferred_.empty();
  std::string why;
  if (replay_into(id, act, observed_, &why)) {
    act.folded = true;
    register_fold(act, key);
    if (clean_context) {
      certify(id, act);
    } else {
      deferred_.push_back(id);
    }
  } else if (clean_context && key < frontier_seen_) {
    // The canonical prefix below key is provably complete (no key below
    // the observed frontier can still be drawn), so the failure is a
    // genuine violation right now.
    report_violation(id, act, why);
  } else {
    mark_suspicious(id, act,
                    why + " (canonical prefix unresolved at fold time)");
  }
}

bool VectorClockChecker::join_clocks(ActivityState& act, std::uint64_t key,
                                     bool include_sealed) {
  bool mis = false;
  for (const SequencedEvent& se : act.events) {
    if (se.event.kind != EventKind::kInvoke) continue;
    const ObjectId x = se.event.object;
    if (!system_.has(x)) continue;
    for (const auto* clock : {&window_ops_, &sealed_ops_}) {
      if (clock == &sealed_ops_ && !include_sealed) continue;
      auto it = clock->find(x);
      if (it == clock->end()) continue;
      for (const auto& [op, op_key] : it->second) {
        if (op_key <= key) continue;
        ++stats_.vc_ops;
        if (conflicts_.conflicts(x, se.event.operation, op)) {
          auto [slot, inserted] = act.clock.try_emplace(x, op_key);
          if (!inserted) slot->second = std::max(slot->second, op_key);
          mis = true;
        }
      }
    }
  }
  return mis;
}

bool VectorClockChecker::replay_into(ActivityId id, ActivityState& act,
                                     StateMap& states, std::string* why) {
  std::sort(act.events.begin(), act.events.end(),
            [](const SequencedEvent& a, const SequencedEvent& b) {
              return a.seq < b.seq;
            });
  // h|a split per object, preserving order — the per-object view whose
  // replay is exactly serializability-in-order's acceptance test.
  std::map<ObjectId, History> per_object;
  std::vector<ObjectId> object_order;
  for (const SequencedEvent& se : act.events) {
    auto [it, inserted] = per_object.try_emplace(se.event.object);
    if (inserted) object_order.push_back(se.event.object);
    it->second.append(se.event);
  }
  // Two-phase: compute every object's successor set before mutating any,
  // so a failed fold leaves the chain untouched.
  std::map<ObjectId, StateSet> next_sets;
  for (ObjectId x : object_order) {
    if (!system_.has(x)) continue;  // object created after the snapshot
    StateSet& current = states_for(states, x);
    StateSet next;
    for (const auto& s : current) {
      for (auto& reached : replay_states(*s, per_object.at(x))) {
        next.push_back(std::move(reached));
      }
    }
    dedupe(next);
    if (next.empty()) {
      if (why != nullptr) {
        std::ostringstream out;
        out << "activity " << argus::to_string(id) << " (key " << act.key()
            << ") has no acceptable replay at object " << argus::to_string(x)
            << " (" << system_.spec_of(x).type_name() << "); h|a|x =\n"
            << per_object.at(x).to_string();
        *why = out.str();
      }
      return false;
    }
    next_sets[x] = std::move(next);
  }
  for (auto& [x, next] : next_sets) states[x] = std::move(next);
  return true;
}

void VectorClockChecker::register_fold(const ActivityState& act,
                                       std::uint64_t key) {
  for (const SequencedEvent& se : act.events) {
    if (se.event.kind != EventKind::kInvoke) continue;
    if (!system_.has(se.event.object)) continue;
    auto [it, inserted] =
        window_ops_[se.event.object].try_emplace(se.event.operation, key);
    if (!inserted) it->second = std::max(it->second, key);
  }
}

void VectorClockChecker::certify(ActivityId /*id*/, ActivityState& act) {
  if (!act.certified) {
    act.certified = true;
    act.suspicious = false;
    ++stats_.certified;
  }
}

void VectorClockChecker::mark_suspicious(ActivityId /*id*/,
                                         ActivityState& act,
                                         const std::string& why) {
  if (act.certified) {
    // An eager certificate is provisional until its epoch seals; retract
    // it when the activity comes back under suspicion.
    act.certified = false;
    --stats_.certified;
  }
  if (!act.suspicious) {
    act.suspicious = true;
    ++stats_.suspicious;
  }
  last_suspicion_ = why;
  dirty_ = true;
  if (!options_.escalate && !act.quarantined) {
    act.quarantined = true;
    epoch_quarantine_ = true;
    ++stats_.unresolved;
  }
}

void VectorClockChecker::report_violation(ActivityId id, ActivityState& act,
                                          const std::string& why) {
  if (act.certified) {
    act.certified = false;
    --stats_.certified;
  }
  ++stats_.violations;
  std::string full =
      "atomicity violation: committed projection is not serializable in its "
      "canonical order — " +
      why;
  last_violation_ = full;
  pending_reports_.push_back(std::move(full));
  act.quarantined = true;
  act.suspicious = false;
  act.events.clear();
  act.events.shrink_to_fit();
  (void)id;
}

VectorClockChecker::StateSet& VectorClockChecker::states_for(StateMap& states,
                                                             ObjectId x) {
  auto it = states.find(x);
  if (it == states.end()) {
    StateSet initial;
    initial.push_back(system_.spec_of(x).initial_state());
    it = states.emplace(x, std::move(initial)).first;
  }
  return it->second;
}

void VectorClockChecker::advance_frontier(std::uint64_t clock_hint) {
  ++stats_.windows;
  std::uint64_t frontier = clock_hint;
  if (!open_initiations_.empty()) {
    frontier = std::min(frontier, *open_initiations_.begin());
  }
  frontier_seen_ = std::max(frontier_seen_, frontier);
  if (dirty_ && options_.escalate) {
    ++stats_.escalations;
    reseal_epoch(frontier, /*exact_verdicts=*/true);
  } else {
    ++stats_.fastpath_windows;
    maybe_checkpoint(frontier);
  }
}

void VectorClockChecker::maybe_checkpoint(std::uint64_t frontier) {
  if (buffered_events_ < options_.checkpoint_threshold) return;
  if (!dirty_ && epoch_max_key_ < frontier) {
    seal_clean_epoch(frontier);
  } else {
    reseal_epoch(frontier, options_.escalate || !epoch_quarantine_);
  }
}

void VectorClockChecker::seal_clean_epoch(std::uint64_t /*frontier*/) {
  // Monotone clean epoch: every folded key is below the frontier and the
  // observed chain is the canonical chain — seal by cloning, no replay.
  ++stats_.checkpoints;
  checkpoint_ = clone_states(observed_);
  checkpoint_key_ = std::max(checkpoint_key_, epoch_max_key_);
  for (ActivityId id : deferred_) {
    auto it = activities_.find(id);
    if (it != activities_.end() && !it->second.quarantined) {
      certify(id, it->second);
    }
  }
  deferred_.clear();
  for (auto& [x, ops] : window_ops_) {
    OpClock& sealed = sealed_ops_[x];
    for (const auto& [op, key] : ops) {
      auto [it, inserted] = sealed.try_emplace(op, key);
      if (!inserted) it->second = std::max(it->second, key);
    }
  }
  window_ops_.clear();
  drop_sealed(epoch_folded_);
  epoch_folded_.clear();
  buffered_events_ = 0;
  epoch_quarantine_ = false;
}

void VectorClockChecker::reseal_epoch(std::uint64_t frontier,
                                      bool exact_verdicts) {
  // Exact canonical re-replay of the epoch buffer from the checkpoint:
  // the incremental check the suspicious path escalates to, and the seal
  // for epochs whose observed order cannot be trusted wholesale.
  ++stats_.checkpoints;
  std::vector<std::pair<std::uint64_t, ActivityId>> order;
  for (ActivityId id : epoch_folded_) {
    auto it = activities_.find(id);
    if (it == activities_.end()) continue;
    const ActivityState& act = it->second;
    if (!act.committed || act.quarantined || act.aborted) continue;
    order.emplace_back(act.key(), id);
  }
  std::sort(order.begin(), order.end());
  order.erase(std::unique(order.begin(), order.end()), order.end());

  StateMap states = clone_states(checkpoint_);
  std::vector<ActivityId> sealed;
  std::vector<ActivityId> remaining;
  std::uint64_t max_sealed_key = checkpoint_key_;
  bool crossed = false;
  bool still_dirty = false;
  for (const auto& [key, id] : order) {
    if (!crossed && key >= frontier) {
      checkpoint_ = clone_states(states);
      crossed = true;
    }
    ActivityState& act = activities_.at(id);
    std::string why;
    const bool ok = replay_into(id, act, states, &why);
    if (!crossed) {
      if (ok) {
        act.folded = true;
        certify(id, act);
      } else if (exact_verdicts) {
        report_violation(id, act, why);
      } else {
        // Quarantined activities were excluded from this chain, so a
        // failure here could be an artifact of the exclusion: stay
        // honest and report suspicion, not violation.
        if (act.certified) {
          act.certified = false;
          --stats_.certified;
        }
        if (!act.suspicious) {
          act.suspicious = true;
          ++stats_.suspicious;
        }
        act.quarantined = true;
        ++stats_.unresolved;
        last_suspicion_ = why;
      }
      max_sealed_key = std::max(max_sealed_key, key);
      sealed.push_back(id);
    } else {
      // Above the frontier: a smaller key can still appear, so the
      // verdict stays pending; the fold into the rebuilt chain stands.
      act.folded = ok;
      if (!ok) {
        still_dirty = true;
        if (act.certified) {
          act.certified = false;
          --stats_.certified;
        }
        if (!act.suspicious) {
          act.suspicious = true;
          ++stats_.suspicious;
        }
        last_suspicion_ = why;
      } else {
        act.suspicious = false;
      }
      remaining.push_back(id);
    }
  }
  if (!crossed) checkpoint_ = clone_states(states);
  checkpoint_key_ = max_sealed_key;
  observed_ = std::move(states);

  // Rebuild the epoch-local op clocks from what stays buffered; the
  // sealed prefix moves into the all-time summary.
  std::map<ObjectId, OpClock> sealed_merge = std::move(window_ops_);
  window_ops_.clear();
  for (ActivityId id : remaining) {
    ActivityState& act = activities_.at(id);
    if (act.folded) register_fold(act, act.key());
  }
  for (auto& [x, ops] : sealed_merge) {
    OpClock& dst = sealed_ops_[x];
    for (const auto& [op, key] : ops) {
      // Only keys at or below the new checkpoint are truly sealed, but a
      // max-key summary is a sound over-approximation either way.
      auto [it, inserted] = dst.try_emplace(op, key);
      if (!inserted) it->second = std::max(it->second, key);
    }
  }

  drop_sealed(sealed);
  epoch_folded_ = std::move(remaining);
  buffered_events_ = 0;
  for (ActivityId id : epoch_folded_) {
    buffered_events_ += activities_.at(id).events.size();
  }
  deferred_.clear();
  for (ActivityId id : epoch_folded_) {
    if (activities_.at(id).folded) deferred_.push_back(id);
  }
  epoch_max_key_ = checkpoint_key_;
  for (ActivityId id : epoch_folded_) {
    epoch_max_key_ = std::max(epoch_max_key_, activities_.at(id).key());
  }
  dirty_ = still_dirty;
  epoch_quarantine_ = false;
}

void VectorClockChecker::drop_sealed(const std::vector<ActivityId>& sealed) {
  for (ActivityId id : sealed) activities_.erase(id);
  // Drop terminated tombstones (aborted or quarantined activities) whose
  // events can no longer matter.
  for (auto it = activities_.begin(); it != activities_.end();) {
    if (it->second.aborted || it->second.quarantined) {
      it = activities_.erase(it);
    } else {
      ++it;
    }
  }
}

void VectorClockChecker::finish() {
  // Open initiations of activities that never commit impose no
  // constraint on the committed projection: flush everything.
  frontier_seen_ = kMaxKey;
  if (dirty_ && options_.escalate) {
    ++stats_.escalations;
    reseal_epoch(kMaxKey, /*exact_verdicts=*/true);
  } else if (dirty_) {
    reseal_epoch(kMaxKey, /*exact_verdicts=*/!epoch_quarantine_);
  } else if (!epoch_folded_.empty() || !deferred_.empty()) {
    seal_clean_epoch(kMaxKey);
  }
}

VcVerdict VectorClockChecker::verdict() const {
  if (stats_.violations > 0) return VcVerdict::kViolation;
  if (stats_.unresolved > 0 || stats_.stragglers > 0 || dirty_) {
    return VcVerdict::kSuspicious;
  }
  return VcVerdict::kPass;
}

std::vector<std::string> VectorClockChecker::drain_reports() {
  std::vector<std::string> out;
  out.swap(pending_reports_);
  return out;
}

std::vector<ActivityId> canonical_order(const History& h) {
  const auto committed = h.committed();
  std::map<ActivityId, std::uint64_t> first_commit;
  std::uint64_t seq = 0;
  for (const Event& e : h.events()) {
    ++seq;
    if (e.kind == EventKind::kCommit && committed.count(e.activity) != 0) {
      first_commit.try_emplace(e.activity, seq);
    }
  }
  std::vector<std::pair<std::uint64_t, ActivityId>> order;
  order.reserve(first_commit.size());
  for (const auto& [a, commit_seq] : first_commit) {
    const auto ts = h.timestamp_of(a);
    order.emplace_back(ts.has_value() ? *ts : commit_seq, a);
  }
  std::sort(order.begin(), order.end());
  std::vector<ActivityId> result;
  result.reserve(order.size());
  for (const auto& [key, a] : order) result.push_back(a);
  return result;
}

CheckResult check_canonical_atomic(const SystemSpec& system,
                                   const History& h) {
  const std::vector<ActivityId> order = canonical_order(h);
  if (serializable_in_order(system, h.perm(), order)) {
    return {true, "committed projection serializable in canonical order"};
  }
  std::ostringstream out;
  out << "committed projection not serializable in canonical order:";
  for (ActivityId a : order) out << " " << argus::to_string(a);
  return {false, out.str()};
}

VcReport check_vc_atomic(const SystemSpec& system, const History& h,
                         VcCheckerOptions options, std::size_t window) {
  VectorClockChecker checker(system, options);
  // Honest frontier hints: the minimum serialization key any *future*
  // event can still introduce (timestamps may have been drawn well
  // before their first commit arrives; an online feed gets the same
  // guarantee from the recorder's Lamport clock plus open initiations).
  const std::vector<Event>& events = h.events();
  std::vector<std::uint64_t> future_min(events.size() + 1, kMaxKey);
  for (std::size_t i = events.size(); i > 0; --i) {
    const Event& e = events[i - 1];
    std::uint64_t key = kMaxKey;
    if (e.kind == EventKind::kInitiate && e.has_timestamp()) {
      key = e.timestamp;
    } else if (e.kind == EventKind::kCommit) {
      key = e.has_timestamp() ? e.timestamp : i;
    }
    future_min[i - 1] = std::min(future_min[i], key);
  }
  std::uint64_t seq = 0;
  for (const Event& e : events) {
    ++seq;
    checker.feed(SequencedEvent{seq, e});
    if (window != 0 && seq % window == 0 && seq < events.size()) {
      checker.advance_frontier(future_min[seq]);
    }
  }
  checker.finish();
  VcReport report;
  report.verdict = checker.verdict();
  report.stats = checker.stats();
  report.reports = checker.drain_reports();
  return report;
}

}  // namespace argus

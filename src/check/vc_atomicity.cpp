#include "check/vc_atomicity.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <utility>

#include "spec/serial.h"

namespace argus {

namespace {

/// Deduplicates a candidate set in place by pairwise equality (same
/// discipline as spec/serial.cpp: candidate sets stay tiny for our ADTs).
void dedupe(std::vector<std::unique_ptr<SpecState>>& states) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < states.size(); ++i) {
    bool dup = false;
    for (std::size_t j = 0; j < kept && !dup; ++j) {
      dup = states[j]->equals(*states[i]);
    }
    if (!dup) states[kept++] = std::move(states[i]);
  }
  states.resize(kept);
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

SerialFold::StateMap SerialFold::clone(const StateMap& states) {
  StateMap out;
  for (const auto& [x, set] : states) {
    auto& dst = out[x];
    dst.reserve(set.size());
    for (const auto& s : set) dst.push_back(s->clone());
  }
  return out;
}

bool SerialFold::fold(ActivityId id, std::uint64_t key,
                      std::vector<const SequencedEvent*>& events,
                      StateMap& states, std::string* why) {
  const auto by_seq = [](const SequencedEvent* a, const SequencedEvent* b) {
    return a->seq < b->seq;
  };
  if (!std::is_sorted(events.begin(), events.end(), by_seq)) {
    std::sort(events.begin(), events.end(), by_seq);
  }
  objects_.clear();
  for (const SequencedEvent* se : events) {
    const ObjectId x = se->event.object;
    if (std::find(objects_.begin(), objects_.end(), x) == objects_.end()) {
      objects_.push_back(x);
    }
  }
  // Two-phase: compute every object's successor set before mutating any,
  // so a failed fold leaves the chain untouched.
  next_.clear();
  for (const ObjectId x : objects_) {
    if (!system_.has(x)) continue;  // object created after the snapshot
    auto slot = states.find(x);
    if (slot == states.end()) {
      StateSet initial;
      initial.push_back(system_.spec_of(x).initial_state());
      slot = states.emplace(x, std::move(initial)).first;
    }
    // h|a|x, replayed from every candidate at once. One activity has at
    // most one pending invocation; its response's result prunes the
    // successors.
    const StateSet* from = &slot->second;
    StateSet reached = take_set();
    StateSet next = take_set();
    const Operation* pending = nullptr;
    bool ok = true;
    for (const SequencedEvent* se : events) {
      const Event& e = se->event;
      if (e.object != x) continue;
      if (e.kind == EventKind::kInvoke) {
        pending = &e.operation;
        continue;
      }
      if (e.kind != EventKind::kRespond) continue;
      if (pending == nullptr) {  // a response with no pending invocation
        ok = false;
        break;
      }
      next.clear();
      for (const auto& s : *from) {
        for (auto& outcome : s->step(*pending)) {
          if (outcome.result == e.result) {
            next.push_back(std::move(outcome.state));
          }
        }
      }
      pending = nullptr;
      dedupe(next);
      if (next.empty()) {
        ok = false;
        break;
      }
      reached.swap(next);
      from = &reached;
    }
    give_back(std::move(next));
    if (!ok) {
      give_back(std::move(reached));
      for (auto& entry : next_) give_back(std::move(entry.second));
      next_.clear();
      if (why != nullptr) {
        History at_x;
        for (const SequencedEvent* se : events) {
          if (se->event.object == x) at_x.append(se->event);
        }
        std::ostringstream out;
        out << "activity " << argus::to_string(id) << " (key " << key
            << ") has no acceptable replay at object " << argus::to_string(x)
            << " (" << system_.spec_of(x).type_name() << "); h|a|x =\n"
            << at_x.to_string();
        *why = out.str();
      }
      return false;
    }
    if (from == &reached) {
      next_.emplace_back(&slot->second, std::move(reached));
    } else {
      give_back(std::move(reached));
    }
  }
  for (auto& [slot, reached] : next_) {
    slot->swap(reached);
    give_back(std::move(reached));  // the replaced set
  }
  next_.clear();
  return true;
}

SerialFold::StateSet SerialFold::take_set() {
  if (spare_.empty()) return {};
  StateSet set = std::move(spare_.back());
  spare_.pop_back();
  return set;
}

void SerialFold::give_back(StateSet set) {
  constexpr std::size_t kMaxSpare = 16;
  set.clear();
  if (spare_.size() < kMaxSpare) spare_.push_back(std::move(set));
}

VectorClockChecker::VectorClockChecker(const SystemSpec& system,
                                       VcCheckerOptions options)
    : system_(system),
      options_(options),
      conflicts_(system_),
      fold_(system_) {}

void VectorClockChecker::feed(
    const std::vector<const SequencedEvent*>& batch) {
  for (const SequencedEvent* se : batch) feed(se);
}

void VectorClockChecker::feed(const SequencedEvent* se) {
  ++stats_.events;
  const Event& e = se->event;
  const ActivityId id = e.activity;
  ActivityState& act = activities_[id];
  const bool terminated = act.committed || act.aborted;
  switch (e.kind) {
    case EventKind::kInitiate:
      if (act.ts == kNoTimestamp) {
        act.ts = e.timestamp;
        if (!terminated) {
          open_initiations_.insert(act.ts);
          act.init_open = true;
        }
      }
      return;
    case EventKind::kCommit:
      if (!act.committed && !act.aborted) {
        act.committed = true;
        act.first_commit_seq = se->seq;
        if (e.has_timestamp() && act.ts == kNoTimestamp) {
          act.ts = e.timestamp;  // hybrid update commit stamp
        }
        if (act.init_open) {
          open_initiations_.erase(open_initiations_.find(act.ts));
          act.init_open = false;
        }
        if (options_.hold_back && act.key() >= frontier_seen_) {
          held_.emplace_back(act.key(), id);  // folds once the frontier passes
        } else {
          handle_commit(id, act);
        }
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
      // One allocation covers a typical activity's events.
      if (act.events.empty()) act.events.reserve(8);
      act.events.push_back(se);
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
  const bool mis = conflicts_above(act, key);
  if (checkpoint_key_ != 0 && key <= checkpoint_key_) {
    // Straggler: committed below an already-sealed prefix. Its canonical
    // slot is gone, but if every one of its operations always-commutes
    // with everything folded above its key, folding it now is equivalent
    // to folding it in place.
    if (mis) {
      ++stats_.stragglers;
      act.quarantined = true;
      act.events.clear();
      act.events.shrink_to_fit();
      return;
    }
    ++stats_.straggler_resolved;
    // Fall through: fold in observed order, exact by commutation.
  }

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
  if (fold_.fold(id, act.key(), act.events, observed_, &why)) {
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

void VectorClockChecker::fold_held(std::uint64_t limit) {
  const auto ready =
      std::partition(held_.begin(), held_.end(),
                     [limit](const auto& held) { return held.first >= limit; });
  std::sort(ready, held_.end());
  for (auto it = ready; it != held_.end(); ++it) {
    handle_commit(it->second, activities_.at(it->second));
  }
  held_.erase(ready, held_.end());
}

bool VectorClockChecker::conflicts_above(const ActivityState& act,
                                         std::uint64_t key) {
  for (const SequencedEvent* se : act.events) {
    if (se->event.kind != EventKind::kInvoke) continue;
    const ObjectId x = se->event.object;
    if (!system_.has(x)) continue;
    for (const auto* clock : {&window_ops_, &sealed_ops_}) {
      auto it = clock->find(x);
      if (it == clock->end()) continue;
      for (const auto& [op, op_key] : it->second) {
        if (op_key <= key) continue;
        ++stats_.vc_ops;
        if (conflicts_.conflicts(x, se->event.operation, op)) return true;
      }
    }
  }
  return false;
}

void VectorClockChecker::register_fold(const ActivityState& act,
                                       std::uint64_t key) {
  for (const SequencedEvent* se : act.events) {
    if (se->event.kind != EventKind::kInvoke) continue;
    if (!system_.has(se->event.object)) continue;
    auto [it, inserted] =
        window_ops_[se->event.object].try_emplace(se->event.operation, key);
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

void VectorClockChecker::advance_frontier(std::uint64_t frontier) {
  ++stats_.windows;
  if (!open_initiations_.empty()) {
    frontier = std::min(frontier, *open_initiations_.begin());
  }
  frontier_seen_ = std::max(frontier_seen_, frontier);
  fold_held(frontier_seen_);
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
  ++stats_.clean_seals;
  checkpoint_ = SerialFold::clone(observed_);
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
  ++stats_.reseals;
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

  StateMap states = SerialFold::clone(checkpoint_);
  std::vector<ActivityId> sealed;
  std::vector<ActivityId> remaining;
  std::uint64_t max_sealed_key = checkpoint_key_;
  bool crossed = false;
  bool still_dirty = false;
  for (const auto& [key, id] : order) {
    if (!crossed && key >= frontier) {
      checkpoint_ = SerialFold::clone(states);
      crossed = true;
    }
    ActivityState& act = activities_.at(id);
    std::string why;
    const bool ok = fold_.fold(id, act.key(), act.events, states, &why);
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
  if (!crossed) checkpoint_ = SerialFold::clone(states);
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
  fold_held(kMaxKey);
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

std::uint64_t VectorClockChecker::oldest_retained_seq() const {
  std::uint64_t oldest = kMaxKey;
  for (const auto& [id, act] : activities_) {
    for (const SequencedEvent* se : act.events) {
      oldest = std::min(oldest, se->seq);
    }
  }
  return oldest;
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
  // The checker points into its events: this wrapper owns the copies.
  std::vector<SequencedEvent> owned;
  owned.reserve(events.size());
  std::uint64_t seq = 0;
  for (const Event& e : events) owned.push_back(SequencedEvent{++seq, e});
  for (const SequencedEvent& se : owned) {
    checker.feed(&se);
    if (window != 0 && se.seq % window == 0 && se.seq < events.size()) {
      checker.advance_frontier(future_min[se.seq]);
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

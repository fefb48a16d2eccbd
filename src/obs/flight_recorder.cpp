#include "obs/flight_recorder.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

namespace argus {

namespace {

std::uint64_t next_instance_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

FlightRecorder::FlightRecorder(LamportClock& clock,
                               FlightRecorderOptions options)
    : clock_(clock), options_(options), instance_id_(next_instance_id()) {}

FlightRecorder::~FlightRecorder() = default;

FlightRecorder::Shard& FlightRecorder::local_shard() {
  // Thread-local binding keyed by a never-reused instance id, so a shard
  // pointer cached for a destroyed recorder can never be revived by
  // address reuse. Entries for dead recorders are never looked up again;
  // they cost a few bytes per (thread, recorder) pair.
  struct Binding {
    std::uint64_t instance{0};
    Shard* shard{nullptr};
    std::unordered_map<std::uint64_t, Shard*> others;
  };
  thread_local Binding binding;
  if (binding.instance == instance_id_) return *binding.shard;
  auto it = binding.others.find(instance_id_);
  Shard* shard = it == binding.others.end() ? nullptr : it->second;
  if (shard == nullptr) {
    auto owned = std::make_unique<Shard>();
    shard = owned.get();
    {
      const std::scoped_lock lock(shards_mu_);
      shards_.push_back(std::move(owned));
    }
    binding.others.emplace(instance_id_, shard);
  }
  binding.instance = instance_id_;
  binding.shard = shard;
  return *shard;
}

void FlightRecorder::record(Event e) {
  Shard& shard = local_shard();
  const std::scoped_lock lock(shard.mu);
  // The sequence draw happens under the shard lock and inside the
  // object's critical section (record() is called with the monitor
  // held), so per-shard sequences are strictly increasing and the global
  // sort by sequence is a faithful observation order.
  const std::uint64_t seq = clock_.next();
  if (options_.shard_capacity == 0) {
    shard.buffer.push_back(SequencedEvent{seq, std::move(e)});
  } else {
    if (shard.buffer.size() < options_.shard_capacity) {
      shard.buffer.push_back(SequencedEvent{seq, std::move(e)});
    } else {
      shard.buffer[static_cast<std::size_t>(shard.appended %
                                            options_.shard_capacity)] =
          SequencedEvent{seq, std::move(e)};
    }
  }
  ++shard.appended;
}

std::vector<std::vector<SequencedEvent>> FlightRecorder::copy_shards() const {
  std::vector<Shard*> shards;
  {
    const std::scoped_lock lock(shards_mu_);
    shards.reserve(shards_.size());
    for (const auto& s : shards_) shards.push_back(s.get());
  }
  std::vector<std::vector<SequencedEvent>> out;
  out.reserve(shards.size());
  for (Shard* shard : shards) {
    const std::scoped_lock lock(shard->mu);
    std::vector<SequencedEvent> slice;
    slice.reserve(shard->buffer.size());
    if (options_.shard_capacity == 0 ||
        shard->buffer.size() < options_.shard_capacity) {
      for (std::size_t i = 0; i < shard->buffer.size(); ++i) {
        slice.push_back(shard->buffer[i]);
      }
    } else {
      // Ring: oldest retained entry sits at appended % capacity.
      const std::size_t cap = options_.shard_capacity;
      const std::size_t start = static_cast<std::size_t>(shard->appended % cap);
      for (std::size_t i = 0; i < cap; ++i) {
        slice.push_back(shard->buffer[(start + i) % cap]);
      }
    }
    out.push_back(std::move(slice));
  }
  return out;
}

namespace {

/// Merges seq-ascending slices into one seq-ascending vector.
std::vector<SequencedEvent> merge_slices(
    std::vector<std::vector<SequencedEvent>> slices) {
  std::vector<SequencedEvent> merged;
  std::size_t total = 0;
  for (const auto& s : slices) total += s.size();
  merged.reserve(total);
  for (auto& s : slices) {
    merged.insert(merged.end(), std::make_move_iterator(s.begin()),
                  std::make_move_iterator(s.end()));
  }
  std::sort(merged.begin(), merged.end(),
            [](const SequencedEvent& a, const SequencedEvent& b) {
              return a.seq < b.seq;
            });
  return merged;
}

}  // namespace

History FlightRecorder::snapshot() const {
  History h;
  for (auto& se : merge_slices(copy_shards())) h.append(std::move(se.event));
  return h;
}

std::vector<SequencedEvent> FlightRecorder::sequenced_snapshot() const {
  return merge_slices(copy_shards());
}

History FlightRecorder::tail(std::size_t max_events) const {
  auto merged = merge_slices(copy_shards());
  History h;
  const std::size_t start =
      merged.size() > max_events ? merged.size() - max_events : 0;
  for (std::size_t i = start; i < merged.size(); ++i) {
    h.append(std::move(merged[i].event));
  }
  return h;
}

DrainedEvents FlightRecorder::drain_new() {
  std::vector<Shard*> shards;
  {
    const std::scoped_lock lock(shards_mu_);
    shards.reserve(shards_.size());
    for (const auto& s : shards_) shards.push_back(s.get());
  }
  DrainedEvents batch;
  const std::size_t cap = options_.shard_capacity;
  // End of each shard's run in the batch; every run is in sequence order
  // (one writer per shard, sequence drawn under its lock).
  std::vector<std::size_t> run_ends;
  run_ends.reserve(shards.size());
  for (Shard* shard : shards) {
    const std::scoped_lock lock(shard->mu);
    const std::uint64_t oldest = shard->appended - shard->buffer.size();
    // Ring eviction may have discarded undrained events; skip the gap.
    if (shard->drained < oldest) shard->drained = oldest;
    for (; shard->drained < shard->appended; ++shard->drained) {
      const std::uint64_t logical = shard->drained;
      if (cap == 0) {
        batch.events.push_back(
            &shard->buffer[static_cast<std::size_t>(logical - oldest)]);
      } else {
        batch.copies.push_back(
            shard->buffer[static_cast<std::size_t>(logical % cap)]);
      }
    }
    run_ends.push_back(cap == 0 ? batch.events.size() : batch.copies.size());
  }
  if (cap != 0) {
    batch.events.reserve(batch.copies.size());
    for (const SequencedEvent& se : batch.copies) batch.events.push_back(&se);
  }
  const auto by_seq = [](const SequencedEvent* a, const SequencedEvent* b) {
    return a->seq < b->seq;
  };
  for (std::size_t i = 1; i < run_ends.size(); ++i) {
    std::inplace_merge(
        batch.events.begin(),
        batch.events.begin() + static_cast<std::ptrdiff_t>(run_ends[i - 1]),
        batch.events.begin() + static_cast<std::ptrdiff_t>(run_ends[i]),
        by_seq);
  }
  return batch;
}

void FlightRecorder::clear() {
  const std::scoped_lock lock(shards_mu_);
  for (const auto& shard : shards_) {
    const std::scoped_lock shard_lock(shard->mu);
    shard->recorded_before_clear += shard->appended;
    shard->dropped_before_clear += shard->evicted();
    shard->buffer.clear();
    // Restart the logical stream so the ring position stays aligned with
    // the rebuilt buffer (position appended % capacity == buffer.size()
    // while the shard refills).
    shard->appended = 0;
    shard->drained = 0;
  }
}

std::size_t FlightRecorder::size() const {
  std::size_t total = 0;
  const std::scoped_lock lock(shards_mu_);
  for (const auto& shard : shards_) {
    const std::scoped_lock shard_lock(shard->mu);
    total += shard->buffer.size();
  }
  return total;
}

std::uint64_t FlightRecorder::total_recorded() const {
  std::uint64_t total = 0;
  const std::scoped_lock lock(shards_mu_);
  for (const auto& shard : shards_) {
    const std::scoped_lock shard_lock(shard->mu);
    total += shard->recorded_before_clear + shard->appended;
  }
  return total;
}

std::uint64_t FlightRecorder::dropped() const {
  std::uint64_t total = 0;
  const std::scoped_lock lock(shards_mu_);
  for (const auto& shard : shards_) {
    const std::scoped_lock shard_lock(shard->mu);
    total += shard->dropped_before_clear + shard->evicted();
  }
  return total;
}

std::size_t FlightRecorder::shard_count() const {
  const std::scoped_lock lock(shards_mu_);
  return shards_.size();
}

}  // namespace argus

// FlightRecorder: a sharded, always-on capture of the event stream whose
// output is a well-formed History — the paper's computation, produced as
// production telemetry rather than a test artifact.
//
// Design:
//
//   * One shard per recording thread (bound thread-locally on first
//     record). Each shard is an append-only buffer guarded by its own
//     leaf mutex, so the common-case record() is an uncontended lock, a
//     sequence draw, and a push — no cross-thread cache traffic. One
//     global mutex over every event would be a second commit lock (E12
//     measured it), so exactly the high-concurrency executions the
//     checkers exist for would be the ones that could not be observed.
//
//   * Every event is stamped with a sequence drawn from the runtime's
//     LamportClock — the same counter that issues commit and initiation
//     timestamps. The draw happens inside the critical section in which
//     the event takes effect, so sorting by sequence reconstructs a
//     faithful observation of the computation (the guarantee one
//     global mutex would give), and event sequences are directly
//     comparable with the timestamps embedded in the events themselves.
//
//   * snapshot() / drain_new() merge the shards in sequence order.
//     snapshot() is non-destructive and returns the full retained
//     History (used by Runtime::history() and tests). drain_new()
//     advances per-shard cursors and returns only events not yet
//     drained — the incremental feed consumed by the atomicity sentinel
//     (obs/sentinel.h). The two coexist. In unbounded
//     mode a drain copies nothing: it hands out pointers into the shards'
//     chunks, which never move, so they stay valid until clear() (which
//     must therefore not run while a sentinel is attached).
//
//   * Bounded-memory mode (shard_capacity > 0) turns each shard into a
//     ring that keeps the last N events, for always-on crash dumps:
//     Runtime::crash() writes tail() in the parse.h notation so the
//     final moments of a failed node can be replayed through
//     examples/check_history_file.
//
// Threads that exit leave their shard behind (its events are still part
// of the history); a new thread gets a fresh shard. Shard count is
// therefore bounded by the number of distinct recording threads over the
// recorder's lifetime.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "hist/history.h"
#include "obs/event_sink.h"
#include "txn/clock.h"

namespace argus {

struct FlightRecorderOptions {
  /// 0 = unbounded shards (full history retained). N > 0 = each shard
  /// keeps only its most recent N events (crash-dump mode).
  std::size_t shard_capacity{0};
};

/// An event plus the global sequence number it was stamped with.
struct SequencedEvent {
  std::uint64_t seq{0};
  Event event;
};

/// What one drain_new() returns: the drained events in sequence order.
/// In unbounded mode `events` points into the recorder's storage and
/// stays valid until clear(). A ring slot can be overwritten at any time,
/// so in ring mode the batch carries copies of the events and `events`
/// points into them: keep `copies` alive (moving the batch keeps the
/// pointers valid) for as long as the pointers are used.
struct DrainedEvents {
  std::vector<const SequencedEvent*> events;
  std::vector<SequencedEvent> copies;  // ring mode only

  [[nodiscard]] std::size_t size() const { return events.size(); }
  [[nodiscard]] bool empty() const { return events.empty(); }
  [[nodiscard]] const SequencedEvent& operator[](std::size_t i) const {
    return *events[i];
  }
};

class FlightRecorder final : public EventSink {
 public:
  explicit FlightRecorder(LamportClock& clock,
                          FlightRecorderOptions options = {});
  ~FlightRecorder() override;

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Appends to the calling thread's shard. Thread-safe, wait-free
  /// against other recording threads (they touch different shards).
  void record(Event e) override;

  /// The retained events of all shards merged in sequence order.
  /// Non-destructive; with bounded shards this is the flight-recorder
  /// tail rather than the full history.
  [[nodiscard]] History snapshot() const;

  /// The last `max_events` retained events, merged in sequence order.
  [[nodiscard]] History tail(std::size_t max_events) const;

  /// snapshot() with the sequence stamps kept — what the multi-site
  /// runtime merges across sites (per-site sequences come from disjoint
  /// clock domains, so a cross-site sort by seq is a faithful
  /// precedes-consistent interleaving). Non-destructive.
  [[nodiscard]] std::vector<SequencedEvent> sequenced_snapshot() const;

  /// Events recorded since the previous drain_new() call, merged in
  /// sequence order (see DrainedEvents for how long they stay valid).
  /// Advances the drain cursors (snapshot() is unaffected). Note that a
  /// slow recording thread can publish an event with a smaller sequence
  /// than one already drained from another shard; a consumer that needs
  /// a total order reads a frontier first (the sentinel does).
  [[nodiscard]] DrainedEvents drain_new();

  /// Discards all retained events and resets drain cursors. Invalidates
  /// every pointer an earlier drain_new() handed out, so it must not be
  /// called while a sentinel drains this recorder.
  void clear();

  /// Retained event count across shards.
  [[nodiscard]] std::size_t size() const;

  /// Events ever recorded (including ring-evicted and cleared ones),
  /// summed over the shards' own counters.
  [[nodiscard]] std::uint64_t total_recorded() const;

  /// Events evicted by bounded shards (0 in unbounded mode).
  [[nodiscard]] std::uint64_t dropped() const;

  [[nodiscard]] std::size_t shard_count() const;

  [[nodiscard]] const FlightRecorderOptions& options() const {
    return options_;
  }

 private:
  /// A shard's events, stored in fixed-size chunks so that growing never
  /// copies or moves them: drain_new() hands out pointers to them. A
  /// doubling std::vector would also briefly hold its old and new arrays;
  /// on long runs those transient copies, not the events, set the
  /// process's peak memory.
  class EventBuffer {
   public:
    static constexpr std::size_t kChunk = 4096;

    void push_back(SequencedEvent e) {
      if (size_ % kChunk == 0) chunks_.emplace_back().reserve(kChunk);
      chunks_.back().push_back(std::move(e));
      ++size_;
    }
    [[nodiscard]] SequencedEvent& operator[](std::size_t i) {
      return chunks_[i / kChunk][i % kChunk];
    }
    [[nodiscard]] const SequencedEvent& operator[](std::size_t i) const {
      return chunks_[i / kChunk][i % kChunk];
    }
    [[nodiscard]] std::size_t size() const { return size_; }
    void clear() {
      chunks_.clear();
      size_ = 0;
    }

   private:
    std::vector<std::vector<SequencedEvent>> chunks_;
    std::size_t size_{0};
  };

  struct Shard {
    mutable std::mutex mu;
    // Logical stream: events [appended - buffer.size(), appended). In
    // bounded mode `buffer` is a ring indexed modulo capacity; in
    // unbounded mode it simply grows.
    EventBuffer buffer;
    std::uint64_t appended{0};   // events appended since the last clear()
    std::uint64_t drained{0};    // logical index of the next undrained event
    // Carried across clear(), so the counters below cover the whole life.
    std::uint64_t recorded_before_clear{0};
    std::uint64_t dropped_before_clear{0};

    /// Ring evictions since the last clear() (0 in unbounded mode).
    [[nodiscard]] std::uint64_t evicted() const {
      return appended - buffer.size();
    }
  };

  Shard& local_shard();
  /// Copies the retained events of every shard (each slice is
  /// seq-ascending: one writer per shard, sequence drawn under its lock).
  [[nodiscard]] std::vector<std::vector<SequencedEvent>> copy_shards() const;

  LamportClock& clock_;
  const FlightRecorderOptions options_;
  const std::uint64_t instance_id_;  // thread-local binding key; never reused

  mutable std::mutex shards_mu_;  // guards shards_ (vector growth only)
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace argus

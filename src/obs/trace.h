// xia::obs — hierarchical tracing of the advisor pipeline.
//
// A Tracer accumulates SpanRecords; a ScopedSpan opens a span on
// construction and seals it (wall time, optimizer-call delta) on
// destruction. Spans nest: a span opened while another is active records
// one level deeper, so the finished Trace reads as an indented tree in
// start order. Depth-0 spans are the pipeline phases
// (enumerate → generalize → … → search → finalize); their times tile the
// traced region, which is what lets report.cc reproduce the Fig. 3
// per-phase breakdown without external timers.
//
// Every API tolerates a null Tracer so instrumented code can run
// untraced for free.

#ifndef XIA_OBS_TRACE_H_
#define XIA_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/stopwatch.h"

namespace xia::obs {

/// One finished span.
struct SpanRecord {
  std::string name;
  /// Nesting depth; 0 for pipeline phases.
  int depth = 0;
  /// Wall-clock duration.
  double seconds = 0;
  /// Delta of the tracer's tracked counter (optimizer calls for the
  /// advisor pipeline) over the span's lifetime.
  uint64_t tracked_calls = 0;
  /// Free-form count annotation (candidates enumerated, indexes selected,
  /// …); negative when unset.
  double items = -1;
};

/// A finished trace: spans in start order.
struct Trace {
  std::vector<SpanRecord> spans;

  bool empty() const { return spans.empty(); }
  const SpanRecord* Find(const std::string& name) const;
  /// Sum of depth-0 span durations (the per-phase total).
  double PhaseSeconds() const;
  /// Sum of depth-0 tracked-counter deltas.
  uint64_t PhaseTrackedCalls() const;

  /// Indented human-readable tree.
  std::string ToString() const;
  /// JSON array of span objects.
  std::string ToJson() const;
};

/// Collects spans. Not thread-safe: one tracer traces one pipeline run.
class Tracer {
 public:
  Tracer() = default;

  /// Tracks `counter` (may be null): every span records the tracked
  /// total's delta over its lifetime. Switching counters keeps the total
  /// continuous — a span open across the switch sums the old counter's
  /// moves before it and the new one's after — so a pipeline can hand the
  /// tracer from one short-lived counter to the next (ScopedTrackedCounter).
  /// The advisor points it at its own optimizers' call counters.
  void TrackCounter(const Counter* counter) {
    base_ = TrackedValue() - ValueOf(counter);  // unsigned wrap is exact
    tracked_ = counter;
  }

  /// The finished trace (spans sealed so far).
  Trace Finish() { return Trace{spans_}; }
  void Clear() {
    spans_.clear();
    depth_ = 0;
  }

 private:
  friend class ScopedSpan;
  friend class ScopedTrackedCounter;

  size_t Open(std::string name) {
    SpanRecord record;
    record.name = std::move(name);
    record.depth = depth_++;
    spans_.push_back(std::move(record));
    return spans_.size() - 1;
  }

  void Seal(size_t index, double seconds, uint64_t calls, double items) {
    SpanRecord& record = spans_[index];
    record.seconds = seconds;
    record.tracked_calls = calls;
    record.items = items;
    --depth_;
  }

  static uint64_t ValueOf(const Counter* counter) {
    return counter == nullptr ? 0 : counter->value();
  }
  uint64_t TrackedValue() const { return base_ + ValueOf(tracked_); }

  std::vector<SpanRecord> spans_;
  int depth_ = 0;
  const Counter* tracked_ = nullptr;
  uint64_t base_ = 0;
};

/// Points a tracer at `counter` for one scope, then hands it back to the
/// counter it tracked before — so the tracer never reads a counter that
/// died with its scope. With a null tracer it does nothing.
class ScopedTrackedCounter {
 public:
  ScopedTrackedCounter(Tracer* tracer, const Counter* counter)
      : tracer_(tracer),
        previous_(tracer == nullptr ? nullptr : tracer->tracked_) {
    if (tracer_ != nullptr) tracer_->TrackCounter(counter);
  }
  ~ScopedTrackedCounter() {
    if (tracer_ != nullptr) tracer_->TrackCounter(previous_);
  }

  ScopedTrackedCounter(const ScopedTrackedCounter&) = delete;
  ScopedTrackedCounter& operator=(const ScopedTrackedCounter&) = delete;

 private:
  Tracer* tracer_;
  const Counter* previous_;
};

/// RAII span handle. With a null tracer every operation is a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name) : tracer_(tracer) {
    if (tracer_ == nullptr) return;
    calls_at_open_ = tracer_->TrackedValue();
    index_ = tracer_->Open(std::move(name));
    timer_.Restart();
  }

  ~ScopedSpan() { End(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attaches a count annotation (last call wins).
  void AnnotateItems(double items) { items_ = items; }

  /// Seals the span early (idempotent; the destructor is then a no-op).
  void End() {
    if (tracer_ == nullptr || ended_) return;
    ended_ = true;
    tracer_->Seal(index_, timer_.ElapsedSeconds(),
                  tracer_->TrackedValue() - calls_at_open_, items_);
  }

 private:
  Tracer* tracer_;
  size_t index_ = 0;
  uint64_t calls_at_open_ = 0;
  double items_ = -1;
  bool ended_ = false;
  Stopwatch timer_;
};

}  // namespace xia::obs

#endif  // XIA_OBS_TRACE_H_

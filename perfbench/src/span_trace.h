// In-memory span recorder for the benchmark's traced runs.
//
// A span is one timed call across a layer boundary: its name, start and end
// (steady clock, nanoseconds), the span that was open when it began (its
// parent), and the job or worker id it served. Spans nest strictly — the
// simulator is single-threaded — so the recorder keeps a stack of open spans
// and aggregates every span as it closes: inclusive time, and self time
// (inclusive minus the time covered by its children). The aggregates cover
// every span; the raw records kept for the Chrome trace-event dump are
// capped.
#ifndef PERFBENCH_SPAN_TRACE_H_
#define PERFBENCH_SPAN_TRACE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Every span the traced/* decorators record. The name's prefix before the
// dot is the repository module (layer) the timed code belongs to.
enum class Span : uint8_t {
  kConstruct,      // scheduler.construct: factory entry -> Attach entry.
  kAttach,         // core.attach: SchedulerPolicy::Attach.
  kRun,            // scheduler.run: Attach exit -> policy destruction.
  kArrival,        // core.arrival: OnJobArrival.
  kSteal,          // core.steal: OnWorkerIdle.
  kTaskStart,      // core.task_start: OnTaskStart.
  kTaskFinish,     // core.task_finish: OnTaskFinish.
  kTaskLost,       // core.task_lost: OnTaskLost.
  kProbeLost,      // core.probe_lost: OnProbeLost.
  kStraggling,     // core.straggling: OnTaskStraggling.
  kPush,           // sim.push: PlaceProbe / PlaceTask / PlaceSpeculative.
  kDeliverStolen,  // cluster.deliver_stolen: DeliverStolen.
  kCount,
};

inline constexpr size_t kNumSpans = static_cast<size_t>(Span::kCount);

const char* SpanName(Span span);

struct SpanStats {
  uint64_t count = 0;
  int64_t inclusive_ns = 0;
  int64_t self_ns = 0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(size_t raw_capacity) : raw_capacity_(raw_capacity) {}

  static int64_t NowNs();

  void Begin(Span span, uint64_t subject) { BeginAt(span, subject, NowNs()); }
  void BeginAt(Span span, uint64_t subject, int64_t start_ns);
  void End() { EndAt(NowNs()); }
  void EndAt(int64_t end_ns);

  size_t OpenSpans() const { return stack_.size(); }
  const SpanStats& Stats(Span span) const { return stats_[static_cast<size_t>(span)]; }
  // Sum of self time over every span name: equals the total time covered by
  // root spans when every span closed inside its parent.
  int64_t TotalSelfNs() const;
  void ClearStats() { stats_ = {}; }

  uint64_t RecordedSpans() const { return raw_.size(); }
  uint64_t DroppedSpans() const { return dropped_; }

  // Writes the raw records as Chrome trace-event JSON ("X" complete events,
  // microsecond timestamps relative to the first recorded span). Returns
  // false if the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Open {
    Span span;
    uint64_t subject;
    uint64_t seq;
    uint64_t parent_seq;  // 0: a root span.
    int64_t start_ns;
    int64_t child_ns;
  };
  struct Record {
    Span span;
    uint64_t subject;
    uint64_t seq;
    uint64_t parent_seq;
    int64_t start_ns;
    int64_t end_ns;
  };

  size_t raw_capacity_;
  std::vector<Open> stack_;
  std::vector<Record> raw_;
  uint64_t next_seq_ = 1;
  uint64_t dropped_ = 0;
  std::array<SpanStats, kNumSpans> stats_{};
};

// Opens a span on `recorder` for the enclosing scope; a null recorder makes
// it a no-op, which is how the decorators forward untraced.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, Span span, uint64_t subject) : recorder_(recorder) {
    if (recorder_ != nullptr) {
      recorder_->Begin(span, subject);
    }
  }
  ~ScopedSpan() {
    if (recorder_ != nullptr) {
      recorder_->End();
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_TRACE_H_

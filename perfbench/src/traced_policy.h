// The tracing vehicle: a SchedulerPolicy / SchedulerContext decorator pair
// registered from outside the library as "traced/<name>" for every
// registered scheduler. The policy forwards every virtual call to the real
// policy and the context forwards every call to the real driver; while a
// TraceSink is active each forwarded call is also recorded as a span, so
// the simulator's layers are timed without touching src/. With no sink the
// pair only forwards, and a traced run produces the same RunResult digest as
// the untraced one (checked by the wrapper self-test).
#ifndef PERFBENCH_TRACED_POLICY_H_
#define PERFBENCH_TRACED_POLICY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "span_trace.h"

namespace perfbench {

// Where the decorators report. Besides spans, the sink collects the samples
// that are taken at a boundary rather than timed across one.
struct TraceSink {
  explicit TraceSink(size_t raw_span_capacity) : spans(raw_span_capacity) {}

  SpanRecorder spans;
  // WorkerStore::TotalQueued() at every job arrival.
  std::vector<uint64_t> queued_at_arrival;
  // getrusage peak RSS (bytes) when the first traced driver reaches Attach;
  // 0 until then.
  int64_t peak_rss_at_first_attach = 0;
};

// The sink the decorators currently report to (null: forward only).
void SetActiveSink(TraceSink* sink);

inline std::string TracedName(std::string_view scheduler) {
  return "traced/" + std::string(scheduler);
}

// Registers "traced/<name>" for every name in the global registry that is
// not itself a traced name. Safe to call more than once.
void RegisterTracedSchedulers();

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_POLICY_H_

#include "span_trace.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string_view>

#include "src/common/check.h"

namespace perfbench {

const char* SpanName(Span span) {
  switch (span) {
    case Span::kConstruct:
      return "scheduler.construct";
    case Span::kAttach:
      return "core.attach";
    case Span::kRun:
      return "scheduler.run";
    case Span::kArrival:
      return "core.arrival";
    case Span::kSteal:
      return "core.steal";
    case Span::kTaskStart:
      return "core.task_start";
    case Span::kTaskFinish:
      return "core.task_finish";
    case Span::kTaskLost:
      return "core.task_lost";
    case Span::kProbeLost:
      return "core.probe_lost";
    case Span::kStraggling:
      return "core.straggling";
    case Span::kPush:
      return "sim.push";
    case Span::kDeliverStolen:
      return "cluster.deliver_stolen";
    case Span::kCount:
      break;
  }
  return "unknown";
}

int64_t SpanRecorder::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SpanRecorder::BeginAt(Span span, uint64_t subject, int64_t start_ns) {
  const uint64_t parent = stack_.empty() ? 0 : stack_.back().seq;
  stack_.push_back(Open{span, subject, next_seq_++, parent, start_ns, 0});
}

void SpanRecorder::EndAt(int64_t end_ns) {
  HAWK_CHECK(!stack_.empty()) << "span End without Begin";
  const Open open = stack_.back();
  stack_.pop_back();
  const int64_t duration = end_ns - open.start_ns;
  SpanStats& stats = stats_[static_cast<size_t>(open.span)];
  ++stats.count;
  stats.inclusive_ns += duration;
  stats.self_ns += duration - open.child_ns;
  if (!stack_.empty()) {
    stack_.back().child_ns += duration;
  }
  if (raw_.size() < raw_capacity_) {
    raw_.push_back(Record{open.span, open.subject, open.seq, open.parent_seq, open.start_ns,
                          end_ns});
  } else {
    ++dropped_;
  }
}

int64_t SpanRecorder::TotalSelfNs() const {
  int64_t total = 0;
  for (const SpanStats& stats : stats_) {
    total += stats.self_ns;
  }
  return total;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  int64_t origin = 0;
  for (size_t i = 0; i < raw_.size(); ++i) {
    if (i == 0 || raw_[i].start_ns < origin) {
      origin = raw_[i].start_ns;
    }
  }
  std::fprintf(out, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  for (size_t i = 0; i < raw_.size(); ++i) {
    const Record& r = raw_[i];
    const std::string_view name = SpanName(r.span);
    const std::string_view layer = name.substr(0, name.find('.'));
    std::fprintf(out,
                 "{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%" PRIu64 ",\"span\":%" PRIu64
                 ",\"parent\":%" PRIu64 "}}%s\n",
                 name.data(), static_cast<int>(layer.size()), layer.data(),
                 static_cast<double>(r.start_ns - origin) / 1e3,
                 static_cast<double>(r.end_ns - r.start_ns) / 1e3, r.subject, r.seq,
                 r.parent_seq, i + 1 < raw_.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench

#include "checks.h"

#include <cinttypes>
#include <cstdio>

#include "src/common/random.h"
#include "src/scheduler/experiment.h"
#include "src/scheduler/registry.h"
#include "src/workload/arrivals.h"
#include "src/workload/cluster_workloads.h"
#include "tests/result_digest.h"
#include "traced_policy.h"

namespace perfbench {
namespace {

template <typename... Args>
void Fail(std::vector<std::string>* failures, const char* format, Args... args) {
  char line[512];
  std::snprintf(line, sizeof(line), format, args...);
  failures->emplace_back(line);
}

}  // namespace

size_t CheckRun(const std::string& label, const hawk::Trace& trace,
                const hawk::HawkConfig& config, bool speculates, bool simulated,
                const hawk::RunResult& result, std::vector<std::string>* failures) {
  const size_t before = failures->size();
  const char* name = label.c_str();
  if (result.jobs.size() != trace.NumJobs()) {
    Fail(failures, "%s: %zu of %zu jobs finished", name, result.jobs.size(), trace.NumJobs());
  }
  // Results are ordered by id and trace ids are dense, so "every job exactly
  // once" is "the i-th result is job i".
  for (size_t i = 0; i < result.jobs.size(); ++i) {
    const hawk::JobResult& job = result.jobs[i];
    if (job.id != i) {
      Fail(failures, "%s: result %zu is job %" PRIu64 " (missing or duplicate job)", name, i,
           static_cast<uint64_t>(job.id));
      break;
    }
    if (job.finish_time < job.submit_time || job.runtime_us != job.finish_time - job.submit_time) {
      Fail(failures, "%s: job %zu finishes at %" PRId64 " before its submit %" PRId64, name, i,
           static_cast<int64_t>(job.finish_time), static_cast<int64_t>(job.submit_time));
      break;
    }
    if (simulated && job.submit_time != trace.job(i).submit_time) {
      Fail(failures, "%s: job %zu submitted at %" PRId64 ", trace says %" PRId64, name, i,
           static_cast<int64_t>(job.submit_time),
           static_cast<int64_t>(trace.job(i).submit_time));
      break;
    }
  }
  const hawk::RunCounters& c = result.counters;
  const uint64_t tasks = trace.TotalTasks();
  const bool exact_tasks = !config.FaultsEnabled() && !speculates;
  if (exact_tasks ? c.tasks_launched != tasks : c.tasks_launched < tasks) {
    Fail(failures, "%s: %" PRIu64 " tasks launched for %" PRIu64 " trace tasks", name,
         c.tasks_launched, tasks);
  }
  if (c.messages_dropped != c.message_retries + c.retries_suppressed) {
    Fail(failures, "%s: message ledger: dropped %" PRIu64 " != retries %" PRIu64
         " + suppressed %" PRIu64, name, c.messages_dropped, c.message_retries,
         c.retries_suppressed);
  }
  if (simulated) {
    const auto work = static_cast<uint64_t>(trace.TotalWorkUs());
    const auto busy = static_cast<uint64_t>(result.total_busy_us);
    if (busy != work + c.wasted_work_us) {
      Fail(failures, "%s: work ledger: busy %" PRIu64 " != work %" PRIu64 " + wasted %" PRIu64,
           name, busy, work, c.wasted_work_us);
    }
  }
  return failures->size() - before;
}

size_t WrapperSelfTest(std::vector<std::string>* failures) {
  // Every layer lights up at this size: partitioned and stealing schedulers,
  // and with faults on, crashes, churn, loss, jitter, stragglers and (via
  // hawk-spec) speculation.
  hawk::Trace trace = hawk::GenerateClusterWorkload(hawk::FacebookParams(80, 5));
  hawk::Rng arrivals(11);
  hawk::AssignPoissonArrivals(&trace, hawk::SecondsToUs(2.0), &arrivals);

  hawk::SchedulerRegistry& registry = hawk::SchedulerRegistry::Global();
  size_t cells = 0;
  TraceSink sink(/*raw_span_capacity=*/0);
  for (const bool faults : {false, true}) {
    hawk::HawkConfig config;
    config.num_workers = 60;
    config.classify_mode = hawk::ClassifyMode::kHint;
    config.seed = 3;
    if (faults) {
      config.worker_crash_rate = 3e-7;
      config.worker_churn_rate = 2e-7;
      config.worker_downtime_us = hawk::SecondsToUs(20.0);
      config.message_loss_rate = 0.05;
      config.message_delay_jitter_us = 2'000;
      config.straggler_rate = 0.05;
      config.fault_seed = 3;
    }
    for (const std::string& name : registry.Names()) {
      if (name.rfind("traced/", 0) == 0) {
        continue;
      }
      const std::string label = name + (faults ? " (faults on)" : " (faults off)");
      const hawk::RunResult plain = hawk::RunExperiment(trace, config, name);
      const hawk::RunResult forwarded = hawk::RunExperiment(trace, config, TracedName(name));
      SetActiveSink(&sink);
      const hawk::RunResult traced = hawk::RunExperiment(trace, config, TracedName(name));
      SetActiveSink(nullptr);
      const bool speculates =
          registry.Find(name)->factory(config)->SpeculationThreshold(config) > 0.0;
      CheckRun("self-test " + label, trace, config, speculates, /*simulated=*/true, plain,
               failures);
      const uint64_t want = hawk::testing::DigestResult(plain);
      if (hawk::testing::DigestResult(forwarded) != want ||
          hawk::testing::DigestResult(traced) != want) {
        Fail(failures, "self-test %s: traced/%s digest differs from %s", label.c_str(),
             name.c_str(), name.c_str());
      }
      if (sink.spans.OpenSpans() != 0) {
        Fail(failures, "self-test %s: %zu spans left open", label.c_str(),
             sink.spans.OpenSpans());
      }
      ++cells;
    }
  }
  // The digests prove forwarding only for hooks the runs reach, so each
  // must have fired at least once. DeliverStolen is not listed: no
  // registered scheduler calls it (Hawk steals straight into the thief's
  // WorkerStore queue).
  for (const Span span : {Span::kArrival, Span::kSteal, Span::kTaskStart, Span::kTaskFinish,
                          Span::kTaskLost, Span::kProbeLost, Span::kStraggling, Span::kPush}) {
    if (sink.spans.Stats(span).count == 0) {
      Fail(failures, "self-test: no run reached %s", SpanName(span));
    }
  }
  return cells;
}

}  // namespace perfbench

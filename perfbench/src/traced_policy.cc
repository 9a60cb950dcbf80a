#include "traced_policy.h"

#include <memory>
#include <utility>

#include "host.h"
#include "src/common/check.h"
#include "src/scheduler/policy.h"
#include "src/scheduler/registry.h"

namespace perfbench {
namespace {

TraceSink* g_sink = nullptr;

SpanRecorder* Recorder() { return g_sink == nullptr ? nullptr : &g_sink->spans; }

// Forwards every call to the real driver; placements and steal deliveries
// are timed. The accessors are forwarded untimed: they are field reads, and
// their cost belongs to the callback that makes them.
class TracedContext final : public hawk::SchedulerContext {
 public:
  explicit TracedContext(hawk::SchedulerContext* inner) : inner_(inner) {}

  hawk::SimTime Now() const override { return inner_->Now(); }
  hawk::Rng& SchedRng() override { return inner_->SchedRng(); }
  hawk::Cluster& GetCluster() override { return inner_->GetCluster(); }
  hawk::JobTracker& Tracker() override { return inner_->Tracker(); }
  hawk::RunCounters& Counters() override { return inner_->Counters(); }

  void PlaceProbe(hawk::WorkerId worker, hawk::JobId job, bool is_long) override {
    const ScopedSpan span(Recorder(), Span::kPush, job);
    inner_->PlaceProbe(worker, job, is_long);
  }
  void PlaceTask(hawk::WorkerId worker, hawk::JobId job, hawk::TaskIndex task_index,
                 hawk::DurationUs duration, bool is_long) override {
    const ScopedSpan span(Recorder(), Span::kPush, job);
    inner_->PlaceTask(worker, job, task_index, duration, is_long);
  }
  void PlaceSpeculative(hawk::WorkerId worker, hawk::JobId job, hawk::TaskIndex task_index,
                        hawk::DurationUs duration, bool is_long) override {
    const ScopedSpan span(Recorder(), Span::kPush, job);
    inner_->PlaceSpeculative(worker, job, task_index, duration, is_long);
  }
  void DeliverStolen(hawk::WorkerId thief,
                     const std::vector<hawk::QueueEntry>& entries) override {
    const ScopedSpan span(Recorder(), Span::kDeliverStolen, thief);
    inner_->DeliverStolen(thief, entries);
  }

 private:
  hawk::SchedulerContext* inner_;
};

// Forwards every SchedulerPolicy hook to the real policy, timing each one.
// Span lifecycle: scheduler.construct runs from the factory's entry to
// Attach entry (policy and driver construction), core.attach covers Attach, and
// scheduler.run runs from Attach exit until this object is destroyed —
// RunExperiment destroys the policy right after the driver, so the run span
// covers Run(), result collection, and driver and policy teardown.
class TracedPolicy final : public hawk::SchedulerPolicy {
 public:
  // `factory_entry_ns`: when the registry factory was entered, so the
  // construct span covers the real policy's constructor too.
  TracedPolicy(std::unique_ptr<hawk::SchedulerPolicy> inner, int64_t factory_entry_ns)
      : inner_(std::move(inner)), created_ns_(factory_entry_ns) {}

  ~TracedPolicy() override {
    // The real policy's teardown belongs to the run it served.
    inner_.reset();
    if (run_recorder_ != nullptr) {
      run_recorder_->End();
    }
  }
  TracedPolicy(const TracedPolicy&) = delete;
  TracedPolicy& operator=(const TracedPolicy&) = delete;

  void Attach(hawk::SchedulerContext* ctx) override {
    SpanRecorder* recorder = Recorder();
    if (recorder != nullptr) {
      recorder->BeginAt(Span::kConstruct, 0, created_ns_);
      recorder->End();
      if (g_sink->peak_rss_at_first_attach == 0) {
        g_sink->peak_rss_at_first_attach = PeakRssBytes();
      }
    }
    {
      const ScopedSpan span(recorder, Span::kAttach, 0);
      hawk::SchedulerPolicy::Attach(ctx);
      context_ = std::make_unique<TracedContext>(ctx);
      inner_->Attach(context_.get());
    }
    if (recorder != nullptr) {
      recorder->Begin(Span::kRun, 0);
      run_recorder_ = recorder;
    }
  }

  hawk::RuntimeShape ShapeForRuntime(const hawk::HawkConfig& config) const override {
    return inner_->ShapeForRuntime(config);
  }
  double SpeculationThreshold(const hawk::HawkConfig& config) const override {
    return inner_->SpeculationThreshold(config);
  }

  void OnJobArrival(const hawk::Job& job, const hawk::JobClass& cls) override {
    if (g_sink != nullptr) {
      g_sink->queued_at_arrival.push_back(ctx_->GetCluster().workers().TotalQueued());
    }
    const ScopedSpan span(Recorder(), Span::kArrival, job.id);
    inner_->OnJobArrival(job, cls);
  }
  void OnWorkerIdle(hawk::WorkerId worker) override {
    const ScopedSpan span(Recorder(), Span::kSteal, worker);
    inner_->OnWorkerIdle(worker);
  }
  void OnTaskStart(hawk::WorkerId worker, const hawk::QueueEntry& task) override {
    const ScopedSpan span(Recorder(), Span::kTaskStart, task.job);
    inner_->OnTaskStart(worker, task);
  }
  void OnTaskFinish(hawk::WorkerId worker, hawk::JobId job, bool is_long) override {
    const ScopedSpan span(Recorder(), Span::kTaskFinish, job);
    inner_->OnTaskFinish(worker, job, is_long);
  }
  void OnTaskLost(hawk::JobId job, bool is_long) override {
    const ScopedSpan span(Recorder(), Span::kTaskLost, job);
    inner_->OnTaskLost(job, is_long);
  }
  void OnProbeLost(hawk::JobId job, bool is_long) override {
    const ScopedSpan span(Recorder(), Span::kProbeLost, job);
    inner_->OnProbeLost(job, is_long);
  }
  void OnTaskStraggling(hawk::JobId job, hawk::TaskIndex task_index,
                        hawk::DurationUs duration, bool is_long) override {
    const ScopedSpan span(Recorder(), Span::kStraggling, job);
    inner_->OnTaskStraggling(job, task_index, duration, is_long);
  }

  std::string_view Name() const override { return inner_->Name(); }

 private:
  std::unique_ptr<hawk::SchedulerPolicy> inner_;
  std::unique_ptr<TracedContext> context_;
  int64_t created_ns_;
  SpanRecorder* run_recorder_ = nullptr;  // Set while scheduler.run is open.
};

}  // namespace

void SetActiveSink(TraceSink* sink) { g_sink = sink; }

void RegisterTracedSchedulers() {
  hawk::SchedulerRegistry& registry = hawk::SchedulerRegistry::Global();
  for (const std::string& name : registry.Names()) {
    if (name.rfind("traced/", 0) == 0 || registry.Contains(TracedName(name))) {
      continue;
    }
    const hawk::SchedulerRegistry::Entry* entry = registry.Find(name);
    const hawk::Status status = registry.Register(
        TracedName(name),
        [entry](const hawk::HawkConfig& config) -> std::unique_ptr<hawk::SchedulerPolicy> {
          const int64_t entry_ns = SpanRecorder::NowNs();
          return std::make_unique<TracedPolicy>(entry->factory(config), entry_ns);
        },
        entry->general_count);
    HAWK_CHECK(status.ok()) << status.message();
  }
}

}  // namespace perfbench

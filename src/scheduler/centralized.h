// Fully centralized baseline (paper §4.5).
//
// Applies the §3.7 waiting-time algorithm to *all* jobs over the whole
// cluster: every task of an arriving job is placed on the worker with the
// minimum estimated waiting time, which is then charged with the job's
// estimated task runtime. No partitioning, no stealing.
#ifndef HAWK_SCHEDULER_CENTRALIZED_H_
#define HAWK_SCHEDULER_CENTRALIZED_H_

#include <memory>

#include "src/core/slot_waiting_queue.h"
#include "src/scheduler/policy.h"

namespace hawk {

class CentralizedPolicy : public SchedulerPolicy {
 public:
  void Attach(SchedulerContext* ctx) override {
    SchedulerPolicy::Attach(ctx);
    queue_ = std::make_unique<SlotWaitingTimeQueue>(ctx->GetCluster(),
                                                    ctx->GetCluster().NumWorkers());
  }

  void OnJobArrival(const Job& job, const JobClass& cls) override;

  // Node-monitor feedback keeps the waiting-time view synchronized: the
  // baseline tracks every task (it schedules everything centrally).
  void OnTaskStart(WorkerId worker, const QueueEntry& task) override {
    queue_->OnTaskStart(worker, task.job, ctx_->Now());
  }
  void OnTaskFinish(WorkerId worker, JobId job, bool is_long) override {
    (void)is_long;
    queue_->OnTaskFinish(worker, job, ctx_->Now());
  }

  // Every task is centrally placed, so every lost task is re-placed through
  // the waiting-time queue. (No probes exist; OnProbeLost can never fire.)
  void OnTaskLost(JobId job, bool is_long) override {
    const DurationUs estimate_us = ctx_->Tracker().EstimateUs(job);
    const auto assignment = ctx_->Tracker().TakeNextTask(job);
    HAWK_CHECK(assignment.has_value()) << "lost task of job " << job << " not returned";
    const WorkerId worker = queue_->AssignTask(ctx_->Now(), job, estimate_us);
    ctx_->PlaceTask(worker, job, assignment->task_index, assignment->duration, is_long);
  }

  // Prototype shape: every job — both classes — is placed by the central
  // backend's waiting-time queue over the whole cluster; no stealing.
  RuntimeShape ShapeForRuntime(const HawkConfig& config) const override {
    (void)config;
    RuntimeShape shape;
    shape.centralized_long = true;
    shape.centralized_short = true;
    shape.stealing = false;
    return shape;
  }

  std::string_view Name() const override { return "centralized"; }

 private:
  std::unique_ptr<SlotWaitingTimeQueue> queue_;
};

}  // namespace hawk

#endif  // HAWK_SCHEDULER_CENTRALIZED_H_

// Split-cluster baseline (paper §4.6).
//
// The cluster is split into two disjoint partitions: a long partition
// (workers [0, general_count), centralized scheduling) and a short partition
// (the rest, distributed Sparrow-style scheduling). Unlike Hawk there is no
// general partition — short jobs cannot use idle long-partition workers —
// and there is no stealing.
#ifndef HAWK_SCHEDULER_SPLIT_H_
#define HAWK_SCHEDULER_SPLIT_H_

#include <memory>

#include "src/core/slot_waiting_queue.h"
#include "src/scheduler/policy.h"

namespace hawk {

class SplitClusterPolicy : public SchedulerPolicy {
 public:
  explicit SplitClusterPolicy(uint32_t probe_ratio = 2) : probe_ratio_(probe_ratio) {}

  void Attach(SchedulerContext* ctx) override {
    SchedulerPolicy::Attach(ctx);
    HAWK_CHECK_GT(ctx->GetCluster().ShortPartitionCount(), 0u)
        << "split cluster requires a non-empty short partition";
    queue_ = std::make_unique<SlotWaitingTimeQueue>(ctx->GetCluster(),
                                                    ctx->GetCluster().GeneralCount());
  }

  void OnJobArrival(const Job& job, const JobClass& cls) override;

  // Waiting-time feedback for the centrally scheduled long partition.
  void OnTaskStart(WorkerId worker, const QueueEntry& task) override {
    if (!task.is_long) {
      return;
    }
    queue_->OnTaskStart(worker, task.job, ctx_->Now());
  }
  void OnTaskFinish(WorkerId worker, JobId job, bool is_long) override {
    if (!is_long) {
      return;
    }
    queue_->OnTaskFinish(worker, job, ctx_->Now());
  }

  // Lost long tasks re-place through the long partition's waiting-time
  // queue; lost short work re-probes the disjoint short partition (the
  // base-class whole-cluster default would violate the split).
  void OnTaskLost(JobId job, bool is_long) override {
    if (is_long) {
      const DurationUs estimate_us = ctx_->Tracker().EstimateUs(job);
      const auto assignment = ctx_->Tracker().TakeNextTask(job);
      HAWK_CHECK(assignment.has_value()) << "lost task of job " << job << " not returned";
      const WorkerId worker = queue_->AssignTask(ctx_->Now(), job, estimate_us);
      ctx_->PlaceTask(worker, job, assignment->task_index, assignment->duration,
                      /*is_long=*/true);
      return;
    }
    ReProbeShortPartition(job);
  }

  void OnProbeLost(JobId job, bool is_long) override {
    (void)is_long;  // Only short jobs probe under split.
    if (ctx_->Tracker().AllTasksAssigned(job)) {
      return;
    }
    ReProbeShortPartition(job);
  }

  // Prototype shape: long jobs centrally placed on the long partition,
  // short jobs probed over the disjoint short partition, no stealing.
  RuntimeShape ShapeForRuntime(const HawkConfig& config) const override {
    (void)config;
    RuntimeShape shape;
    shape.centralized_long = true;
    shape.stealing = false;
    shape.short_probe_span = RuntimeShape::ProbeSpan::kShortPartition;
    return shape;
  }

  std::string_view Name() const override { return "split-cluster"; }

 private:
  void ReProbeShortPartition(JobId job) {
    const Cluster& cluster = ctx_->GetCluster();
    const SlotId short_first = cluster.GeneralSlots();
    const uint64_t short_slots = cluster.TotalSlots() - short_first;
    const auto slot =
        static_cast<SlotId>(short_first + ctx_->SchedRng().NextBounded(short_slots));
    ctx_->PlaceProbe(cluster.WorkerOfSlot(slot), job, /*is_long=*/false);
  }

  uint32_t probe_ratio_;
  std::unique_ptr<SlotWaitingTimeQueue> queue_;
  // Probe-placement scratch (slot ids), reused across job arrivals.
  std::vector<SlotId> targets_;
  std::vector<uint32_t> picks_;
};

}  // namespace hawk

#endif  // HAWK_SCHEDULER_SPLIT_H_

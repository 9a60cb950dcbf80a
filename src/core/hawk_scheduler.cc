#include "src/core/hawk_scheduler.h"

#include <cmath>

#include "src/core/probe_placement.h"

namespace hawk {

void HawkPolicy::Attach(SchedulerContext* ctx) {
  SchedulerPolicy::Attach(ctx);
  const Cluster& cluster = ctx->GetCluster();
  central_queue_ = std::make_unique<SlotWaitingTimeQueue>(cluster, cluster.GeneralCount());
  stealing_ = std::make_unique<StealingPolicy>(config_.steal_cap, ctx->SchedRng().Next(),
                                               victim_selection_);
}

void HawkPolicy::OnJobArrival(const Job& job, const JobClass& cls) {
  const Cluster& cluster = ctx_->GetCluster();
  if (cls.is_long_sched) {
    if (config_.use_centralized_long) {
      ScheduleLongCentralized(job, cls);
    } else {
      // Component breakdown: long jobs fall back to distributed probing, but
      // stay confined to the general partition (§4.4).
      ScheduleDistributed(job, cls, /*first=*/0, cluster.GeneralSlots());
    }
    return;
  }
  // Short jobs probe the whole cluster: the short partition is reserved for
  // them, and any idle general-partition slot is fair game (§3.4, §3.5).
  ScheduleDistributed(job, cls, /*first=*/0, static_cast<uint32_t>(cluster.TotalSlots()));
}

void HawkPolicy::ScheduleLongCentralized(const Job& job, const JobClass& cls) {
  (void)cls;
  // Canonical rounded estimate from the tracker: every task of the job is
  // charged the same value, which keeps the start discharges exact.
  const DurationUs estimate_us = ctx_->Tracker().EstimateUs(job.id);
  for (uint32_t i = 0; i < job.NumTasks(); ++i) {
    const auto assignment = ctx_->Tracker().TakeNextTask(job.id);
    HAWK_CHECK(assignment.has_value());
    const WorkerId worker = central_queue_->AssignTask(ctx_->Now(), job.id, estimate_us);
    ctx_->PlaceTask(worker, job.id, assignment->task_index, assignment->duration,
                    /*is_long=*/true);
  }
}

void HawkPolicy::ScheduleDistributed(const Job& job, const JobClass& cls, SlotId first,
                                     uint32_t count) {
  const Cluster& cluster = ctx_->GetCluster();
  const uint32_t num_probes = config_.probe_ratio * job.NumTasks();
  ChooseProbeTargetsInto(ctx_->SchedRng(), first, count, num_probes, &targets_, &picks_);
  for (const SlotId slot : targets_) {
    ctx_->PlaceProbe(cluster.WorkerOfSlot(slot), job.id, cls.is_long_sched);
  }
}

void HawkPolicy::OnTaskStart(WorkerId worker, const QueueEntry& task) {
  // Only centrally placed (long) tasks are tracked by the waiting-time
  // queue; short tasks are invisible to the centralized component (§3.7).
  if (!task.is_long || !config_.use_centralized_long) {
    return;
  }
  central_queue_->OnTaskStart(worker, task.job, ctx_->Now());
}

void HawkPolicy::OnTaskFinish(WorkerId worker, JobId job, bool is_long) {
  if (!is_long || !config_.use_centralized_long) {
    return;
  }
  central_queue_->OnTaskFinish(worker, job, ctx_->Now());
}

void HawkPolicy::OnTaskLost(JobId job, bool is_long) {
  // A centrally placed long task goes back through the waiting-time queue —
  // its scheduler lane — so the replacement again lands on the worker with
  // the minimum estimated wait. Everything else re-probes (base behavior).
  if (is_long && config_.use_centralized_long) {
    const DurationUs estimate_us = ctx_->Tracker().EstimateUs(job);
    const auto assignment = ctx_->Tracker().TakeNextTask(job);
    HAWK_CHECK(assignment.has_value()) << "lost task of job " << job << " not returned";
    const WorkerId worker = central_queue_->AssignTask(ctx_->Now(), job, estimate_us);
    ctx_->PlaceTask(worker, job, assignment->task_index, assignment->duration,
                    /*is_long=*/true);
    return;
  }
  SchedulerPolicy::OnTaskLost(job, is_long);
}

void HawkLateBindPolicy::ScheduleLongCentralized(const Job& job, const JobClass& cls) {
  (void)cls;
  // One probe per task on the minimum-wait worker. Tasks stay in the tracker
  // until a probe reaches service and its request is granted — the same late
  // binding short jobs get, aimed by the waiting-time queue instead of
  // random sampling. The estimate is charged here (AssignTask) and
  // discharged by OnTaskStart when the granted task runs, exactly as in the
  // eager lane.
  const DurationUs estimate_us = ctx_->Tracker().EstimateUs(job.id);
  for (uint32_t i = 0; i < job.NumTasks(); ++i) {
    const WorkerId worker = central_queue().AssignTask(ctx_->Now(), job.id, estimate_us);
    ctx_->PlaceProbe(worker, job.id, /*is_long=*/true);
  }
}

void HawkLateBindPolicy::OnProbeLost(JobId job, bool is_long) {
  if (ctx_->Tracker().AllTasksAssigned(job)) {
    return;
  }
  // Long probes are this policy's scheduler lane: the replacement goes back
  // through the waiting-time queue so it again lands on the minimum-wait
  // worker (mirrors HawkPolicy::OnTaskLost for the eager lane). Short probes
  // keep the base random re-probe.
  if (is_long && config().use_centralized_long) {
    const DurationUs estimate_us = ctx_->Tracker().EstimateUs(job);
    const WorkerId worker = central_queue().AssignTask(ctx_->Now(), job, estimate_us);
    ctx_->PlaceProbe(worker, job, /*is_long=*/true);
    return;
  }
  SchedulerPolicy::OnProbeLost(job, is_long);
}

void HawkPolicy::OnWorkerIdle(WorkerId worker) {
  if (!config_.use_stealing || config_.steal_cap == 0) {
    return;
  }
  // Stolen entries land straight on the thief's queue; the driver re-examines
  // it when this notification returns (stealing is free in the §4.1 cost
  // model), so no DeliverStolen round trip is needed.
  stealing_->TryStealInto(ctx_->GetCluster(), worker, &ctx_->Counters());
}

}  // namespace hawk

#include "src/scheduler/split.h"

#include <cmath>

#include "src/common/check.h"
#include "src/core/probe_placement.h"

namespace hawk {

void SplitClusterPolicy::OnJobArrival(const Job& job, const JobClass& cls) {
  const Cluster& cluster = ctx_->GetCluster();
  if (cls.is_long_sched) {
    const DurationUs estimate_us = ctx_->Tracker().EstimateUs(job.id);
    for (uint32_t i = 0; i < job.NumTasks(); ++i) {
      const auto assignment = ctx_->Tracker().TakeNextTask(job.id);
      HAWK_CHECK(assignment.has_value());
      const WorkerId worker = queue_->AssignTask(ctx_->Now(), job.id, estimate_us);
      ctx_->PlaceTask(worker, job.id, assignment->task_index, assignment->duration,
                      /*is_long=*/true);
    }
    return;
  }
  // Short jobs are confined to the short partition (a slot-id suffix).
  HAWK_CHECK_GT(cluster.ShortPartitionCount(), 0u) << "split cluster requires a short partition";
  const SlotId short_first = cluster.GeneralSlots();
  const auto short_slots = static_cast<uint32_t>(cluster.TotalSlots() - short_first);
  const uint32_t num_probes = probe_ratio_ * job.NumTasks();
  ChooseProbeTargetsInto(ctx_->SchedRng(), short_first, short_slots, num_probes, &targets_,
                         &picks_);
  for (const SlotId slot : targets_) {
    ctx_->PlaceProbe(cluster.WorkerOfSlot(slot), job.id, /*is_long=*/false);
  }
}

}  // namespace hawk

#include "src/scheduler/centralized.h"

#include <cmath>

#include "src/common/check.h"

namespace hawk {

void CentralizedPolicy::OnJobArrival(const Job& job, const JobClass& cls) {
  (void)cls;
  // The tracker holds the canonical rounded estimate: every task of the job
  // is charged the same value, which keeps the start discharges exact.
  const DurationUs estimate_us = ctx_->Tracker().EstimateUs(job.id);
  for (uint32_t i = 0; i < job.NumTasks(); ++i) {
    const auto assignment = ctx_->Tracker().TakeNextTask(job.id);
    HAWK_CHECK(assignment.has_value());
    const WorkerId worker = queue_->AssignTask(ctx_->Now(), job.id, estimate_us);
    ctx_->PlaceTask(worker, job.id, assignment->task_index, assignment->duration,
                    cls.is_long_sched);
  }
}

}  // namespace hawk

#include "src/runtime/schedulers.h"

#include <algorithm>
#include <string>

#include "src/common/check.h"
#include "src/core/probe_placement.h"

namespace hawk {
namespace runtime {
namespace {

// Resolves a RuntimeShape probe span to a slot range of the layout cluster.
void SpanSlotRange(const Cluster& layout, RuntimeShape::ProbeSpan span, SlotId* first,
                   uint32_t* count) {
  switch (span) {
    case RuntimeShape::ProbeSpan::kWholeCluster:
      *first = 0;
      *count = static_cast<uint32_t>(layout.TotalSlots());
      return;
    case RuntimeShape::ProbeSpan::kGeneralPartition:
      *first = 0;
      *count = layout.GeneralSlots();
      return;
    case RuntimeShape::ProbeSpan::kShortPartition:
      *first = layout.GeneralSlots();
      *count = static_cast<uint32_t>(layout.TotalSlots() - layout.GeneralSlots());
      return;
  }
  HAWK_CHECK(false) << "unhandled probe span";
}

}  // namespace

// --- CompletionSink ---------------------------------------------------------

void CompletionSink::ExpectJobs(const std::vector<JobId>& ids) {
  std::lock_guard<std::mutex> lock(mu_);
  expected_.clear();
  expected_.insert(ids.begin(), ids.end());
  outstanding_.clear();
  outstanding_.insert(ids.begin(), ids.end());
  completions_.clear();
  completions_.reserve(ids.size());
  duplicates_ = 0;
}

void CompletionSink::Record(JobId job, bool is_long) {
  std::lock_guard<std::mutex> lock(mu_);
  if (outstanding_.erase(job) == 0) {
    // Either the job already completed (a re-dispatched copy finishing
    // behind the original — expected under fault recovery) or nobody ever
    // expected it, which is a wiring bug no fault can produce.
    HAWK_CHECK(expected_.count(job) != 0)
        << "completion recorded for never-expected job " << job;
    ++duplicates_;
    return;
  }
  completions_.push_back(Completion{job, is_long, std::chrono::steady_clock::now()});
  if (outstanding_.empty()) {
    cv_.notify_all();
  }
}

Status CompletionSink::AwaitAll(std::chrono::milliseconds timeout, const ProgressFn& progress) {
  std::unique_lock<std::mutex> lock(mu_);
  if (cv_.wait_for(lock, timeout, [this] { return outstanding_.empty(); })) {
    return Status::Ok();
  }
  // Name the stragglers: "timed out, 0 of N done" is undebuggable; a job-id
  // list — with each job's done/total task counts when the harness supplies
  // a progress callback — points straight at the stuck scheduler, monitor,
  // or individual task. Sorted, so two runs of the same stuck configuration
  // produce comparable messages (hash-set order varies run to run).
  constexpr size_t kMaxListed = 16;
  std::vector<JobId> ids(outstanding_.begin(), outstanding_.end());
  std::sort(ids.begin(), ids.end());
  std::string listed;
  size_t shown = 0;
  for (const JobId job : ids) {
    if (shown == kMaxListed) {
      listed += ", ...";
      break;
    }
    listed += (shown == 0 ? "" : ", ") + std::to_string(job);
    if (progress != nullptr) {
      listed += progress(job);
    }
    ++shown;
  }
  return Status::Error("prototype run timed out with " + std::to_string(outstanding_.size()) +
                       " job(s) outstanding: " + listed);
}

std::vector<CompletionSink::Completion> CompletionSink::TakeAll() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(completions_);
}

uint64_t CompletionSink::duplicates() const {
  std::lock_guard<std::mutex> lock(mu_);
  return duplicates_;
}

// --- DistributedFrontend ----------------------------------------------------

namespace {

// Adaptive detection window shared by both executors' constructors: seeded
// at the configured detection timeout, floored at 1/16th of it (the window
// may shrink toward observed overheads but never to nothing) and capped at
// 64x (the backoff ceiling for a task that keeps dying).
AdaptiveTimeout MakeRecoveryTimeout(const FaultRecoveryPolicy& faults) {
  const auto expected = static_cast<double>(faults.detection_timeout.count());
  const auto floor_us = std::max<DurationUs>(faults.detection_timeout.count() / 16, 1'000);
  const auto cap_us = std::max<DurationUs>(64 * faults.detection_timeout.count(), floor_us);
  return AdaptiveTimeout(expected, floor_us, cap_us);
}

// Key for deterministic deadline jitter (de-synchronizes the re-dispatch
// herd after a crash kills many tasks at once).
uint64_t TaskJitterKey(JobId job, uint32_t task_index) {
  return (static_cast<uint64_t>(job) << 32) | task_index;
}

}  // namespace

DistributedFrontend::DistributedFrontend(rpc::Address address, const Cluster* layout,
                                         const RuntimeShape& shape, uint32_t probe_ratio,
                                         const FaultRecoveryPolicy& faults,
                                         rpc::MessageBus* bus, CompletionSink* sink,
                                         uint64_t seed, const FailureDetector* detector)
    : address_(address),
      layout_(layout),
      shape_(shape),
      probe_ratio_(probe_ratio),
      faults_(faults),
      bus_(bus),
      sink_(sink),
      detector_(detector),
      rng_(seed),
      rto_(MakeRecoveryTimeout(faults)) {
  HAWK_CHECK(layout != nullptr);
  HAWK_CHECK(bus != nullptr);
  HAWK_CHECK(sink != nullptr);
  HAWK_CHECK_GT(probe_ratio, 0u);
}

void DistributedFrontend::Start() {
  bus_->Register(address_, [this](const rpc::BusMessage& m) { HandleMessage(m); });
}

void DistributedFrontend::SendProbesLocked(JobId job, JobState& state, uint32_t count) {
  // Shared §3.5 placement: sample `count` slots without replacement from the
  // span the policy shape declares for this class, weighting workers by
  // capacity, and map each slot to its owning node monitor.
  SlotId first = 0;
  uint32_t span_count = 0;
  SpanSlotRange(*layout_, state.is_long ? shape_.long_probe_span : shape_.short_probe_span,
                &first, &span_count);
  HAWK_CHECK_GT(span_count, 0u) << "probe span is empty for job " << job;
  ChooseProbeTargetsInto(rng_, first, span_count, count, &targets_, &picks_);
  for (SlotId slot : targets_) {
    // Detector steering: a probe aimed at a suspected node is re-drawn a few
    // times rather than filtered — the probe count must not shrink (fewer
    // probes means fewer grant paths exactly when the cluster is sick). If
    // every redraw also lands on a suspect, the last draw stands: suspicion
    // is advisory, and a probe to a genuinely dead node is recovered by the
    // probe-loss watchdog like any other.
    if (detector_ != nullptr) {
      for (int redraw = 0;
           redraw < 4 && detector_->Suspected(layout_->WorkerOfSlot(slot)); ++redraw) {
        slot = first + static_cast<SlotId>(rng_.NextBounded(span_count));
      }
    }
    const ProbeMsg probe = ProbeMsg::Make(job, address_, slot, state.is_long);
    bus_->Send(address_, layout_->WorkerOfSlot(slot), kProbe, probe.Encode());
  }
  if (faults_.enabled) {
    state.probe_deadline = std::chrono::steady_clock::now() + faults_.detection_timeout;
  }
}

void DistributedFrontend::HandleMessage(const rpc::BusMessage& message) {
  std::lock_guard<std::mutex> lock(mu_);
  switch (message.type) {
    case kJobSubmit: {
      const JobSubmitMsg submit = JobSubmitMsg::Decode(message.payload);
      JobState state;
      state.durations_us = submit.task_durations_us;
      state.tasks.resize(state.durations_us.size());
      state.is_long = submit.is_long;
      const auto num_tasks = static_cast<uint32_t>(state.durations_us.size());
      const auto emplaced = jobs_.emplace(submit.job, std::move(state));
      HAWK_CHECK(emplaced.second);
      ++jobs_handled_;
      SendProbesLocked(submit.job, emplaced.first->second, probe_ratio_ * num_tasks);
      break;
    }
    case kTaskRequest: {
      const JobRefMsg request = JobRefMsg::Decode(message.payload);
      const auto it = jobs_.find(request.job);
      // No assignable task: either the job already completed and was
      // garbage-collected (surplus probes for it are still queued somewhere)
      // or everything is granted/done. Cancel the reservation.
      const bool assignable =
          it != jobs_.end() && (!it->second.returned.empty() ||
                                it->second.next_unassigned < it->second.durations_us.size());
      if (!assignable) {
        const JobRefMsg cancel = JobRefMsg::TaskCancel(request.job, address_);
        ++cancels_sent_;
        bus_->Send(address_, request.sender, kTaskCancel, cancel.Encode());
        break;
      }
      JobState& state = it->second;
      // Tasks returned by fault recovery are re-granted before the cursor
      // advances, mirroring JobTracker::TakeNextTask.
      uint32_t index = 0;
      if (!state.returned.empty()) {
        index = state.returned.back();
        state.returned.pop_back();
      } else {
        index = state.next_unassigned++;
      }
      TaskState& task = state.tasks[index];
      task.phase = TaskPhase::kGranted;
      task.granted_at = std::chrono::steady_clock::now();
      if (faults_.enabled) {
        // Adaptive deadline: the task's nominal runtime plus the Jacobson
        // window, backed off exponentially per prior re-dispatch of this
        // task and jittered deterministically so a mass-casualty crash does
        // not re-dispatch its victims in lockstep.
        const DurationUs window = rto_.BackoffTimeoutUs(task.attempts);
        task.deadline = task.granted_at +
                        std::chrono::microseconds(state.durations_us[index]) +
                        std::chrono::microseconds(window) +
                        std::chrono::microseconds(AdaptiveTimeout::JitterUs(
                            TaskJitterKey(request.job, index), task.attempts, window / 4));
        state.probe_deadline = task.deadline;
      }
      const TaskMsg grant = TaskMsg::Grant(request.job, index, state.durations_us[index],
                                           state.is_long, address_);
      bus_->Send(address_, request.sender, kTaskGrant, grant.Encode());
      break;
    }
    case kTaskDone: {
      const TaskMsg done = TaskMsg::Decode(message.payload);
      const auto it = jobs_.find(done.job);
      if (it == jobs_.end()) {
        // The job finished and was garbage-collected; this is a
        // re-dispatched copy completing behind the original.
        ++duplicate_completions_;
        break;
      }
      JobState& state = it->second;
      HAWK_CHECK_LT(done.task_index, state.tasks.size());
      TaskState& task = state.tasks[done.task_index];
      if (task.phase == TaskPhase::kDone) {
        ++duplicate_completions_;
        if (task.speculated) {
          // The losing copy of a speculated pair: its whole nominal runtime
          // was duplicate work.
          speculative_wasted_us_ += static_cast<uint64_t>(done.duration_us);
        }
        break;
      }
      // Karn's rule: only a copy that was never re-dispatched or duplicated
      // feeds the estimator — a retransmitted task's completion cannot be
      // attributed to one send, and would poison the smoothed overshoot.
      if (task.phase == TaskPhase::kGranted && task.attempts == 0 && !task.speculated) {
        const auto overshoot = std::chrono::duration_cast<std::chrono::microseconds>(
                                   std::chrono::steady_clock::now() - task.granted_at)
                                   .count() -
                               done.duration_us;
        rto_.AddSample(static_cast<double>(std::max<int64_t>(overshoot, 0)));
      }
      // The completion may come from a copy recovery already presumed dead
      // (phase back to kUnassigned) — it still finishes the task. Drop a
      // stale returned index so it cannot be re-granted.
      task.phase = TaskPhase::kDone;
      state.returned.erase(std::remove(state.returned.begin(), state.returned.end(),
                                       done.task_index),
                           state.returned.end());
      if (faults_.enabled) {
        state.probe_deadline = std::chrono::steady_clock::now() + faults_.detection_timeout;
      }
      ++state.finished;
      if (state.finished == state.durations_us.size()) {
        sink_->Record(done.job, state.is_long);
        jobs_.erase(it);
      }
      break;
    }
    default:
      HAWK_CHECK(false) << "frontend got unexpected message type " << message.type;
  }
}

void DistributedFrontend::ReapOverdue() {
  if (!faults_.Armed()) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  const auto now = std::chrono::steady_clock::now();
  for (auto& [job, state] : jobs_) {
    // Overdue grants: the executing node is presumed dead. Return the task
    // to the assignable pool and probe for a new slot to late-bind it.
    // Running copies past the speculation threshold (but not yet presumed
    // dead) get one duplicate grant path instead — the original stays
    // granted, and whichever copy completes first wins.
    uint32_t reaped = 0;
    for (uint32_t i = 0; i < state.tasks.size(); ++i) {
      TaskState& task = state.tasks[i];
      if (task.phase != TaskPhase::kGranted) {
        continue;
      }
      if (faults_.enabled && now > task.deadline) {
        task.phase = TaskPhase::kUnassigned;
        ++task.attempts;
        if (task.attempts > faults_.retry_budget) {
          // Budget exhausted: the re-dispatch still happens (a wall-clock
          // run must terminate) but is accounted as suppressed, and the
          // task as abandoned exactly once, at the moment of exhaustion.
          ++retries_suppressed_;
          if (task.attempts == faults_.retry_budget + 1) {
            ++tasks_abandoned_;
          }
        } else {
          ++tasks_re_dispatched_;
        }
        // A speculated task may already have its duplicate's index parked
        // in `returned`; don't queue it twice.
        if (std::find(state.returned.begin(), state.returned.end(), i) ==
            state.returned.end()) {
          state.returned.push_back(i);
          ++reaped;
        }
      } else if (faults_.SpeculationOn() && !task.speculated &&
                 now - task.granted_at >
                     std::chrono::microseconds(static_cast<int64_t>(
                         faults_.speculation_threshold *
                         static_cast<double>(state.durations_us[i])))) {
        task.speculated = true;
        ++tasks_speculated_;
        state.returned.push_back(i);
        ++reaped;
      }
    }
    const auto unassigned = static_cast<uint32_t>(state.returned.size()) +
                            static_cast<uint32_t>(state.durations_us.size()) -
                            state.next_unassigned;
    if (reaped > 0) {
      probes_re_sent_ += reaped;
      SendProbesLocked(job, state, reaped);
    } else if (faults_.enabled && unassigned > 0 && now > state.probe_deadline) {
      // No grant or completion progress for a full detection window while
      // tasks sit unassigned: every outstanding probe died with a crashed
      // node or was dropped by the bus. Replace them (one per pending task;
      // the watchdog re-fires if those die too).
      probes_re_sent_ += unassigned;
      SendProbesLocked(job, state, unassigned);
    }
  }
}

uint64_t DistributedFrontend::tasks_re_dispatched() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tasks_re_dispatched_;
}

uint64_t DistributedFrontend::probes_re_sent() const {
  std::lock_guard<std::mutex> lock(mu_);
  return probes_re_sent_;
}

uint64_t DistributedFrontend::duplicate_completions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return duplicate_completions_;
}

uint64_t DistributedFrontend::tasks_speculated() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tasks_speculated_;
}

uint64_t DistributedFrontend::speculative_wasted_us() const {
  std::lock_guard<std::mutex> lock(mu_);
  return speculative_wasted_us_;
}

uint64_t DistributedFrontend::retries_suppressed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retries_suppressed_;
}

uint64_t DistributedFrontend::tasks_abandoned() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tasks_abandoned_;
}

bool DistributedFrontend::JobProgress(JobId job, uint32_t* done, uint32_t* total) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(job);
  if (it == jobs_.end()) {
    return false;
  }
  *done = it->second.finished;
  *total = static_cast<uint32_t>(it->second.durations_us.size());
  return true;
}

// --- CentralBackend ---------------------------------------------------------

CentralBackend::CentralBackend(rpc::Address address, const Cluster* layout,
                               const FaultRecoveryPolicy& faults, rpc::MessageBus* bus,
                               CompletionSink* sink)
    : address_(address),
      layout_(layout),
      faults_(faults),
      bus_(bus),
      sink_(sink),
      waiting_(*layout, layout->GeneralCount()),
      rto_(MakeRecoveryTimeout(faults)),
      epoch_(std::chrono::steady_clock::now()) {
  HAWK_CHECK(layout != nullptr);
  HAWK_CHECK(bus != nullptr);
  HAWK_CHECK(sink != nullptr);
}

void CentralBackend::Start() {
  bus_->Register(address_, [this](const rpc::BusMessage& m) { HandleMessage(m); });
}

void CentralBackend::PlaceTaskLocked(JobId job, JobState& state, uint32_t task_index) {
  const WorkerId worker = waiting_.AssignTask(NowUs(), job, state.estimate_us);
  // Any slot of the worker routes the placement; the monitors echo it back
  // in their start/finish reports, which is how feedback names the worker.
  const TaskMsg place = TaskMsg::Place(job, task_index, state.durations_us[task_index],
                                       state.is_long, address_,
                                       layout_->workers().SlotBegin(worker));
  state.tasks[task_index].placed_at = std::chrono::steady_clock::now();
  if (faults_.enabled) {
    // The deadline budgets the run itself plus the adaptive detection
    // window (which, unlike the frontend's, has absorbed typical queue
    // wait), backed off per re-placement of this task; a task parked deep
    // in a busy queue can still overrun it and be re-placed while alive —
    // the duplicate completion is counted and dropped.
    const DurationUs window = rto_.BackoffTimeoutUs(state.tasks[task_index].attempts);
    state.tasks[task_index].deadline =
        state.tasks[task_index].placed_at + std::chrono::microseconds(place.duration_us) +
        std::chrono::microseconds(window) +
        std::chrono::microseconds(AdaptiveTimeout::JitterUs(
            TaskJitterKey(job, task_index), state.tasks[task_index].attempts, window / 4));
  }
  bus_->Send(address_, worker, kTaskPlace, place.Encode());
}

void CentralBackend::HandleMessage(const rpc::BusMessage& message) {
  std::lock_guard<std::mutex> lock(mu_);
  switch (message.type) {
    case kJobSubmit: {
      const JobSubmitMsg submit = JobSubmitMsg::Decode(message.payload);
      JobState state;
      state.unfinished = static_cast<uint32_t>(submit.task_durations_us.size());
      state.is_long = submit.is_long;
      state.durations_us = submit.task_durations_us;
      state.estimate_us = submit.estimate_us;
      state.tasks.resize(state.durations_us.size());
      const auto emplaced = jobs_.emplace(submit.job, std::move(state));
      HAWK_CHECK(emplaced.second);
      ++jobs_handled_;
      for (uint32_t i = 0; i < emplaced.first->second.durations_us.size(); ++i) {
        PlaceTaskLocked(submit.job, emplaced.first->second, i);
      }
      break;
    }
    case kTaskStarted: {
      const JobRefMsg started = JobRefMsg::Decode(message.payload);
      waiting_.OnTaskStart(layout_->WorkerOfSlot(started.slot), started.job, NowUs());
      break;
    }
    case kTaskDone: {
      const TaskMsg done = TaskMsg::Decode(message.payload);
      // Feedback first, and unconditionally: whichever copy finished did
      // start on that worker, so its lane comes back down even when the
      // completion is a duplicate at the job level.
      waiting_.OnTaskFinish(layout_->WorkerOfSlot(done.slot), done.job, NowUs());
      const auto it = jobs_.find(done.job);
      if (it == jobs_.end()) {
        // The job finished and was garbage-collected; a re-dispatched copy
        // completed behind the original.
        ++duplicate_completions_;
        break;
      }
      JobState& state = it->second;
      HAWK_CHECK_LT(done.task_index, state.tasks.size());
      if (state.tasks[done.task_index].done) {
        ++duplicate_completions_;
        break;
      }
      // Karn's rule: only never-re-placed tasks feed the adaptive window.
      if (state.tasks[done.task_index].attempts == 0) {
        const auto overshoot = std::chrono::duration_cast<std::chrono::microseconds>(
                                   std::chrono::steady_clock::now() -
                                   state.tasks[done.task_index].placed_at)
                                   .count() -
                               done.duration_us;
        rto_.AddSample(static_cast<double>(std::max<int64_t>(overshoot, 0)));
      }
      state.tasks[done.task_index].done = true;
      --state.unfinished;
      if (state.unfinished == 0) {
        sink_->Record(done.job, state.is_long);
        jobs_.erase(it);
      }
      break;
    }
    default:
      HAWK_CHECK(false) << "backend got unexpected message type " << message.type;
  }
}

void CentralBackend::ReapOverdue() {
  if (!faults_.enabled) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  const auto now = std::chrono::steady_clock::now();
  for (auto& [job, state] : jobs_) {
    for (uint32_t i = 0; i < state.tasks.size(); ++i) {
      if (!state.tasks[i].done && now > state.tasks[i].deadline) {
        // Presumed dead with its node; place a fresh copy through the
        // waiting-time queue (which also re-arms the deadline, backed off
        // by the bumped attempt count). A dead copy that never started
        // leaves its charge behind; it only pads that lane's estimate.
        ++state.tasks[i].attempts;
        if (state.tasks[i].attempts > faults_.retry_budget) {
          ++retries_suppressed_;
          if (state.tasks[i].attempts == faults_.retry_budget + 1) {
            ++tasks_abandoned_;
          }
        } else {
          ++tasks_re_dispatched_;
        }
        PlaceTaskLocked(job, state, i);
      }
    }
  }
}

uint64_t CentralBackend::tasks_re_dispatched() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tasks_re_dispatched_;
}

uint64_t CentralBackend::duplicate_completions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return duplicate_completions_;
}

uint64_t CentralBackend::retries_suppressed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retries_suppressed_;
}

uint64_t CentralBackend::tasks_abandoned() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tasks_abandoned_;
}

bool CentralBackend::JobProgress(JobId job, uint32_t* done, uint32_t* total) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(job);
  if (it == jobs_.end()) {
    return false;
  }
  *total = static_cast<uint32_t>(it->second.durations_us.size());
  *done = *total - it->second.unfinished;
  return true;
}

}  // namespace runtime
}  // namespace hawk

// Prototype schedulers (paper §3.8, §4.10): distributed frontends handling
// probed jobs and one centralized backend placing jobs with the §3.7
// waiting-time queue. The prototype uses "1 centralized and 10 distributed
// schedulers" for its 100-node runs.
//
// Which jobs go where, which slot span probes cover, and whether the backend
// exists at all is decided by the registered policy's RuntimeShape
// (src/scheduler/policy.h) — the frontends and backend are policy-agnostic
// executors of the shared src/core/ components: ChooseProbeTargetsInto for
// probe placement over the layout cluster's slot space and
// SlotWaitingTimeQueue for multi-slot centralized placement.
#ifndef HAWK_RUNTIME_SCHEDULERS_H_
#define HAWK_RUNTIME_SCHEDULERS_H_

#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/random.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/core/adaptive_timeout.h"
#include "src/core/slot_waiting_queue.h"
#include "src/rpc/message_bus.h"
#include "src/runtime/failure_detector.h"
#include "src/runtime/proto_messages.h"
#include "src/scheduler/policy.h"

namespace hawk {
namespace runtime {

// Collects wall-clock job completions from all schedulers.
class CompletionSink {
 public:
  struct Completion {
    JobId job = 0;
    bool is_long = false;
    std::chrono::steady_clock::time_point finished_at;
  };

  // Declares the job ids the run will complete; tracking ids (not just a
  // count) lets a timeout name the jobs still outstanding.
  void ExpectJobs(const std::vector<JobId>& ids);
  // Records a completion. A job already recorded (possible when fault
  // recovery re-dispatches a task whose original copy was merely slow) is
  // counted as a duplicate and dropped rather than double-counted; a job id
  // that was never expected aborts — that is a wiring bug, not a fault.
  void Record(JobId job, bool is_long);
  // Per-job progress annotation for timeout diagnostics: given a job id,
  // returns a short suffix like " (3/10 tasks done)" — or "" when the
  // caller cannot locate the job. Supplied by the harness, which can ask
  // the schedulers that own the jobs; the sink itself only sees whole-job
  // completions.
  using ProgressFn = std::function<std::string(JobId)>;

  // Blocks until all expected jobs completed or the deadline passes. On
  // timeout the error lists the outstanding job ids (up to a cap, sorted so
  // runs are comparable), each annotated with its done/total task counts
  // when `progress` is supplied — so a slow or stuck run is diagnosable
  // from the log alone, down to the task that never came back.
  Status AwaitAll(std::chrono::milliseconds timeout, const ProgressFn& progress = nullptr);
  std::vector<Completion> TakeAll();

  uint64_t duplicates() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_set<JobId> expected_;  // Every id ever passed to ExpectJobs.
  std::unordered_set<JobId> outstanding_;
  std::vector<Completion> completions_;
  uint64_t duplicates_ = 0;
};

// Wall-clock fault-recovery knobs shared by the scheduler executors. A
// zero-initialized policy (enabled = false, speculation off) makes every
// fault path inert: no deadlines are armed and ReapOverdue is a no-op.
struct FaultRecoveryPolicy {
  bool enabled = false;
  // Seed and cap basis for the adaptive detection timeout: each executor
  // tracks the observed grant->completion overshoot with a Jacobson
  // estimator (src/core/adaptive_timeout.h) seeded from this value, so the
  // effective detection window shrinks toward real overheads on a healthy
  // cluster and backs off exponentially per re-dispatch of the same task.
  // Also the (fixed) probe-loss watchdog window.
  std::chrono::microseconds detection_timeout{750'000};
  // Re-dispatches of one task beyond this budget are counted as
  // retries_suppressed (and the task as abandoned, once) instead of
  // tasks_re_dispatched. Unlike the simulator — where an abandoned delivery
  // is genuinely dropped and recovered through the loss path — the
  // prototype keeps retrying at the maximum backoff interval: a wall-clock
  // run must terminate, and the counters still expose the budget overrun.
  uint32_t retry_budget = 16;
  // Speculative re-execution: a granted task whose copy has been running
  // longer than threshold x its nominal duration gets one duplicate grant;
  // first completion wins, the loser is deduplicated. <= 0 disables.
  double speculation_threshold = 0.0;

  bool SpeculationOn() const { return speculation_threshold > 0.0; }
  // Whether ReapOverdue has anything to do at all.
  bool Armed() const { return enabled || SpeculationOn(); }
};

// A distributed scheduler frontend: owns the jobs submitted to it, places
// `probe_ratio * t` probes over the slot span the policy's RuntimeShape
// declares for the job's class, and late-binds tasks on request.
class DistributedFrontend {
 public:
  // `layout` is the run's immutable cluster layout (slot spans, capacity
  // weighting); it must outlive the frontend and is shared read-only across
  // all runtime components.
  // `detector` (optional) steers probe placement away from currently
  // suspected nodes; null keeps placement detector-blind.
  DistributedFrontend(rpc::Address address, const Cluster* layout, const RuntimeShape& shape,
                      uint32_t probe_ratio, const FaultRecoveryPolicy& faults,
                      rpc::MessageBus* bus, CompletionSink* sink, uint64_t seed,
                      const FailureDetector* detector = nullptr);

  void Start();

  // Fault recovery (no-op unless the policy enables it): returns overdue
  // granted tasks to the assignable pool and re-probes for them — with
  // per-task exponential backoff on the adaptive detection window and the
  // retry budget's accounting — and re-probes jobs whose unassigned tasks
  // have made no progress (their probes died with a crashed node or were
  // dropped by the bus). When speculation is on, also issues one duplicate
  // grant path for any copy running past threshold x its duration. Driven
  // by the harness's reaper thread.
  void ReapOverdue();

  // Task-level progress of a job this frontend owns, for AwaitAll timeout
  // diagnostics. False if the job is unknown here (finished, or owned by
  // another scheduler).
  bool JobProgress(JobId job, uint32_t* done, uint32_t* total) const;

  uint64_t jobs_handled() const { return jobs_handled_; }
  uint64_t cancels_sent() const { return cancels_sent_; }
  uint64_t tasks_re_dispatched() const;
  uint64_t probes_re_sent() const;
  uint64_t duplicate_completions() const;
  uint64_t tasks_speculated() const;
  uint64_t speculative_wasted_us() const;
  uint64_t retries_suppressed() const;
  uint64_t tasks_abandoned() const;

 private:
  // Per-task lifecycle; kGranted tasks carry a presumed-dead deadline.
  enum class TaskPhase : uint8_t { kUnassigned, kGranted, kDone };
  struct TaskState {
    TaskPhase phase = TaskPhase::kUnassigned;
    std::chrono::steady_clock::time_point deadline;
    // When the current copy was granted — the base of the speculation check
    // and of the completion-overshoot sample fed to the adaptive estimator.
    std::chrono::steady_clock::time_point granted_at;
    uint32_t attempts = 0;   // Re-dispatches so far (backoff exponent).
    bool speculated = false;  // One duplicate per logical task, ever.
  };
  struct JobState {
    std::vector<int64_t> durations_us;
    std::vector<TaskState> tasks;
    uint32_t next_unassigned = 0;
    // Task indices returned by fault recovery, re-granted before the cursor
    // advances (the runtime twin of JobTracker's returned list).
    std::vector<uint32_t> returned;
    uint32_t finished = 0;
    bool is_long = false;
    // Probe-loss watchdog: pushed forward by any grant/completion progress
    // and by (re-)probing; expiring with unassigned tasks means every
    // outstanding probe is sitting on a dead node or was dropped.
    std::chrono::steady_clock::time_point probe_deadline;
  };

  void HandleMessage(const rpc::BusMessage& message);
  // Sends `count` fresh probes for `job` over the class's slot span,
  // steering individual draws away from detector-suspected nodes. Caller
  // holds mu_.
  void SendProbesLocked(JobId job, JobState& state, uint32_t count);

  const rpc::Address address_;
  const Cluster* layout_;
  const RuntimeShape shape_;
  const uint32_t probe_ratio_;
  const FaultRecoveryPolicy faults_;
  rpc::MessageBus* bus_;
  CompletionSink* sink_;
  const FailureDetector* detector_;

  mutable std::mutex mu_;
  Rng rng_;
  // Adaptive detection window (guarded by mu_): grant->completion overshoot
  // of unretried, unspeculated copies, Jacobson-smoothed.
  AdaptiveTimeout rto_;
  std::unordered_map<JobId, JobState> jobs_;
  // Probe-placement scratch (slot ids), reused across submissions.
  std::vector<SlotId> targets_;
  std::vector<uint32_t> picks_;
  uint64_t jobs_handled_ = 0;
  uint64_t cancels_sent_ = 0;
  uint64_t tasks_re_dispatched_ = 0;
  uint64_t probes_re_sent_ = 0;
  uint64_t duplicate_completions_ = 0;
  uint64_t tasks_speculated_ = 0;
  uint64_t speculative_wasted_us_ = 0;
  uint64_t retries_suppressed_ = 0;
  uint64_t tasks_abandoned_ = 0;
};

// The centralized backend: places every task of a submitted job on the
// minimum-waiting slot lane of the tracked partition (§3.7), via the same
// SlotWaitingTimeQueue, driven by the same (worker, job) start/finish
// protocol, as the simulator's policies. The node monitors' task start and
// finish reports keep the estimates synchronized; the queue itself absorbs
// the bus reordering a finish ahead of its own start.
class CentralBackend {
 public:
  // Tracks the general partition of `layout` — the whole cluster when the
  // policy registered no partition sizing.
  CentralBackend(rpc::Address address, const Cluster* layout, const FaultRecoveryPolicy& faults,
                 rpc::MessageBus* bus, CompletionSink* sink);

  void Start();

  // Fault recovery (no-op unless the policy enables it): re-places overdue
  // unfinished tasks through the waiting-time queue, with per-task backoff
  // on the adaptive detection window and retry-budget accounting. A
  // re-placed task whose original copy was merely slow can complete twice;
  // the second completion is counted and dropped. Driven by the harness's
  // reaper thread.
  void ReapOverdue();

  // Task-level progress of a job this backend owns, for AwaitAll timeout
  // diagnostics. False if the job is unknown here.
  bool JobProgress(JobId job, uint32_t* done, uint32_t* total) const;

  uint64_t jobs_handled() const { return jobs_handled_; }
  uint64_t tasks_re_dispatched() const;
  uint64_t duplicate_completions() const;
  uint64_t retries_suppressed() const;
  uint64_t tasks_abandoned() const;

 private:
  struct TaskState {
    bool done = false;
    std::chrono::steady_clock::time_point deadline;
    std::chrono::steady_clock::time_point placed_at;
    uint32_t attempts = 0;  // Re-placements so far (backoff exponent).
  };
  struct JobState {
    uint32_t unfinished = 0;
    bool is_long = true;
    // Kept for fault recovery: re-placement needs the duration and the
    // original estimate to charge the new lane.
    std::vector<int64_t> durations_us;
    int64_t estimate_us = 0;
    std::vector<TaskState> tasks;
  };

  void HandleMessage(const rpc::BusMessage& message);
  // Places one task through the waiting-time queue. Caller holds mu_.
  void PlaceTaskLocked(JobId job, JobState& state, uint32_t task_index);

  const rpc::Address address_;
  const Cluster* layout_;
  const FaultRecoveryPolicy faults_;
  rpc::MessageBus* bus_;
  CompletionSink* sink_;

  mutable std::mutex mu_;
  SlotWaitingTimeQueue waiting_;
  // Adaptive detection window (guarded by mu_): placement->completion
  // overshoot of unretried placements, Jacobson-smoothed. Unlike the
  // frontend's, this one absorbs queue wait — centrally placed tasks park
  // behind their lane's backlog, and that wait is genuine, not failure.
  AdaptiveTimeout rto_;
  std::unordered_map<JobId, JobState> jobs_;
  std::chrono::steady_clock::time_point epoch_;
  uint64_t jobs_handled_ = 0;
  uint64_t tasks_re_dispatched_ = 0;
  uint64_t duplicate_completions_ = 0;
  uint64_t retries_suppressed_ = 0;
  uint64_t tasks_abandoned_ = 0;

  SimTime NowUs() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }
};

}  // namespace runtime
}  // namespace hawk

#endif  // HAWK_RUNTIME_SCHEDULERS_H_

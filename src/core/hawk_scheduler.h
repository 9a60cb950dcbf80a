// The Hawk hybrid scheduler (paper §3) — the primary contribution.
//
// Long jobs are placed by a centralized waiting-time queue restricted to the
// general partition; short jobs are probed Sparrow-style over the entire
// cluster; idle workers steal blocked short work from random general-
// partition victims. Each mechanism has a toggle so the §4.4 component
// breakdown ("Hawk w/out centralized / partition / stealing") runs through
// the exact same code.
#ifndef HAWK_CORE_HAWK_SCHEDULER_H_
#define HAWK_CORE_HAWK_SCHEDULER_H_

#include <memory>

#include "src/core/hawk_config.h"
#include "src/core/slot_waiting_queue.h"
#include "src/core/stealing_policy.h"
#include "src/scheduler/policy.h"

namespace hawk {

class HawkPolicy : public SchedulerPolicy {
 public:
  // `victim_selection` picks the steal-victim contact order; kDChoice is the
  // "hawk-dchoice" registered variant (most-loaded victim first).
  explicit HawkPolicy(const HawkConfig& config,
                      StealingPolicy::VictimSelection victim_selection =
                          StealingPolicy::VictimSelection::kRandom)
      : config_(config), victim_selection_(victim_selection) {}

  void Attach(SchedulerContext* ctx) override;

  RuntimeShape ShapeForRuntime(const HawkConfig& config) const override {
    RuntimeShape shape = SchedulerPolicy::ShapeForRuntime(config);
    shape.victim_selection = victim_selection_;
    return shape;
  }

  void OnJobArrival(const Job& job, const JobClass& cls) override;
  void OnWorkerIdle(WorkerId worker) override;
  void OnTaskStart(WorkerId worker, const QueueEntry& task) override;
  void OnTaskFinish(WorkerId worker, JobId job, bool is_long) override;
  void OnTaskLost(JobId job, bool is_long) override;

  std::string_view Name() const override { return "hawk"; }

  const HawkConfig& config() const { return config_; }

 protected:
  // The long-job lane. Virtual so the "hawk-latebind" variant can swap the
  // eager task binding for probe placement without duplicating the routing
  // in OnJobArrival.
  virtual void ScheduleLongCentralized(const Job& job, const JobClass& cls);

  SlotWaitingTimeQueue& central_queue() { return *central_queue_; }

 private:
  void ScheduleDistributed(const Job& job, const JobClass& cls, SlotId first, uint32_t count);

  HawkConfig config_;
  StealingPolicy::VictimSelection victim_selection_;
  // Waiting-time queue over the general partition's slots only (§3.7).
  std::unique_ptr<SlotWaitingTimeQueue> central_queue_;
  std::unique_ptr<StealingPolicy> stealing_;
  // Probe-placement scratch (slot ids), reused across job arrivals.
  std::vector<SlotId> targets_;
  std::vector<uint32_t> picks_;
};

// "hawk-spec" registered variant: Hawk with speculative re-execution forced
// on. A config that sets speculation_threshold explicitly still wins;
// otherwise the variant supplies kDefaultSpeculationThreshold, so sweeping
// {"hawk", "hawk-spec"} under one config isolates the effect of speculation.
class HawkSpecPolicy : public HawkPolicy {
 public:
  static constexpr double kDefaultSpeculationThreshold = 2.0;

  using HawkPolicy::HawkPolicy;

  double SpeculationThreshold(const HawkConfig& config) const override {
    return config.speculation_threshold > 0.0 ? config.speculation_threshold
                                              : kDefaultSpeculationThreshold;
  }

  std::string_view Name() const override { return "hawk-spec"; }
};

// "hawk-latebind" registered variant: the centralized long-job lane places
// *probes* on the minimum-wait workers instead of binding tasks eagerly, so
// the driver's late-binding request machinery (§3.5) hands out tasks in
// probe-service order. The waiting-time accounting is unchanged — one
// AssignTask charge per probe, discharged when a task of the same job starts
// on that worker. Lost probes are replaced through the waiting-time queue
// (not a random re-probe) so the min-wait property survives faults. On the
// prototype runtime the variant degrades to the eager centralized backend,
// like every placement nuance that needs live central state (see
// RuntimeShape).
class HawkLateBindPolicy : public HawkPolicy {
 public:
  using HawkPolicy::HawkPolicy;

  void OnProbeLost(JobId job, bool is_long) override;

  std::string_view Name() const override { return "hawk-latebind"; }

 protected:
  void ScheduleLongCentralized(const Job& job, const JobClass& cls) override;
};

}  // namespace hawk

#endif  // HAWK_CORE_HAWK_SCHEDULER_H_

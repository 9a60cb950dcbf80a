// Tests for the Hawk core mechanisms: classifier and noisy estimator,
// partition sizing rule, waiting-time priority queue (ordering, decay,
// start/finish feedback, tie-breaking) and its slot-aware (worker, job)
// feedback protocol, stealing policy, probe placement.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/core/estimator.h"
#include "src/core/hawk_config.h"
#include "src/core/job_classifier.h"
#include "src/core/partition.h"
#include "src/core/probe_placement.h"
#include "src/core/slot_waiting_queue.h"
#include "src/core/stealing_policy.h"
#include "src/core/waiting_time_queue.h"
#include "src/workload/trace_stats.h"

namespace hawk {
namespace {

Job MakeJob(std::vector<double> durations_s, bool long_hint = false) {
  Job job;
  for (const double d : durations_s) {
    job.task_durations.push_back(SecondsToUs(d));
  }
  job.long_hint = long_hint;
  return job;
}

// --- Estimator / classifier --------------------------------------------------

TEST(EstimatorTest, ExactWithoutNoise) {
  Estimator estimator(1.0, 1.0, 1);
  const Job job = MakeJob({100, 200, 300});
  EXPECT_DOUBLE_EQ(estimator.EstimateAvgTaskUs(job), SecondsToUs(200));
}

TEST(EstimatorTest, NoiseStaysInRange) {
  Estimator estimator(0.5, 1.5, 2);
  const Job job = MakeJob({100});
  for (int i = 0; i < 1000; ++i) {
    const double est = estimator.EstimateAvgTaskUs(job);
    EXPECT_GE(est, 0.5 * SecondsToUs(100));
    EXPECT_LE(est, 1.5 * SecondsToUs(100));
  }
}

TEST(EstimatorTest, NoiseCoversRange) {
  Estimator estimator(0.1, 1.9, 3);
  const Job job = MakeJob({100});
  double lo = 1e18;
  double hi = 0;
  for (int i = 0; i < 2000; ++i) {
    const double est = estimator.EstimateAvgTaskUs(job);
    lo = std::min(lo, est);
    hi = std::max(hi, est);
  }
  EXPECT_LT(lo, 0.3 * SecondsToUs(100));
  EXPECT_GT(hi, 1.7 * SecondsToUs(100));
}

TEST(ClassifierTest, CutoffBoundary) {
  JobClassifier classifier(ClassifyMode::kCutoff, SecondsToUs(1129), 1.0, 1.0, 1);
  EXPECT_FALSE(classifier.Classify(MakeJob({1128.9})).is_long_sched);
  EXPECT_TRUE(classifier.Classify(MakeJob({1129.0})).is_long_sched);
  EXPECT_TRUE(classifier.Classify(MakeJob({5000})).is_long_metrics);
}

TEST(ClassifierTest, HintModeIgnoresDurations) {
  JobClassifier classifier(ClassifyMode::kHint, SecondsToUs(1129), 1.0, 1.0, 1);
  EXPECT_TRUE(classifier.Classify(MakeJob({1.0}, /*long_hint=*/true)).is_long_sched);
  EXPECT_FALSE(classifier.Classify(MakeJob({9999.0}, /*long_hint=*/false)).is_long_sched);
}

TEST(ClassifierTest, NoiseOnlyAffectsSchedulingClass) {
  // With strong downward noise, long jobs get scheduled as short, but the
  // metrics class (noise-free) stays long — the Fig. 14 protocol.
  JobClassifier classifier(ClassifyMode::kCutoff, SecondsToUs(1129), 0.01, 0.02, 7);
  const JobClass cls = classifier.Classify(MakeJob({5000}));
  EXPECT_FALSE(cls.is_long_sched);
  EXPECT_TRUE(cls.is_long_metrics);
}

TEST(HawkConfigTest, GeneralCountRespectsPartitionToggle) {
  HawkConfig config;
  config.num_workers = 100;
  config.short_partition_fraction = 0.17;
  EXPECT_EQ(config.GeneralCount(), 83u);
  config.use_partition = false;
  EXPECT_EQ(config.GeneralCount(), 100u);
  config.use_partition = true;
  config.short_partition_fraction = 0.0;
  EXPECT_EQ(config.GeneralCount(), 100u);
  // The split counts workers, not slots, on a heterogeneous fleet too: 10
  // workers laid out 1,4,1,4,... slots, 30% short -> 3 short workers.
  HawkConfig hetero;
  hetero.num_workers = 10;
  hetero.big_worker_fraction = 0.5;
  hetero.big_worker_slots = 4;
  hetero.short_partition_fraction = 0.3;
  EXPECT_EQ(hetero.GeneralCount(), 7u);
}

// --- Partition sizing ---------------------------------------------------------

TEST(PartitionTest, FractionFollowsTaskSecondsShare) {
  WorkloadMix mix;
  mix.pct_task_seconds_long = 83.0;
  EXPECT_NEAR(ShortPartitionFractionFromMix(mix), 0.17, 1e-9);
  mix.pct_task_seconds_long = 99.8;
  EXPECT_NEAR(ShortPartitionFractionFromMix(mix), 0.01, 1e-9);  // Clamped to floor.
  mix.pct_task_seconds_long = 10.0;
  EXPECT_NEAR(ShortPartitionFractionFromMix(mix), 0.5, 1e-9);  // Clamped to ceiling.
}

// --- WaitingTimeQueue ----------------------------------------------------------

TEST(WaitingTimeQueueTest, AssignsToMinWaiting) {
  WaitingTimeQueue queue(3);
  // Three tasks, estimates 100/50/10: first goes to worker 0 (all tie at 0),
  // then workers with less backlog win.
  const WorkerId w0 = queue.AssignTask(0, 100);
  const WorkerId w1 = queue.AssignTask(0, 50);
  const WorkerId w2 = queue.AssignTask(0, 10);
  EXPECT_EQ(w0, 0u);
  EXPECT_EQ(w1, 1u);
  EXPECT_EQ(w2, 2u);
  // Next task goes to worker 2 (backlog 10 is the minimum).
  EXPECT_EQ(queue.AssignTask(0, 1000), 2u);
}

TEST(WaitingTimeQueueTest, WaitingTimeDefinition) {
  WaitingTimeQueue queue(2);
  queue.AssignTask(0, 100);  // worker 0, backlog 100
  EXPECT_EQ(queue.WaitingTime(0, 0), 100);
  queue.OnTaskStart(0, 10, 100);  // backlog -> remaining of executing
  EXPECT_EQ(queue.WaitingTime(0, 10), 100);
  EXPECT_EQ(queue.WaitingTime(0, 60), 50);    // Decays with the clock.
  EXPECT_EQ(queue.WaitingTime(0, 200), 0);    // Overdue task: remaining est 0.
  queue.OnTaskFinish(0, 250);
  EXPECT_EQ(queue.WaitingTime(0, 250), 0);
}

TEST(WaitingTimeQueueTest, DecayRestoresPreference) {
  WaitingTimeQueue queue(2);
  queue.AssignTask(0, 100);
  queue.OnTaskStart(0, 0, 100);
  queue.AssignTask(0, 1000);  // worker 1 (waiting 0 < 100)
  // At t=2000, worker 0's task would have drained (estimate-wise); worker 1
  // still has backlog -> worker 0 preferred.
  EXPECT_EQ(queue.AssignTask(2000, 10), 0u);
}

TEST(WaitingTimeQueueTest, StartFeedbackAbsorbsQueueingDelay) {
  WaitingTimeQueue queue(1);
  queue.AssignTask(0, 100);
  // The task only starts at t=500 (e.g. short work was ahead of it): the
  // waiting time reflects the late start.
  queue.OnTaskStart(0, 500, 100);
  EXPECT_EQ(queue.WaitingTime(0, 500), 100);
  EXPECT_EQ(queue.WaitingTime(0, 550), 50);
}

TEST(WaitingTimeQueueTest, FinishFeedbackCorrectsOverrun) {
  WaitingTimeQueue queue(2);
  queue.AssignTask(0, 100);
  queue.OnTaskStart(0, 0, 100);  // Estimated drain at t=100.
  // Task actually runs to t=400; the estimate said 0 remaining after t=100,
  // and finish feedback re-synchronizes instead of accumulating drift.
  queue.OnTaskFinish(0, 400);
  EXPECT_EQ(queue.WaitingTime(0, 400), 0);
}

TEST(WaitingTimeQueueTest, OverdueExecutingLosesTieToIdle) {
  WaitingTimeQueue queue(2);
  queue.AssignTask(0, 10);
  queue.OnTaskStart(0, 0, 10);
  // At t=1000 worker 0's executing task is overdue (estimated waiting 0) but
  // still running; worker 1 is genuinely idle and must win the tie.
  EXPECT_EQ(queue.AssignTask(1000, 5), 1u);
}

TEST(WaitingTimeQueueTest, ManyAssignmentsBalance) {
  // 1000 equal tasks over 100 workers: every worker gets exactly 10.
  WaitingTimeQueue queue(100);
  std::vector<int> per_worker(100, 0);
  for (int i = 0; i < 1000; ++i) {
    per_worker[queue.AssignTask(0, 100)]++;
  }
  for (const int count : per_worker) {
    EXPECT_EQ(count, 10);
  }
}

TEST(WaitingTimeQueueTest, MatchesNaiveReferenceModel) {
  // Randomized property: the chosen worker always has the minimum §3.7
  // waiting time among all workers (ties by executing bias then id).
  Rng rng(11);
  const uint32_t n = 17;
  WaitingTimeQueue queue(n);
  SimTime now = 0;
  for (int step = 0; step < 2000; ++step) {
    now += static_cast<SimTime>(rng.NextBounded(50));
    const auto est = static_cast<DurationUs>(1 + rng.NextBounded(200));
    DurationUs min_wait = std::numeric_limits<DurationUs>::max();
    for (uint32_t w = 0; w < n; ++w) {
      min_wait = std::min(min_wait, queue.WaitingTime(w, now));
    }
    const WorkerId chosen = queue.AssignTask(now, est);
    // WaitingTime(chosen) now includes the new estimate; subtract it.
    EXPECT_EQ(queue.WaitingTime(chosen, now) - est, min_wait);
    // Randomly start/finish the backlog to exercise feedback paths.
    if (rng.Bernoulli(0.7)) {
      queue.OnTaskStart(chosen, now, est);
      if (rng.Bernoulli(0.5)) {
        queue.OnTaskFinish(chosen, now + static_cast<SimTime>(rng.NextBounded(300)));
      }
    }
  }
}

// --- SlotWaitingTimeQueue ------------------------------------------------------

SlotSpec UniformSlots(uint32_t slots) {
  SlotSpec spec;
  spec.slots_per_worker = slots;
  return spec;
}

TEST(SlotWaitingTimeQueueTest, SingleSlotFleetMatchesWaitingTimeQueue) {
  // Randomized: on one-slot workers, lanes are workers, so the same
  // assign/start/finish calls must pick exactly the workers the plain
  // per-worker queue picks — whatever order a worker's tasks start in.
  const uint32_t n = 13;
  const Cluster cluster(n, n, UniformSlots(1));
  SlotWaitingTimeQueue slots(cluster, n);
  WaitingTimeQueue plain(n);
  const auto estimate = [](JobId job) { return static_cast<DurationUs>(10 * (job + 1)); };
  std::vector<std::pair<WorkerId, JobId>> assigned;  // Not yet started.
  std::vector<std::pair<WorkerId, JobId>> running;
  Rng rng(5);
  SimTime now = 0;
  for (int step = 0; step < 3000; ++step) {
    now += static_cast<SimTime>(rng.NextBounded(40));
    const uint64_t op = rng.NextBounded(3);
    if (op == 1 && !assigned.empty()) {
      const size_t i = rng.NextBounded(assigned.size());
      const auto [worker, job] = assigned[i];
      assigned.erase(assigned.begin() + static_cast<std::ptrdiff_t>(i));
      slots.OnTaskStart(worker, job, now);
      plain.OnTaskStart(worker, now, estimate(job));
      running.emplace_back(worker, job);
    } else if (op == 2 && !running.empty()) {
      const size_t i = rng.NextBounded(running.size());
      const auto [worker, job] = running[i];
      running.erase(running.begin() + static_cast<std::ptrdiff_t>(i));
      slots.OnTaskFinish(worker, job, now);
      plain.OnTaskFinish(worker, now);
    } else {
      const auto job = static_cast<JobId>(rng.NextBounded(6));
      const WorkerId worker = slots.AssignTask(now, job, estimate(job));
      ASSERT_EQ(worker, plain.AssignTask(now, estimate(job))) << "step " << step;
      assigned.emplace_back(worker, job);
    }
  }
}

TEST(SlotWaitingTimeQueueTest, OutOfOrderStartsDischargeTheirOwnCharges) {
  // Two workers x 2 slots: lanes 0,1 on worker 0 and 2,3 on worker 1.
  const Cluster cluster(2, 2, UniformSlots(2));
  SlotWaitingTimeQueue queue(cluster, 2);
  const JobId a = 1;
  const JobId b = 2;
  const JobId c = 3;
  EXPECT_EQ(queue.AssignTask(0, a, 100), 0u);  // Lane 0.
  EXPECT_EQ(queue.AssignTask(0, b, 500), 0u);  // Lane 1.
  EXPECT_EQ(queue.AssignTask(0, c, 50), 1u);   // Lanes 2 and 3.
  EXPECT_EQ(queue.AssignTask(0, c, 50), 1u);
  // B starts first: it must discharge its own 500, not A's 100 (which would
  // underflow lane 0).
  queue.OnTaskStart(0, b, 0);
  queue.OnTaskStart(0, a, 0);
  queue.OnTaskFinish(0, a, 100);
  queue.OnTaskFinish(0, b, 100);
  // Both charges are gone and both lanes idle, so worker 0 (waiting 0) beats
  // worker 1 (backlog 50 per lane) for two tasks of 60; a leftover charge or
  // a lane left executing would send the second task to worker 1.
  EXPECT_EQ(queue.AssignTask(100, 4, 60), 0u);
  EXPECT_EQ(queue.AssignTask(100, 4, 60), 0u);
  EXPECT_EQ(queue.AssignTask(100, 4, 60), 1u);
}

TEST(SlotWaitingTimeQueueTest, FinishBeforeStartLeavesLaneIdle) {
  const Cluster cluster(2, 2, UniformSlots(1));
  SlotWaitingTimeQueue queue(cluster, 2);
  EXPECT_EQ(queue.AssignTask(0, 1, 100), 0u);
  EXPECT_EQ(queue.AssignTask(0, 2, 50), 1u);
  // The bus delivered job 1's finish ahead of its start.
  queue.OnTaskFinish(0, 1, 10);
  queue.OnTaskStart(0, 1, 20);
  // The replayed finish leaves worker 0 idle (waiting 0 < worker 1's 50); a
  // lane left executing would wait until t=120 and lose to worker 1.
  EXPECT_EQ(queue.AssignTask(30, 3, 10), 0u);
}

TEST(SlotWaitingTimeQueueTest, HeterogeneousFleetFillsBigWorkersLanes) {
  // Four workers, half upgraded to 4 slots: capacities 1,4,1,4. Equal
  // never-started tasks fill every lane once per round, so each worker
  // receives as many tasks per round as it has slots.
  SlotSpec spec;
  spec.slots_per_worker = 1;
  spec.big_worker_fraction = 0.5;
  spec.big_worker_slots = 4;
  const Cluster cluster(4, 4, spec);
  SlotWaitingTimeQueue queue(cluster, 4);
  std::vector<uint32_t> per_worker(4, 0);
  for (int i = 0; i < 2 * 10; ++i) {
    ++per_worker[queue.AssignTask(0, static_cast<JobId>(i), 100)];
  }
  for (WorkerId w = 0; w < 4; ++w) {
    EXPECT_EQ(per_worker[w], 2 * cluster.workers().Slots(w)) << "worker " << w;
  }
  EXPECT_EQ(cluster.workers().Slots(1), 4u);
}

// --- Probe placement -----------------------------------------------------------

TEST(ProbePlacementTest, DistinctWhenFitting) {
  Rng rng(3);
  const auto targets = ChooseProbeTargets(rng, 10, 100, 40);
  EXPECT_EQ(targets.size(), 40u);
  std::set<WorkerId> unique(targets.begin(), targets.end());
  EXPECT_EQ(unique.size(), 40u);
  for (const WorkerId w : targets) {
    EXPECT_GE(w, 10u);
    EXPECT_LT(w, 110u);
  }
}

TEST(ProbePlacementTest, SpreadsWholeRoundsWhenOverflowing) {
  // 25 probes over 10 workers: every worker gets 2, a distinct 5 get 3.
  Rng rng(5);
  const auto targets = ChooseProbeTargets(rng, 0, 10, 25);
  EXPECT_EQ(targets.size(), 25u);
  std::vector<int> counts(10, 0);
  for (const WorkerId w : targets) {
    ASSERT_LT(w, 10u);
    counts[w]++;
  }
  int threes = 0;
  for (const int c : counts) {
    EXPECT_GE(c, 2);
    EXPECT_LE(c, 3);
    threes += c == 3 ? 1 : 0;
  }
  EXPECT_EQ(threes, 5);
}

TEST(ProbePlacementTest, NeverFewerProbesThanRequested) {
  Rng rng(7);
  for (const uint32_t probes : {1u, 7u, 63u, 64u, 65u, 500u}) {
    EXPECT_EQ(ChooseProbeTargets(rng, 0, 64, probes).size(), probes);
  }
}

// --- StealingPolicy --------------------------------------------------------------

TEST(StealingPolicyTest, StealsFromGeneralPartitionVictim) {
  Cluster cluster(10, 8);  // Workers 8, 9 are the short partition.
  // Worker 3 has a blocked short behind a long.
  cluster.workers().Enqueue(3, QueueEntry::Task(1, 0, 1000, /*is_long=*/true));
  cluster.workers().Enqueue(3, QueueEntry::Probe(2, /*is_long=*/false));
  StealingPolicy policy(/*cap=*/10, /*seed=*/1);
  RunCounters counters;
  const auto stolen = policy.TrySteal(cluster, /*thief=*/9, &counters);
  ASSERT_EQ(stolen.size(), 1u);
  EXPECT_EQ(stolen[0].job, 2u);
  EXPECT_EQ(counters.steal_attempts, 1u);
  EXPECT_EQ(counters.steal_successes, 1u);
  EXPECT_EQ(counters.entries_stolen, 1u);
  // The cap bounds how many victims were contacted.
  EXPECT_LE(counters.steal_victim_probes, 10u);
}

TEST(StealingPolicyTest, NeverStealsFromShortPartition) {
  Cluster cluster(10, 5);
  // Only short-partition workers (5..9) have stealable-looking queues; they
  // are not eligible victims, so every attempt must fail.
  for (WorkerId w = 5; w < 10; ++w) {
    cluster.workers().Enqueue(w, QueueEntry::Task(1, 0, 1000, /*is_long=*/true));
    cluster.workers().Enqueue(w, QueueEntry::Probe(2, /*is_long=*/false));
  }
  StealingPolicy policy(/*cap=*/5, /*seed=*/2);
  RunCounters counters;
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(policy.TrySteal(cluster, /*thief=*/0, &counters).empty());
  }
}

TEST(StealingPolicyTest, ThiefNeverContactsItself) {
  // Single general worker: a general thief has no victims at all.
  Cluster cluster(3, 1);
  cluster.workers().Enqueue(0, QueueEntry::Task(1, 0, 1000, /*is_long=*/true));
  cluster.workers().Enqueue(0, QueueEntry::Probe(2, /*is_long=*/false));
  StealingPolicy policy(/*cap=*/10, /*seed=*/3);
  RunCounters counters;
  EXPECT_TRUE(policy.TrySteal(cluster, /*thief=*/0, &counters).empty());
  // A short-partition thief can steal from worker 0.
  EXPECT_EQ(policy.TrySteal(cluster, /*thief=*/2, &counters).size(), 1u);
}

TEST(StealingPolicyTest, CapZeroDisables) {
  Cluster cluster(4, 4);
  cluster.workers().Enqueue(0, QueueEntry::Task(1, 0, 1000, /*is_long=*/true));
  cluster.workers().Enqueue(0, QueueEntry::Probe(2, /*is_long=*/false));
  StealingPolicy policy(/*cap=*/0, /*seed=*/4);
  RunCounters counters;
  EXPECT_TRUE(policy.TrySteal(cluster, 3, &counters).empty());
  EXPECT_EQ(counters.steal_attempts, 0u);
}

TEST(StealingPolicyTest, CapOneContactsOneVictim) {
  Cluster cluster(100, 100);
  StealingPolicy policy(/*cap=*/1, /*seed=*/5);
  RunCounters counters;
  policy.TrySteal(cluster, 0, &counters);
  EXPECT_EQ(counters.steal_victim_probes, 1u);
}

TEST(StealingPolicyTest, FindsVictimThroughCap) {
  // One of 50 general workers holds stealable work; with cap 50 the policy
  // always finds it.
  Cluster cluster(50, 50);
  cluster.workers().Enqueue(17, QueueEntry::Task(1, 0, 1000, /*is_long=*/true));
  cluster.workers().Enqueue(17, QueueEntry::Probe(2, /*is_long=*/false));
  StealingPolicy policy(/*cap=*/50, /*seed=*/6);
  RunCounters counters;
  const auto stolen = policy.TrySteal(cluster, /*thief=*/0, &counters);
  EXPECT_EQ(stolen.size(), 1u);
}

TEST(StealingPolicyTest, DChoiceContactsMostLoadedVictimFirst) {
  // Load up every worker's queue with its own id's worth of entries; the
  // d-choice contact list must come back sorted by descending queue length,
  // so the first victim probed is always the sample's longest queue. The
  // random policy with the same seed draws the same sample in draw order.
  Cluster cluster(20, 20);
  for (WorkerId w = 0; w < 20; ++w) {
    for (WorkerId i = 0; i < w; ++i) {
      cluster.workers().Enqueue(w, QueueEntry::Probe(1, /*is_long=*/false));
    }
  }
  StealingPolicy random_policy(/*cap=*/5, /*seed=*/9);
  StealingPolicy dchoice_policy(/*cap=*/5, /*seed=*/9,
                                StealingPolicy::VictimSelection::kDChoice);
  std::vector<WorkerId> random_victims;
  std::vector<WorkerId> dchoice_victims;
  random_policy.ChooseVictimsInto(cluster, /*thief=*/0, &random_victims);
  dchoice_policy.ChooseVictimsInto(cluster, /*thief=*/0, &dchoice_victims);
  ASSERT_EQ(random_victims.size(), 5u);
  // Same sample (same seed), different order: d-choice is the random sample
  // sorted by descending queue length, which here means descending id.
  std::vector<WorkerId> sorted = random_victims;
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  EXPECT_EQ(dchoice_victims, sorted);
  for (size_t i = 1; i < dchoice_victims.size(); ++i) {
    EXPECT_GE(cluster.workers().QueueSize(dchoice_victims[i - 1]),
              cluster.workers().QueueSize(dchoice_victims[i]));
  }
}

// A cluster of 200 workers (150 general) in `spec`'s layout with random
// queues and random long work in flight; job ids are unique per entry.
Cluster RandomStealCluster(Rng& rng, const SlotSpec& spec) {
  Cluster cluster(200, 150, spec);
  WorkerStore& store = cluster.workers();
  JobId job = 0;
  for (WorkerId w = 0; w < cluster.NumWorkers(); ++w) {
    if (rng.Bernoulli(0.3)) {
      store.BeginExecute(w, 0, QueueEntry::Task(job++, 0, 100, rng.Bernoulli(0.5)));
    }
    const uint64_t depth = rng.NextBounded(5);
    for (uint64_t i = 0; i < depth; ++i) {
      const bool is_long = rng.Bernoulli(0.3);
      store.Enqueue(w, rng.Bernoulli(0.5) ? QueueEntry::Probe(job++, is_long)
                                          : QueueEntry::Task(job++, 0, 100, is_long));
    }
  }
  return cluster;
}

std::vector<JobId> QueuedJobs(const Cluster& cluster, WorkerId w) {
  std::vector<JobId> jobs;
  for (size_t i = 0; i < cluster.workers().QueueSize(w); ++i) {
    jobs.push_back(cluster.workers().QueueAt(w, i).job);
  }
  return jobs;
}

TEST(StealingPolicyTest, LazyStealFollowsChosenVictims) {
  // TryStealInto walks its victims lazily and stops at the first steal. It
  // must contact exactly ChooseVictimsInto's victims, in that order, up to
  // the first one holding a stealable group, and steal that group — checked
  // against a replay of the contact list on a copy of the same cluster.
  const SlotSpec layouts[] = {SlotSpec{1, 0.0, 0}, SlotSpec{4, 0.0, 0}, SlotSpec{1, 0.3, 4}};
  for (const SlotSpec& spec : layouts) {
    for (const auto selection :
         {StealingPolicy::VictimSelection::kRandom, StealingPolicy::VictimSelection::kDChoice}) {
      Rng rng(17);
      StealingPolicy chooser(/*cap=*/10, /*seed=*/23, selection);
      StealingPolicy stealer(/*cap=*/10, /*seed=*/23, selection);
      RunCounters expected;
      RunCounters actual;
      for (int trial = 0; trial < 200; ++trial) {
        const Cluster cluster = RandomStealCluster(rng, spec);
        // Alternate thieves inside and outside the general partition.
        const auto thief = static_cast<WorkerId>(trial % 2 == 0 ? rng.NextBounded(150)
                                                                : 150 + rng.NextBounded(50));
        std::vector<WorkerId> victims;
        chooser.ChooseVictimsInto(cluster, thief, &victims);
        ASSERT_FALSE(victims.empty());
        EXPECT_EQ(std::set<WorkerId>(victims.begin(), victims.end()).size(), victims.size());

        Cluster replay = cluster;
        expected.steal_attempts++;
        for (const WorkerId victim : victims) {
          ASSERT_NE(victim, thief);
          ASSERT_TRUE(cluster.InGeneralPartition(victim));
          expected.steal_victim_probes++;
          const std::vector<QueueEntry> group = replay.workers().ExtractStealableGroup(victim);
          if (!group.empty()) {
            for (const QueueEntry& entry : group) {
              replay.workers().Enqueue(thief, entry);
            }
            expected.steal_successes++;
            expected.entries_stolen += group.size();
            break;
          }
        }

        Cluster stolen = cluster;
        stealer.TryStealInto(stolen, thief, &actual);
        for (WorkerId w = 0; w < cluster.NumWorkers(); ++w) {
          ASSERT_EQ(QueuedJobs(stolen, w), QueuedJobs(replay, w)) << "worker " << w;
        }
        ASSERT_EQ(actual.steal_attempts, expected.steal_attempts);
        ASSERT_EQ(actual.steal_victim_probes, expected.steal_victim_probes);
        ASSERT_EQ(actual.steal_successes, expected.steal_successes);
        ASSERT_EQ(actual.entries_stolen, expected.entries_stolen);
      }
      // The random states must exercise both outcomes.
      EXPECT_GT(actual.steal_successes, 0u);
      EXPECT_LT(actual.steal_successes, actual.steal_attempts);
    }
  }
}

}  // namespace
}  // namespace hawk

// google-benchmark microbenchmarks for the hot data structures: the event
// queue, the centralized waiting-time queue, the steal-group scan, the steal
// victim sample, one whole steal attempt, and trace generation throughput.
// These bound the simulator's events/second and the per-decision cost a
// production scheduler would pay.
#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/cluster/worker_store.h"
#include "src/common/random.h"
#include "src/core/hawk_scheduler.h"
#include "src/core/stealing_policy.h"
#include "src/core/waiting_time_queue.h"
#include "src/scheduler/driver.h"
#include "src/sim/event_queue.h"
#include "src/workload/arrivals.h"
#include "src/workload/google_trace.h"
#include "src/workload/scaling.h"

namespace {

void BM_EventQueuePushPop(benchmark::State& state) {
  const int64_t batch = state.range(0);
  hawk::Rng rng(1);
  for (auto _ : state) {
    hawk::sim::EventQueue<uint64_t> queue;
    for (int64_t i = 0; i < batch; ++i) {
      queue.Push(static_cast<hawk::SimTime>(rng.NextBounded(1'000'000)),
                 static_cast<uint64_t>(i));
    }
    while (!queue.Empty()) {
      benchmark::DoNotOptimize(queue.Pop());
    }
  }
  state.SetItemsProcessed(state.iterations() * batch * 2);
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1024)->Arg(65536);

void BM_WaitingTimeQueueAssign(benchmark::State& state) {
  const auto workers = static_cast<uint32_t>(state.range(0));
  hawk::WaitingTimeQueue queue(workers);
  hawk::Rng rng(2);
  hawk::SimTime now = 0;
  for (auto _ : state) {
    now += 1000;
    const hawk::WorkerId w =
        queue.AssignTask(now, static_cast<hawk::DurationUs>(rng.NextBounded(5'000'000)));
    benchmark::DoNotOptimize(w);
    // Keep the backlog bounded: immediately start and finish the task.
    queue.OnTaskFinish(w, now + 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WaitingTimeQueueAssign)->Arg(1500)->Arg(15000);

void BM_StealScan(benchmark::State& state) {
  const int64_t queue_depth = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    hawk::WorkerStore store(1);
    // Worst-ish case: long entry buried mid-queue behind shorts.
    for (int64_t i = 0; i < queue_depth / 2; ++i) {
      store.Enqueue(0, hawk::QueueEntry::Probe(static_cast<hawk::JobId>(i), /*is_long=*/false));
    }
    store.Enqueue(0, hawk::QueueEntry::Task(9999, 0, 1000, /*is_long=*/true));
    for (int64_t i = 0; i < queue_depth / 2; ++i) {
      store.Enqueue(0, hawk::QueueEntry::Probe(static_cast<hawk::JobId>(i), /*is_long=*/false));
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(store.ExtractStealableGroup(0));
  }
  state.SetItemsProcessed(state.iterations() * queue_depth);
}
BENCHMARK(BM_StealScan)->Arg(16)->Arg(256);

// One steal attempt's victim sample: (pool, cap). (1499, 10) is a google-15k
// thief outside the general partition (sparse Floyd draw); (28, 10) is the
// prototype's 8 x 4-slot layout minus the thief's own slots (dense draw).
void BM_SampleWithoutReplacement(benchmark::State& state) {
  const auto n = static_cast<uint32_t>(state.range(0));
  const auto k = static_cast<uint32_t>(state.range(1));
  hawk::Rng rng(3);
  std::vector<uint32_t> out;
  for (auto _ : state) {
    rng.SampleWithoutReplacement(n, k, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SampleWithoutReplacement)->Args({1499, 10})->Args({28, 10});

// A Hawk policy that copies the cluster at every kEvery-th steal attempt and
// records the thieves of the kThieves attempts that follow each copy.
class SnapshotHawkPolicy : public hawk::HawkPolicy {
 public:
  static constexpr uint32_t kEvery = 1'000;
  static constexpr uint32_t kThieves = 16;

  struct Snapshot {
    hawk::Cluster cluster;
    std::vector<hawk::WorkerId> thieves;
  };

  using hawk::HawkPolicy::HawkPolicy;

  void OnWorkerIdle(hawk::WorkerId worker) override {
    if (calls_ % kEvery == 0) {
      snapshots.push_back(Snapshot{ctx_->GetCluster(), {}});
    }
    if (calls_ % kEvery < kThieves) {
      snapshots.back().thieves.push_back(worker);
    }
    ++calls_;
    hawk::HawkPolicy::OnWorkerIdle(worker);
  }

  std::vector<Snapshot> snapshots;

 private:
  uint32_t calls_ = 0;
};

// Cluster states sampled through one google-15k run (1.5k workers, a
// 3000-job Google trace at 0.93 offered load, prepared as perfbench does).
const std::vector<SnapshotHawkPolicy::Snapshot>& Google15kSnapshots() {
  static const std::vector<SnapshotHawkPolicy::Snapshot> snapshots = [] {
    constexpr uint32_t kWorkers = 1'500;
    hawk::GoogleTraceParams params;
    params.num_jobs = 3'000;
    params.seed = 1;
    hawk::Trace trace = hawk::CapTasksPreserveWork(hawk::GenerateGoogleTrace(params), kWorkers / 2);
    hawk::Rng arrivals(params.seed ^ 0xA5A5A5A5ULL);
    hawk::AssignPoissonArrivals(
        &trace, hawk::MeanInterarrivalForUtilization(trace, 0.93, kWorkers), &arrivals);
    const hawk::HawkConfig config = hawk::bench::GoogleConfig(kWorkers, params.seed);
    SnapshotHawkPolicy policy(config);
    hawk::SimulationDriver driver(&trace, config, config.GeneralCount(), &policy);
    driver.Run();
    return std::move(policy.snapshots);
  }();
  return snapshots;
}

// One steal attempt (paper §3.6, cap 10) against cluster states of a
// google-15k run, by the thieves that followed each state in the run. Each
// batch restores one state, untimed, and replays its thieves.
void BM_StealAttempt(benchmark::State& state) {
  const std::vector<SnapshotHawkPolicy::Snapshot>& snapshots = Google15kSnapshots();
  hawk::StealingPolicy policy(/*cap=*/10, /*seed=*/4);
  hawk::RunCounters counters;
  // Restored by copy-assignment, which reuses the queues' storage, so
  // neither allocation nor release is timed.
  hawk::Cluster cluster = snapshots.front().cluster;
  size_t next = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const SnapshotHawkPolicy::Snapshot& snapshot = snapshots[next++ % snapshots.size()];
    cluster = snapshot.cluster;
    state.ResumeTiming();
    for (const hawk::WorkerId thief : snapshot.thieves) {
      benchmark::DoNotOptimize(policy.TryStealInto(cluster, thief, &counters));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(counters.steal_attempts));
  state.counters["states"] = static_cast<double>(snapshots.size());
  state.counters["success_ratio"] = static_cast<double>(counters.steal_successes) /
                                    static_cast<double>(counters.steal_attempts);
  state.counters["victims_per_attempt"] = static_cast<double>(counters.steal_victim_probes) /
                                          static_cast<double>(counters.steal_attempts);
}
BENCHMARK(BM_StealAttempt);

void BM_GoogleTraceGeneration(benchmark::State& state) {
  hawk::GoogleTraceParams params;
  params.num_jobs = static_cast<uint32_t>(state.range(0));
  uint64_t seed = 1;
  for (auto _ : state) {
    params.seed = seed++;
    benchmark::DoNotOptimize(hawk::GenerateGoogleTrace(params));
  }
  state.SetItemsProcessed(state.iterations() * params.num_jobs);
}
BENCHMARK(BM_GoogleTraceGeneration)->Arg(1000);

}  // namespace

BENCHMARK_MAIN();

// End-to-end simulation-driver throughput: events per second for every
// scheduler on the fig-5-style Google-trace workload, at the paper's 15k-node
// scale, at 100k nodes, and at a 1M-worker scale point exercising the
// struct-of-arrays WorkerStore (all paper sizes divided by the usual 1/10
// simulation scale — the 1M-worker rows simulate 10M paper nodes). This is
// the repo's perf-trajectory baseline: scripts/bench.sh runs it and emits
// BENCH_driver.json so regressions show up as a number, not a feeling.
//
// The trace for each cluster size is generated once and shared across
// iterations and schedulers; only SimulationDriver::Run is timed.
#include <benchmark/benchmark.h>

#include <map>
#include <utility>

#include "bench/bench_util.h"
#include "src/scheduler/experiment.h"

namespace {

struct Workload {
  hawk::Trace trace;
  hawk::HawkConfig config;
};

// Jobs are scaled down with cluster size so the 100k-node point stays in
// benchmark territory; the offered load is calibrated to 0.93 in both cases.
const Workload& SharedWorkload(uint32_t paper_nodes, uint32_t jobs) {
  static std::map<std::pair<uint32_t, uint32_t>, Workload>* cache =
      new std::map<std::pair<uint32_t, uint32_t>, Workload>();
  auto [it, inserted] = cache->try_emplace({paper_nodes, jobs});
  if (inserted) {
    const uint32_t workers = hawk::bench::SimSize(paper_nodes);
    it->second.trace = hawk::bench::GoogleSweepTrace(jobs, /*seed=*/1, workers, workers,
                                                     /*target_util=*/0.93);
    it->second.config = hawk::bench::GoogleConfig(workers, /*seed=*/1);
  }
  return it->second;
}

// Times RunExperiment and records the rate counters shared by every variant
// below. "events/s" is the paper-event rate (bench_util.h PaperEvents);
// "simevents/s" is the driver's internal event-loop rate, which also counts
// bookkeeping events.
void TimeRuns(benchmark::State& state, const hawk::Trace& trace, const hawk::HawkConfig& config,
              const char* scheduler) {
  uint64_t pevents = 0;
  uint64_t sim_events = 0;
  uint64_t tasks = 0;
  for (auto _ : state) {
    const hawk::RunResult result = hawk::RunExperiment(trace, config, scheduler);
    pevents += hawk::bench::PaperEvents(result.counters);
    sim_events += result.counters.events;
    tasks += result.counters.tasks_launched;
    benchmark::DoNotOptimize(result.makespan_us);
  }
  state.counters["events/s"] =
      benchmark::Counter(static_cast<double>(pevents), benchmark::Counter::kIsRate);
  state.counters["simevents/s"] =
      benchmark::Counter(static_cast<double>(sim_events), benchmark::Counter::kIsRate);
  state.counters["tasks/s"] =
      benchmark::Counter(static_cast<double>(tasks), benchmark::Counter::kIsRate);
  state.SetItemsProcessed(static_cast<int64_t>(pevents));
}

void BM_DriverThroughput(benchmark::State& state, const char* scheduler,
                         uint32_t paper_nodes, uint32_t jobs) {
  const Workload& workload = SharedWorkload(paper_nodes, jobs);
  TimeRuns(state, workload.trace, workload.config, scheduler);
}

#define HAWK_DRIVER_BENCH(kind, scheduler, paper_nodes, jobs)                           \
  BENCHMARK_CAPTURE(BM_DriverThroughput, kind##_##paper_nodes##nodes, scheduler,        \
                    paper_nodes, jobs)                                                  \
      ->Unit(benchmark::kMillisecond)

// Paper scale: 15k nodes (fig. 5 operating point).
HAWK_DRIVER_BENCH(Sparrow, "sparrow", 15000, 3000);
HAWK_DRIVER_BENCH(Centralized, "centralized", 15000, 3000);
HAWK_DRIVER_BENCH(Hawk, "hawk", 15000, 3000);
HAWK_DRIVER_BENCH(Split, "split", 15000, 3000);

// Beyond the paper: 100k nodes.
HAWK_DRIVER_BENCH(Sparrow, "sparrow", 100000, 1000);
HAWK_DRIVER_BENCH(Centralized, "centralized", 100000, 1000);
HAWK_DRIVER_BENCH(Hawk, "hawk", 100000, 1000);
HAWK_DRIVER_BENCH(Split, "split", 100000, 1000);

// Million-worker scale point (10M paper nodes / 10): dominated by the
// worker-state memory layout — the reason WorkerStore is struct-of-arrays.
HAWK_DRIVER_BENCH(Sparrow, "sparrow", 10000000, 1000);
HAWK_DRIVER_BENCH(Hawk, "hawk", 10000000, 1000);

// Multi-slot variant: same 100k-node workload on 25k 4-slot workers (equal
// slot capacity, quarter the worker-state footprint).
void BM_DriverThroughputMultiSlot(benchmark::State& state, const char* scheduler,
                                  uint32_t paper_nodes, uint32_t slots, uint32_t jobs) {
  const Workload& workload = SharedWorkload(paper_nodes, jobs);
  hawk::HawkConfig config = workload.config;
  config.num_workers = hawk::bench::SimSize(paper_nodes) / slots;
  config.slots_per_worker = slots;
  TimeRuns(state, workload.trace, config, scheduler);
}

BENCHMARK_CAPTURE(BM_DriverThroughputMultiSlot, Hawk_100000nodes_4slots, "hawk", 100000, 4,
                  1000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

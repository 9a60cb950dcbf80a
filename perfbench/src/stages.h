// The measured stages of a run. Each stage checks every result it produces
// through the correctness gate (checks.h) and appends failure lines.
#ifndef PERFBENCH_STAGES_H_
#define PERFBENCH_STAGES_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/cluster/results.h"
#include "traced_policy.h"
#include "workloads.h"

namespace perfbench {

// Tally of checked operations: simulator runs and prototype jobs.
struct Gate {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
};

struct SchedulerTotals {
  // Host seconds inside RunExperiment and paper events, per timed round
  // (one round replays every input once).
  std::vector<double> round_seconds;
  std::vector<double> round_paper_events;
  hawk::RunCounters counters;  // Summed over the traced repetitions.
  uint64_t traced_runs = 0;
  double traced_seconds = 0.0;    // Wall time of the traced repetitions.
  double untraced_seconds = 0.0;  // Wall time of their untraced twins.
};

struct SimStageResult {
  SchedulerTotals hawk;
  SchedulerTotals sparrow;
  // Hawk's counters over the warm-up round (every input once).
  hawk::RunCounters hawk_first_round;
  // Hawk short-job p90 runtime / Sparrow's, per input (Fig. 5 headline).
  std::vector<double> short_p90_ratios;
  // Largest |RunExperiment wall - traced self time| / wall over traced runs.
  double max_accounting_error = 0.0;
  // Peak-RSS growth over the first traced driver's construction.
  int64_t rss_growth_first_construct = 0;
};

// Replays every input with Hawk and Sparrow, alternating, for `budget_s`
// seconds after one warm-up round (at least three timed rounds). With
// `hawk_sink`/`sparrow_sink` set, every repetition is run twice — through
// traced/<name> reporting to the sink, then untraced — and the two digests
// must be equal.
SimStageResult RunSimStage(const std::vector<SimInput>& inputs, double budget_s,
                           TraceSink* hawk_sink, TraceSink* sparrow_sink, Gate* gate);

struct ProtoRun {
  hawk::RunResult result;
  std::vector<double> short_delay_ms;  // Finish - due submit - longest task.
  std::vector<double> submit_late_ms;  // Actual submit - due submit.
  double cpu_s = 0.0;                  // Process CPU across RunPrototype.
  double wall_s = 0.0;
  double drain_s = 0.0;  // Wall time after the last job was due.
};

ProtoRun RunProtoStage(const ProtoInput& input, Gate* gate);

struct RpcStageResult {
  std::vector<double> deliver_late_us;  // Delivery time - (send + latency).
  std::vector<double> send_ns;          // Cost of one MessageBus::Send call.
};

// Ping-pong between two endpoints of a standalone MessageBus.
RpcStageResult RunRpcPingPong(std::chrono::microseconds latency, uint32_t delivery_threads,
                              uint32_t round_trips);

}  // namespace perfbench

#endif  // PERFBENCH_STAGES_H_

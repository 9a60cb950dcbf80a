// The benchmark's workloads and the inputs they are built from.
//
// Every workload has two stages, so that every end-to-end metric is
// measured on every workload:
//   - a simulator stage: Hawk and Sparrow replayed through RunExperiment on
//     `traces` traces built from the seed (the Google-trace generator at
//     0.93 offered load, or, for proto-open, the prototype's own trace — the
//     paper's §4.10 impl-vs-sim pairing);
//   - a prototype stage: runtime::RunPrototype with Hawk on a small
//     multi-slot cluster, fed an open-loop synthetic trace whose arrivals
//     span `proto_share` of the run.
// All trace and config seeds derive from the one --seed argument.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/hawk_config.h"
#include "src/runtime/prototype_cluster.h"
#include "src/workload/trace.h"

namespace perfbench {

struct WorkloadSpec {
  const char* name;
  // Simulator stage: Google trace on `workers` workers (0: simulate the
  // prototype's trace on the prototype's cluster instead).
  uint32_t workers;
  uint32_t jobs;    // Jobs per Google trace.
  uint32_t traces;  // Google traces per run; rates aggregate over all of them.
  bool faults;      // Crashes, loss + jitter, stragglers and speculation.
  double sim_share;    // Share of --seconds spent on simulator repetitions.
  double proto_share;  // Share of --seconds the prototype's arrivals span.
};

const WorkloadSpec* FindWorkload(const std::string& name);
std::string WorkloadNames();

struct SimInput {
  hawk::Trace trace;
  hawk::HawkConfig config;
};

struct ProtoInput {
  hawk::Trace trace;
  hawk::runtime::PrototypeConfig config;
};

// Set-up cost split by phase: trace generation, and preparation (task cap,
// arrival assignment, config validation).
struct SetupTiming {
  double generate_s = 0.0;
  double prepare_s = 0.0;
};

// The prototype stage's input: mostly short jobs of a few equal tasks plus a
// small share of long jobs (hint-classified, so Hawk routes them to the
// centralized backend), with Poisson arrivals at half the slot capacity over
// `arrival_window_s` seconds.
ProtoInput BuildProtoInput(uint64_t seed, double arrival_window_s, SetupTiming* timing);

// The simulator stage's inputs (`proto` is the already-built prototype
// input, simulated by the workload that has no Google trace).
std::vector<SimInput> BuildSimInputs(const WorkloadSpec& spec, uint64_t seed,
                                     const ProtoInput& proto, SetupTiming* timing);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

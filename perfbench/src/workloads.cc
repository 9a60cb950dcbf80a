#include "workloads.h"

#include <cmath>
#include <utility>

#include "bench/bench_util.h"
#include "host.h"
#include "src/common/check.h"
#include "src/common/random.h"
#include "src/workload/arrivals.h"
#include "src/workload/google_trace.h"
#include "src/workload/scaling.h"

namespace perfbench {
namespace {

// google-15k is the paper's Fig. 5 operating point (15k nodes / 10);
// google-1m simulates 10M paper nodes. Job counts follow the repository's
// driver-throughput bench. On the simulated workloads the prototype stage
// only has to measure its CPU cost per job, which holds steady over a few
// thousand jobs.
const WorkloadSpec kWorkloads[] = {
    {"google-15k", 1'500, 3'000, 4, false, 0.75, 0.20},
    {"google-1m", 1'000'000, 1'000, 4, false, 0.75, 0.20},
    {"faults-15k", 1'500, 3'000, 4, true, 0.75, 0.20},
    {"proto-open", 0, 0, 0, false, 0.35, 0.60},
};

constexpr double kOfferedLoad = 0.93;

// Derives the seed of one input stream from the run's --seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  hawk::Rng rng(seed * 0x9E3779B97F4A7C15ULL + stream);
  return rng.Next();
}

// Prototype cluster and synthetic job mix. Durations are wall-clock
// microseconds (the prototype's tasks are sleeps).
constexpr uint32_t kProtoNodes = 8;
constexpr uint32_t kProtoSlots = 4;
constexpr uint32_t kProtoFrontends = 4;
constexpr uint32_t kProtoTasksPerJob = 4;
constexpr hawk::DurationUs kProtoShortTaskUs = 8'000;
constexpr hawk::DurationUs kProtoLongTaskUs = 80'000;
constexpr double kProtoLongShare = 0.03;
constexpr double kProtoLoad = 0.5;

hawk::HawkConfig FaultConfig(hawk::HawkConfig config, uint64_t seed) {
  // Per worker-second rates, well under 1 / longest task so crashed work
  // terminates; together they lose or re-run a few percent of tasks.
  config.worker_crash_rate = 1e-5;
  config.worker_downtime_us = hawk::SecondsToUs(60.0);
  config.message_loss_rate = 0.02;
  config.message_delay_jitter_us = 2'000;
  config.straggler_rate = 0.02;
  config.speculation_threshold = 2.0;
  config.fault_seed = DeriveSeed(seed, 0xFA17);
  return config;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) {
      return &spec;
    }
  }
  return nullptr;
}

std::string WorkloadNames() {
  std::string names;
  for (const WorkloadSpec& spec : kWorkloads) {
    names += names.empty() ? "" : ", ";
    names += spec.name;
  }
  return names;
}

ProtoInput BuildProtoInput(uint64_t seed, double arrival_window_s, SetupTiming* timing) {
  ProtoInput input;
  double start = NowSeconds();
  const double mean_job_work_us =
      static_cast<double>(kProtoTasksPerJob) *
      ((1.0 - kProtoLongShare) * static_cast<double>(kProtoShortTaskUs) +
       kProtoLongShare * static_cast<double>(kProtoLongTaskUs));
  const double jobs_per_s =
      kProtoLoad * kProtoNodes * kProtoSlots * 1e6 / mean_job_work_us;
  const auto num_jobs =
      static_cast<uint32_t>(std::max(1.0, std::ceil(jobs_per_s * arrival_window_s)));
  hawk::Rng mix(DeriveSeed(seed, 0x9807));
  std::vector<hawk::Job> jobs(num_jobs);
  for (hawk::Job& job : jobs) {
    job.long_hint = mix.Bernoulli(kProtoLongShare);
    job.task_durations.assign(kProtoTasksPerJob,
                              job.long_hint ? kProtoLongTaskUs : kProtoShortTaskUs);
  }
  input.trace = hawk::Trace(std::move(jobs));
  timing->generate_s += NowSeconds() - start;

  start = NowSeconds();
  hawk::Rng arrivals(DeriveSeed(seed, 0xA771));
  hawk::AssignPoissonArrivals(
      &input.trace,
      hawk::MeanInterarrivalForUtilization(input.trace, kProtoLoad, kProtoNodes * kProtoSlots),
      &arrivals);
  // Stretch the arrival times so the last job is due exactly at the window's
  // end: the realized rate is then the target rate, and only the burstiness
  // varies with the seed (a run's queueing tail is very sensitive to load).
  const auto span_us = static_cast<double>(std::max<hawk::SimTime>(1, input.trace.SpanUs()));
  const double stretch = arrival_window_s * 1e6 / span_us;
  for (hawk::Job& job : *input.trace.mutable_jobs()) {
    job.submit_time = std::llround(static_cast<double>(job.submit_time) * stretch);
  }
  hawk::runtime::PrototypeConfig& config = input.config;
  config.scheduler = "hawk";
  config.num_frontends = kProtoFrontends;
  config.timeout = std::chrono::milliseconds(60'000);
  config.hawk.num_workers = kProtoNodes;
  config.hawk.slots_per_worker = kProtoSlots;
  config.hawk.classify_mode = hawk::ClassifyMode::kHint;
  config.hawk.seed = DeriveSeed(seed, 0xC0F1);
  const hawk::Status valid = config.Validate();
  HAWK_CHECK(valid.ok()) << valid.message();
  timing->prepare_s += NowSeconds() - start;
  return input;
}

std::vector<SimInput> BuildSimInputs(const WorkloadSpec& spec, uint64_t seed,
                                     const ProtoInput& proto, SetupTiming* timing) {
  std::vector<SimInput> inputs;
  if (spec.workers == 0) {
    inputs.push_back(SimInput{proto.trace, proto.config.hawk});
    return inputs;
  }
  for (uint32_t k = 0; k < spec.traces; ++k) {
    const uint64_t trace_seed = DeriveSeed(seed, k);
    double start = NowSeconds();
    hawk::GoogleTraceParams params;
    params.num_jobs = spec.jobs;
    params.seed = trace_seed;
    hawk::Trace trace = hawk::GenerateGoogleTrace(params);
    timing->generate_s += NowSeconds() - start;

    // The repository's sweep preparation (bench::PrepareSweepTrace), timed
    // apart from generation: 2t probes must fit, so tasks per job are capped
    // at half the cluster, then Poisson arrivals give the offered load.
    start = NowSeconds();
    trace = hawk::CapTasksPreserveWork(trace, spec.workers / 2);
    hawk::Rng arrivals(trace_seed ^ 0xA5A5A5A5ULL);
    hawk::AssignPoissonArrivals(
        &trace, hawk::MeanInterarrivalForUtilization(trace, kOfferedLoad, spec.workers),
        &arrivals);
    hawk::HawkConfig config = hawk::bench::GoogleConfig(spec.workers, trace_seed);
    if (spec.faults) {
      config = FaultConfig(config, trace_seed);
    }
    const hawk::Status valid = config.Validate();
    HAWK_CHECK(valid.ok()) << valid.message();
    timing->prepare_s += NowSeconds() - start;
    inputs.push_back(SimInput{std::move(trace), config});
  }
  return inputs;
}

}  // namespace perfbench

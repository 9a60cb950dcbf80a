// Shared setup for the experiment benches (bench_fig*/bench_table*).
//
// Scaling convention (DESIGN.md §2): simulated cluster sizes are the paper's
// divided by 10 and traces have thousands of jobs instead of ~506k; rows are
// labelled with the paper-equivalent sizes. HAWK_BENCH_SCALE (env var or
// --scale flag) multiplies the default job counts for bigger runs.
#ifndef HAWK_BENCH_BENCH_UTIL_H_
#define HAWK_BENCH_BENCH_UTIL_H_

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>

#include "src/cluster/results.h"
#include "src/common/check.h"
#include "src/common/flags.h"
#include "src/common/status.h"
#include "src/common/random.h"
#include "src/core/hawk_config.h"
#include "src/workload/arrivals.h"
#include "src/workload/cluster_workloads.h"
#include "src/workload/google_trace.h"
#include "src/workload/scaling.h"
#include "src/workload/trace.h"

namespace hawk {
namespace bench {

// Paper cluster size (in nodes) -> simulated size. The simulation runs the
// paper's clusters at 1/10 scale.
inline constexpr uint32_t kClusterScaleDivisor = 10;

inline uint32_t SimSize(uint32_t paper_nodes) { return paper_nodes / kClusterScaleDivisor; }

inline double BenchScale(const Flags& flags) {
  double env_scale = 1.0;
  if (const char* env = std::getenv("HAWK_BENCH_SCALE"); env != nullptr && *env != '\0') {
    // Strict parse: a malformed value must fail loudly, not silently run the
    // default-scale configuration (std::atof would quietly yield 0).
    char* end = nullptr;
    env_scale = std::strtod(env, &end);
    while (end != nullptr && std::isspace(static_cast<unsigned char>(*end))) {
      ++end;
    }
    HAWK_CHECK(end != nullptr && *end == '\0' && end != env)
        << "HAWK_BENCH_SCALE is not a number: \"" << env << "\"";
    HAWK_CHECK_GT(env_scale, 0.0) << "HAWK_BENCH_SCALE must be > 0, got \"" << env << "\"";
  }
  return flags.GetDouble("scale", env_scale);
}

inline uint32_t ScaledJobs(const Flags& flags, uint32_t default_jobs) {
  const auto jobs = static_cast<uint32_t>(flags.GetInt(
      "jobs", static_cast<int64_t>(default_jobs * BenchScale(flags))));
  return jobs > 0 ? jobs : 1;
}

// Builds a trace ready for a cluster-size sweep: tasks-per-job capped for the
// smallest cluster (2t probes must fit; the paper applies the same transform
// for its prototype, §4.1) and Poisson arrivals calibrated once so that the
// *reference* cluster size sees `target_util` offered load. Larger clusters
// in the sweep are then progressively less loaded, smaller ones overloaded —
// the paper's load knob.
inline Trace PrepareSweepTrace(Trace trace, uint64_t seed, uint32_t min_workers,
                               uint32_t ref_workers, double target_util) {
  trace = CapTasksPreserveWork(trace, min_workers / 2);
  Rng rng(seed ^ 0xA5A5A5A5ULL);
  const DurationUs interarrival =
      MeanInterarrivalForUtilization(trace, target_util, ref_workers);
  AssignPoissonArrivals(&trace, interarrival, &rng);
  return trace;
}

inline Trace GoogleSweepTrace(uint32_t num_jobs, uint64_t seed, uint32_t min_workers,
                              uint32_t ref_workers, double target_util = 0.93) {
  GoogleTraceParams params;
  params.num_jobs = num_jobs;
  params.seed = seed;
  return PrepareSweepTrace(GenerateGoogleTrace(params), seed, min_workers, ref_workers,
                           target_util);
}

// Default Google-trace experiment configuration (paper §4.1 parameters).
inline HawkConfig GoogleConfig(uint32_t num_workers, uint64_t seed = 42) {
  HawkConfig config;
  config.num_workers = num_workers;
  config.short_partition_fraction = 0.17;  // 17% for the Google trace.
  config.cutoff_us = SecondsToUs(1129.0);
  config.classify_mode = ClassifyMode::kCutoff;
  config.seed = seed;
  return config;
}

// Event count for throughput rates: the paper-level control-plane events —
// job arrivals, probe placements, task placements (centralized lane), and
// one start plus one finish per launched task. Derived from the semantic
// RunCounters, which the golden digests pin; `counters.events` by contrast
// tallies the driver's internal bookkeeping too (utilization samples, fault
// ticks, message deliveries), so it moves whenever the event plumbing does.
// Rates built on this are comparable across rows and across commits.
inline uint64_t PaperEvents(const RunCounters& c) {
  return c.jobs + c.probes_placed + c.central_tasks_placed + 2 * c.tasks_launched;
}

// Writes a JSON array of `count` objects to `path`; `row_text(i)` returns
// the i-th object ("{...}") without indentation, comma or newline. Shared by
// the ablation benches' --json exporters so the array scaffolding (open and
// write-failure checks, comma discipline) lives in one place.
inline Status WriteJsonRows(const std::string& path, size_t count,
                            const std::function<std::string(size_t)>& row_text) {
  std::ofstream out(path);
  if (!out) {
    return Status::Error("cannot open for writing: " + path);
  }
  out << "[\n";
  for (size_t i = 0; i < count; ++i) {
    out << "  " << row_text(i) << (i + 1 < count ? "," : "") << "\n";
  }
  out << "]\n";
  if (!out) {
    return Status::Error("write failed: " + path);
  }
  return Status::Ok();
}

inline void PrintHeader(const std::string& title) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("==============================================================\n");
}

}  // namespace bench
}  // namespace hawk

#endif  // HAWK_BENCH_BENCH_UTIL_H_

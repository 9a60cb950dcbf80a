// Ablation (beyond the paper): power-of-d-choices probing at scale.
//
// "The Power of d Choices in Scheduling for Data Centers with Heterogeneous
// Servers" (PAPERS.md) studies how the number of probes per task changes
// placement quality. Hawk fixes d = 2 (§4.1); this sweep varies the probe
// ratio d over {1, 2, 4, 8} for both Sparrow (all jobs probed) and Hawk
// (short jobs only) across cluster sizes — the first scenario added as a
// single SweepSpec declaration on the experiment API rather than hand-rolled
// grid loops. The paper's own probe-ratio choice ("two is the best probe
// ratio", §4.1) is the --d=1,2,3,4 --paper-sizes=10000,15000 slice: its
// 15000-node rows are the 15k-node operating point.
//
// scripts/bench.sh runs this with --json=BENCH_sweep.json so the sweep
// becomes part of the repo's tracked benchmark artifacts; --csv=PATH emits
// the same grid through the metrics CSV exporter.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/metrics/csv_export.h"
#include "src/metrics/report.h"
#include "src/scheduler/experiment.h"

namespace {

hawk::Status WriteSweepJson(const std::string& path,
                            const std::vector<hawk::SweepRun>& runs) {
  return hawk::bench::WriteJsonRows(path, runs.size(), [&runs](size_t i) {
    const hawk::SweepRun& run = runs[i];
    const hawk::Samples shorts = run.result.RuntimesSeconds(false);
    const hawk::Samples longs = run.result.RuntimesSeconds(true);
    char row[512];
    std::snprintf(row, sizeof(row),
                  "{\"label\": \"%s\", \"scheduler\": \"%s\", \"probe_ratio\": %u, "
                  "\"num_workers\": %u, \"p50_short_s\": %.6f, \"p90_short_s\": %.6f, "
                  "\"p50_long_s\": %.6f, \"p90_long_s\": %.6f, \"median_util\": %.6f}",
                  run.spec.Label().c_str(), run.spec.scheduler.c_str(),
                  run.spec.config.probe_ratio, run.spec.config.num_workers,
                  shorts.Empty() ? 0.0 : shorts.Percentile(50),
                  shorts.Empty() ? 0.0 : shorts.Percentile(90),
                  longs.Empty() ? 0.0 : longs.Percentile(50),
                  longs.Empty() ? 0.0 : longs.Percentile(90),
                  run.result.MedianUtilization());
    return std::string(row);
  });
}

}  // namespace

int main(int argc, char** argv) {
  hawk::Flags flags(argc, argv);
  const uint32_t jobs = hawk::bench::ScaledJobs(flags, 3000);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const std::vector<int64_t> ds = flags.GetIntList("d", {1, 2, 4, 8});
  const std::vector<int64_t> paper_sizes =
      flags.GetIntList("paper-sizes", {10000, 15000, 20000});

  const hawk::Trace trace = hawk::bench::GoogleSweepTrace(
      jobs, seed, hawk::bench::SimSize(static_cast<uint32_t>(paper_sizes.front())),
      hawk::bench::SimSize(15000), flags.GetDouble("util", 0.93));

  // The whole study is one declaration: schedulers x d x cluster sizes.
  std::vector<double> sizes;
  for (const int64_t paper_size : paper_sizes) {
    sizes.push_back(hawk::bench::SimSize(static_cast<uint32_t>(paper_size)));
  }
  hawk::SweepSpec sweep(
      hawk::ExperimentSpec()
          .WithConfig(hawk::bench::GoogleConfig(hawk::bench::SimSize(15000), seed))
          .WithTrace(&trace)
          .WithLabel("power_of_d"));
  sweep.VarySchedulers({"sparrow", "hawk"})
      .Vary("probe_ratio", std::vector<double>(ds.begin(), ds.end()))
      .Vary("num_workers", sizes);
  const std::vector<hawk::SweepRun> runs =
      hawk::RunSweep(sweep, static_cast<uint32_t>(flags.GetInt("threads", 0)));

  hawk::bench::PrintHeader(
      "Ablation: power-of-d probing, Sparrow (all jobs) and Hawk (short jobs) "
      "(Google trace, " +
      std::to_string(jobs) + " jobs, " + std::to_string(runs.size()) + " sweep points)");
  hawk::Table table({"scheduler", "d", "nodes(paper)", "p50 short (s)", "p90 short (s)",
                     "p50 long (s)", "probes placed"});
  for (size_t i = 0; i < runs.size(); ++i) {
    const hawk::SweepRun& run = runs[i];
    const hawk::Samples shorts = run.result.RuntimesSeconds(false);
    const hawk::Samples longs = run.result.RuntimesSeconds(true);
    const size_t size_index = i % paper_sizes.size();
    table.AddRow({run.spec.scheduler, std::to_string(run.spec.config.probe_ratio),
                  std::to_string(paper_sizes[size_index]),
                  hawk::Table::Num(shorts.Percentile(50), 1),
                  hawk::Table::Num(shorts.Percentile(90), 1),
                  hawk::Table::Num(longs.Percentile(50), 1),
                  std::to_string(run.result.counters.probes_placed)});
  }
  table.Print();
  std::printf("\nd=2 is the paper's choice; larger d trades messaging for placement "
              "quality and saturates quickly.\n");

  if (flags.Has("json")) {
    const std::string path = flags.GetString("json", "BENCH_sweep.json");
    const hawk::Status status = WriteSweepJson(path, runs);
    if (!status.ok()) {
      std::fprintf(stderr, "json export failed: %s\n", status.message().c_str());
      return 1;
    }
    std::printf("Wrote %s\n", path.c_str());
  }
  if (flags.Has("csv")) {
    const std::string path = flags.GetString("csv", "BENCH_sweep.csv");
    const hawk::Status status = hawk::WriteSweepSummaryCsv(path, runs);
    if (!status.ok()) {
      std::fprintf(stderr, "csv export failed: %s\n", status.message().c_str());
      return 1;
    }
    std::printf("Wrote %s\n", path.c_str());
  }
  return 0;
}

// The repository benchmark: simulator throughput at the paper's operating
// point and at a million workers, the fault path, and the prototype's
// open-loop delay, with an outside-in per-layer trace.
//
//   hawk_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--revision <id>] [--trace-out <file.json>]
//
// --trace 0 prints the end-to-end metrics, --trace 1 reruns the workload
// through the traced/* decorators and prints the per-layer metrics. The last
// stdout line is one JSON object {correct, attempted, failed, metrics}; the
// exit code is non-zero if any correctness check failed. perfbench/README.md
// defines every metric.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "checks.h"
#include "host.h"
#include "stages.h"
#include "stats.h"
#include "traced_policy.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kSetupRepetitions = 11;
constexpr uint32_t kRpcRoundTrips = 500;
constexpr size_t kRawSpanCapacity = 50'000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string revision = "unknown";
  std::string trace_out;
};

[[noreturn]] void Usage(const char* problem) {
  std::fprintf(stderr,
               "error: %s\nusage: hawk_perfbench --workload <%s> --seed <n> --seconds <s> "
               "--trace <0|1> [--revision <id>] [--trace-out <file.json>]\n",
               problem, WorkloadNames().c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (end != value && !(args.seconds > 0.0)) {
        Usage("--seconds must be positive");
      }
    } else if (flag == "--trace") {
      args.trace = std::strtol(value, &end, 10) != 0;
    } else if (flag == "--revision") {
      args.revision = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && (end == value || *end != '\0')) {
      Usage(("malformed value for " + flag).c_str());
    }
  }
  if (!have_workload) {
    Usage("--workload is required");
  }
  return args;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// M paper-events per second of each timed round.
std::vector<double> RoundRates(const SchedulerTotals& totals) {
  std::vector<double> rates;
  for (size_t i = 0; i < totals.round_seconds.size(); ++i) {
    rates.push_back(totals.round_paper_events[i] / totals.round_seconds[i] / 1e6);
  }
  return rates;
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

// Per-layer metrics of one traced scheduler lane (per-run averages over the
// lane's timed traced repetitions).
struct LaneLayers {
  double runs;
  const SpanRecorder* spans;

  double PerRun(Span span, bool self = false) const {
    const SpanStats& s = spans->Stats(span);
    return Seconds(self ? s.self_ns : s.inclusive_ns) / runs;
  }
  double NsPer(Span span, double count, bool self = false) const {
    const SpanStats& s = spans->Stats(span);
    return Ratio(static_cast<double>(self ? s.self_ns : s.inclusive_ns), count);
  }
};

void PrintJson(const Gate& gate, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              gate.failed == 0 ? "true" : "false", gate.attempted, gate.failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    Usage(("unknown workload " + args.workload).c_str());
  }
  std::printf("workload: %s\nseed: %" PRIu64 "\nseconds: %g\ntrace: %d\n", spec->name,
              args.seed, args.seconds, args.trace ? 1 : 0);
  PrintHostContext(args.revision);
  std::fflush(stdout);

  RegisterTracedSchedulers();
  Gate gate;
  const size_t self_test_cells = WrapperSelfTest(&gate.failures);
  gate.attempted += self_test_cells;
  gate.failed += gate.failures.size();
  std::printf("self-test: %zu scheduler x fault-mode cells, traced == untraced digests: %s\n",
              self_test_cells, gate.failures.empty() ? "yes" : "NO");

  // Set-up: everything before the first timed run, repeated; the median
  // repetition is the metric and the last one's inputs are used.
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  std::vector<double> prepare_s;
  const double proto_window_s = spec->proto_share * args.seconds;
  ProtoInput proto_input;
  std::vector<SimInput> sim_inputs;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    SetupTiming timing;
    const double start = NowSeconds();
    proto_input = BuildProtoInput(args.seed, proto_window_s, &timing);
    sim_inputs = BuildSimInputs(*spec, args.seed, proto_input, &timing);
    setup_s.push_back(NowSeconds() - start);
    generate_s.push_back(timing.generate_s);
    prepare_s.push_back(timing.prepare_s);
  }

  // The prototype runs first, in a process that has not yet allocated and
  // freed a large simulated cluster: after the 1M-worker stage, the
  // kernel's work reclaiming that memory showed up as prototype delay.
  const ProtoRun proto = RunProtoStage(proto_input, &gate);
  const double sim_budget_s = spec->sim_share * args.seconds;
  TraceSink hawk_sink(kRawSpanCapacity);
  TraceSink sparrow_sink(/*raw_span_capacity=*/0);
  const SimStageResult sim =
      RunSimStage(sim_inputs, sim_budget_s, args.trace ? &hawk_sink : nullptr,
                  args.trace ? &sparrow_sink : nullptr, &gate);

  const double p90_ratio = Median(sim.short_p90_ratios);
  std::printf("sim: %zu timed rounds over %zu input(s); hawk short p90 / sparrow: %.4f\n",
              sim.hawk.round_seconds.size(), sim_inputs.size(), p90_ratio);
  for (const auto& [name, totals] : {std::pair{"hawk", &sim.hawk}, {"sparrow", &sim.sparrow}}) {
    const std::vector<double> rates = RoundRates(*totals);
    std::printf("sim: %s M paper-events/s per round: p25 %.4f, median %.4f, p75 %.4f\n", name,
                Percentile(rates, 25), Median(rates), Percentile(rates, 75));
  }
  const hawk::RunCounters& first = sim.hawk_first_round;
  std::printf("sim: hawk warm-up round: %" PRIu64 " tasks launched, %" PRIu64
              " re-dispatched, %" PRIu64 " speculated, %" PRIu64 " messages dropped, %" PRIu64
              " crashes\n",
              first.tasks_launched, first.tasks_re_dispatched, first.tasks_speculated,
              first.messages_dropped, first.worker_crashes);
  std::printf("prototype: %zu of %zu jobs finished, %zu short-job delay samples, wall %.2f s\n",
              proto.result.jobs.size(), proto_input.trace.NumJobs(), proto.short_delay_ms.size(),
              proto.wall_s);
  // Printed on every run but gated nowhere: on a shared VM the delays move
  // with the host's vCPU wake-up latency by more than any allowed bound.
  const double delay_p50 = Percentile(proto.short_delay_ms, 50);
  const double delay_p90 = Percentile(proto.short_delay_ms, 90);
  std::printf("prototype: short-job delay p50 %.4f ms, p90 %.4f ms\n", delay_p50, delay_p90);

  const double proto_jobs = static_cast<double>(proto.result.jobs.size());
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics.push_back({"setup_s", Median(setup_s), "s"});
    metrics.push_back({"hawk_mevents_per_s", Median(RoundRates(sim.hawk)), "M/s"});
    metrics.push_back({"sparrow_mevents_per_s", Median(RoundRates(sim.sparrow)), "M/s"});
    metrics.push_back({"peak_rss_mb", static_cast<double>(PeakRssBytes()) / 1e6, "MB"});
    metrics.push_back({"proto_cpu_ms_per_job", Ratio(proto.cpu_s * 1e3, proto_jobs), "ms"});
  } else {
    const RpcStageResult rpc = RunRpcPingPong(
        std::chrono::microseconds(proto_input.config.hawk.net_delay_us),
        proto_input.config.bus_threads, kRpcRoundTrips);
    const hawk::RunCounters& hc = sim.hawk.counters;
    const LaneLayers hawk{static_cast<double>(sim.hawk.traced_runs), &hawk_sink.spans};
    const LaneLayers sparrow{static_cast<double>(sim.sparrow.traced_runs), &sparrow_sink.spans};
    const auto u64 = [](uint64_t v) { return static_cast<double>(v); };
    std::vector<double> queued(hawk_sink.queued_at_arrival.begin(),
                               hawk_sink.queued_at_arrival.end());
    const hawk::RunCounters& pc = proto.result.counters;
    const double hawk_workers = static_cast<double>(sim_inputs.front().config.num_workers);
    metrics = {
        {"workload.generate_s", Median(generate_s), "s"},
        {"workload.prepare_s", Median(prepare_s), "s"},
        {"scheduler.construct_s", hawk.PerRun(Span::kConstruct), "s"},
        {"core.attach_s", hawk.PerRun(Span::kAttach), "s"},
        {"cluster.rss_bytes_per_worker",
         static_cast<double>(sim.rss_growth_first_construct) / hawk_workers, "B"},
        {"scheduler.run_self_s", hawk.PerRun(Span::kRun, true), "s"},
        {"scheduler.ns_per_event", hawk.NsPer(Span::kRun, u64(hc.events), true), "ns"},
        {"scheduler.events_per_paper_event",
         Ratio(u64(hc.events), u64(hawk::bench::PaperEvents(hc))), "ratio"},
        {"sim.push_ns", hawk.NsPer(Span::kPush, u64(hawk_sink.spans.Stats(Span::kPush).count)),
         "ns"},
        {"sim.pushes", u64(hawk_sink.spans.Stats(Span::kPush).count) / hawk.runs, "count"},
        {"core.arrival_self_s", hawk.PerRun(Span::kArrival, true), "s"},
        {"core.arrival_ns_per_job", hawk.NsPer(Span::kArrival, u64(hc.jobs), true), "ns"},
        {"core.steal_s", hawk.PerRun(Span::kSteal), "s"},
        {"core.steal_ns_per_attempt", hawk.NsPer(Span::kSteal, u64(hc.steal_attempts)), "ns"},
        {"core.steal_success_ratio", Ratio(u64(hc.steal_successes), u64(hc.steal_attempts)),
         "ratio"},
        {"core.victims_per_attempt", Ratio(u64(hc.steal_victim_probes), u64(hc.steal_attempts)),
         "ratio"},
        {"core.entries_per_steal", Ratio(u64(hc.entries_stolen), u64(hc.steal_successes)),
         "ratio"},
        {"core.feedback_s", hawk.PerRun(Span::kTaskStart) + hawk.PerRun(Span::kTaskFinish), "s"},
        {"core.probe_cancel_ratio", Ratio(u64(hc.cancels), u64(hc.probe_requests)), "ratio"},
        {"core.recovery_s",
         hawk.PerRun(Span::kTaskLost) + hawk.PerRun(Span::kProbeLost) +
             hawk.PerRun(Span::kStraggling),
         "s"},
        {"cluster.queued_p50", Percentile(queued, 50), "count"},
        {"cluster.queued_p99", Percentile(queued, 99), "count"},
        {"sparrow.scheduler.run_self_s", sparrow.PerRun(Span::kRun, true), "s"},
        {"sparrow.core.arrival_self_s", sparrow.PerRun(Span::kArrival, true), "s"},
        {"sparrow.core.steal_s", sparrow.PerRun(Span::kSteal), "s"},
        {"sparrow.sim.push_ns",
         sparrow.NsPer(Span::kPush, u64(sparrow_sink.spans.Stats(Span::kPush).count)), "ns"},
        {"proto_delay_ms_p50", delay_p50, "ms"},
        {"proto_delay_ms_p90", delay_p90, "ms"},
        {"runtime.messages_per_job", Ratio(u64(pc.events), proto_jobs), "count"},
        {"runtime.cpu_s", proto.cpu_s, "s"},
        {"runtime.drain_s", proto.drain_s, "s"},
        {"runtime.steal_attempts", u64(pc.steal_attempts), "count"},
        {"runtime.entries_stolen", u64(pc.entries_stolen), "count"},
        {"rpc.deliver_late_us_p50", Percentile(rpc.deliver_late_us, 50), "us"},
        {"rpc.deliver_late_us_p99", Percentile(rpc.deliver_late_us, 99), "us"},
        {"rpc.send_ns", Median(rpc.send_ns), "ns"},
        {"workload.submit_late_ms_p50", Percentile(proto.submit_late_ms, 50), "ms"},
        {"workload.submit_late_ms_max", Percentile(proto.submit_late_ms, 100), "ms"},
        {"result.hawk_short_p90_ratio", p90_ratio, "ratio"},
        {"trace_overhead_ratio", Ratio(sim.hawk.traced_seconds, sim.hawk.untraced_seconds),
         "ratio"},
        {"trace_accounting_error", sim.max_accounting_error, "ratio"},
    };
    // Tracing may not change a result (digests are gated per run), and the
    // self times must account for the traced wall time.
    constexpr double kMaxAccountingError = 0.05;
    ++gate.attempted;
    if (sim.max_accounting_error > kMaxAccountingError) {
      ++gate.failed;
      char line[160];
      std::snprintf(line, sizeof(line),
                    "trace accounting: self times miss %.1f%% of a traced run's wall time",
                    sim.max_accounting_error * 100.0);
      gate.failures.emplace_back(line);
    }
    std::printf("trace: %" PRIu64 " spans recorded, %" PRIu64 " kept for the dump\n",
                hawk_sink.spans.RecordedSpans() + hawk_sink.spans.DroppedSpans(),
                hawk_sink.spans.RecordedSpans());
    std::printf("%-28s %14s %14s %8s\n", "span", "inclusive_s", "self_s", "count");
    for (size_t i = 0; i < kNumSpans; ++i) {
      const auto span = static_cast<Span>(i);
      const SpanStats& s = hawk_sink.spans.Stats(span);
      std::printf("%-28s %14.6f %14.6f %8" PRIu64 "\n", SpanName(span),
                  Seconds(s.inclusive_ns) / hawk.runs, Seconds(s.self_ns) / hawk.runs,
                  s.count);
    }
    if (!args.trace_out.empty()) {
      if (hawk_sink.spans.WriteChromeTrace(args.trace_out)) {
        std::printf("trace: Chrome trace-event JSON written to %s\n", args.trace_out.c_str());
      } else {
        std::printf("trace: could not write %s\n", args.trace_out.c_str());
      }
    }
  }

  for (const std::string& failure : gate.failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  std::printf("error_rate: %.6g (%" PRIu64 " of %" PRIu64 " checked operations failed)\n",
              Ratio(static_cast<double>(gate.failed), static_cast<double>(gate.attempted)),
              gate.failed, gate.attempted);
  for (const Metric& m : metrics) {
    std::printf("metric %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  PrintJson(gate, metrics);
  return gate.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

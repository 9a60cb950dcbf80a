#include "stages.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <optional>

#include "bench/bench_util.h"
#include "checks.h"
#include "host.h"
#include "src/metrics/comparison.h"
#include "src/rpc/message_bus.h"
#include "src/rpc/serializer.h"
#include "src/scheduler/experiment.h"
#include "src/scheduler/registry.h"
#include "tests/result_digest.h"

namespace perfbench {
namespace {

constexpr uint32_t kMinTimedRounds = 3;

struct Lane {
  const char* scheduler;
  TraceSink* sink;
  SchedulerTotals* totals;
  std::vector<std::optional<uint64_t>> digests;  // Per input, from its first run.
  std::vector<bool> speculates;                  // Per input.
};

bool Speculates(const std::string& scheduler, const hawk::HawkConfig& config) {
  const hawk::SchedulerRegistry::Entry* entry = hawk::SchedulerRegistry::Global().Find(scheduler);
  return entry != nullptr && entry->factory(config)->SpeculationThreshold(config) > 0.0;
}

// Checks one result and its digest against the input's first run; counts the
// run in `gate`.
void GateRun(const std::string& label, const SimInput& input, bool speculates,
             std::optional<uint64_t>* digest, const hawk::RunResult& result, Gate* gate) {
  const size_t failures =
      CheckRun(label, input.trace, input.config, speculates, /*simulated=*/true, result,
               &gate->failures);
  const uint64_t got = hawk::testing::DigestResult(result);
  bool same = true;
  if (!digest->has_value()) {
    *digest = got;
  } else if (**digest != got) {
    same = false;
    gate->failures.push_back(label + ": result digest differs from the first run's");
  }
  ++gate->attempted;
  if (failures > 0 || !same) {
    ++gate->failed;
  }
}

// Sums the counters the per-layer metrics and the fault summary read.
void AddCounters(const hawk::RunCounters& c, hawk::RunCounters* sum) {
  sum->jobs += c.jobs;
  sum->tasks_launched += c.tasks_launched;
  sum->probes_placed += c.probes_placed;
  sum->probe_requests += c.probe_requests;
  sum->cancels += c.cancels;
  sum->central_tasks_placed += c.central_tasks_placed;
  sum->steal_attempts += c.steal_attempts;
  sum->steal_victim_probes += c.steal_victim_probes;
  sum->steal_successes += c.steal_successes;
  sum->entries_stolen += c.entries_stolen;
  sum->events += c.events;
  sum->worker_crashes += c.worker_crashes;
  sum->messages_dropped += c.messages_dropped;
  sum->tasks_re_dispatched += c.tasks_re_dispatched;
  sum->probes_lost += c.probes_lost;
  sum->tasks_speculated += c.tasks_speculated;
}

}  // namespace

SimStageResult RunSimStage(const std::vector<SimInput>& inputs, double budget_s,
                           TraceSink* hawk_sink, TraceSink* sparrow_sink, Gate* gate) {
  SimStageResult out;
  Lane lanes[] = {{"hawk", hawk_sink, &out.hawk, {}, {}},
                  {"sparrow", sparrow_sink, &out.sparrow, {}, {}}};
  for (Lane& lane : lanes) {
    lane.digests.resize(inputs.size());
    for (const SimInput& input : inputs) {
      lane.speculates.push_back(Speculates(lane.scheduler, input.config));
    }
  }
  const bool traced = hawk_sink != nullptr && sparrow_sink != nullptr;
  const double start = NowSeconds();
  for (uint32_t round = 0;; ++round) {
    if (round > kMinTimedRounds && NowSeconds() - start >= budget_s) {
      break;
    }
    if (round == 1 && traced) {
      // The warm-up round pays first-touch costs; per-run averages exclude it.
      for (Lane& lane : lanes) {
        lane.sink->spans.ClearStats();
        lane.sink->queued_at_arrival.clear();
        *lane.totals = SchedulerTotals{};
      }
    }
    double seconds[2] = {0.0, 0.0};
    double events[2] = {0.0, 0.0};
    std::optional<hawk::RunResult> first_round_hawk;
    for (size_t k = 0; k < inputs.size(); ++k) {
      const SimInput& input = inputs[k];
      for (size_t l = 0; l < 2; ++l) {
        Lane& lane = lanes[l];
        const std::string label = std::string(lane.scheduler) + " input " + std::to_string(k);
        double traced_wall = 0.0;
        if (traced) {
          // Traced twin first, so the very first traced driver construction
          // is also the process's first at this cluster size (RSS growth).
          const int64_t rss_before = PeakRssBytes();
          const bool first_construct = lane.sink->peak_rss_at_first_attach == 0;
          const int64_t self_before = lane.sink->spans.TotalSelfNs();
          SetActiveSink(lane.sink);
          const double t0 = NowSeconds();
          const hawk::RunResult result = hawk::RunExperiment(
              hawk::ExperimentSpec(TracedName(lane.scheduler)).WithConfig(input.config)
                  .WithTrace(&input.trace));
          traced_wall = NowSeconds() - t0;
          SetActiveSink(nullptr);
          if (first_construct && l == 0) {
            out.rss_growth_first_construct = lane.sink->peak_rss_at_first_attach - rss_before;
          }
          const double self_s =
              static_cast<double>(lane.sink->spans.TotalSelfNs() - self_before) / 1e9;
          out.max_accounting_error = std::max(
              out.max_accounting_error, std::abs(traced_wall - self_s) / traced_wall);
          GateRun("traced/" + label, input, lane.speculates[k], &lane.digests[k], result, gate);
          AddCounters(result.counters, &lane.totals->counters);
          ++lane.totals->traced_runs;
          lane.totals->traced_seconds += traced_wall;
        }
        const double t0 = NowSeconds();
        hawk::RunResult result = hawk::RunExperiment(
            hawk::ExperimentSpec(lane.scheduler).WithConfig(input.config).WithTrace(&input.trace));
        const double wall = NowSeconds() - t0;
        GateRun(label, input, lane.speculates[k], &lane.digests[k], result, gate);
        seconds[l] += wall;
        events[l] += static_cast<double>(hawk::bench::PaperEvents(result.counters));
        if (traced) {
          lane.totals->untraced_seconds += wall;
        }
        if (round == 0) {
          if (l == 0) {
            AddCounters(result.counters, &out.hawk_first_round);
            first_round_hawk = std::move(result);
          } else {
            out.short_p90_ratios.push_back(
                hawk::CompareRuns(*first_round_hawk, result).short_jobs.p90_ratio);
          }
        }
      }
    }
    if (round > 0) {
      for (size_t l = 0; l < 2; ++l) {
        lanes[l].totals->round_seconds.push_back(seconds[l]);
        lanes[l].totals->round_paper_events.push_back(events[l]);
      }
    }
  }
  return out;
}

ProtoRun RunProtoStage(const ProtoInput& input, Gate* gate) {
  const hawk::Trace& trace = input.trace;
  ProtoRun out;
  const double cpu0 = ProcessCpuSeconds();
  const double t0 = NowSeconds();
  hawk::StatusOr<hawk::RunResult> run = hawk::runtime::RunPrototype(trace, input.config);
  out.wall_s = NowSeconds() - t0;
  out.cpu_s = ProcessCpuSeconds() - cpu0;
  gate->attempted += trace.NumJobs();
  if (!run.ok()) {
    gate->failed += trace.NumJobs();
    gate->failures.push_back("prototype: " + run.status().message());
    return out;
  }
  out.result = run.value();
  out.drain_s = out.wall_s - static_cast<double>(trace.SpanUs()) / 1e6;
  const size_t failures = CheckRun("prototype", trace, input.config.hawk, /*speculates=*/false,
                                   /*simulated=*/false, out.result, &gate->failures);
  const uint64_t unfinished = trace.NumJobs() - std::min(trace.NumJobs(), out.result.jobs.size());
  gate->failed += std::max<uint64_t>(unfinished, failures > 0 ? 1 : 0);
  for (const hawk::JobResult& job : out.result.jobs) {
    if (job.id >= trace.NumJobs()) {
      continue;
    }
    const hawk::Job& due = trace.job(job.id);
    out.submit_late_ms.push_back(static_cast<double>(job.submit_time - due.submit_time) / 1e3);
    if (!job.is_long) {
      out.short_delay_ms.push_back(
          static_cast<double>(job.finish_time - due.submit_time - due.MaxTaskDurationUs()) /
          1e3);
    }
  }
  return out;
}

RpcStageResult RunRpcPingPong(std::chrono::microseconds latency, uint32_t delivery_threads,
                              uint32_t round_trips) {
  constexpr hawk::rpc::Address kPinger = 1;
  constexpr hawk::rpc::Address kPonger = 2;
  const int64_t latency_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(latency).count();
  RpcStageResult out;
  std::mutex mu;
  std::condition_variable cv;
  uint32_t pongs = 0;
  const auto stamp = [] {
    hawk::rpc::Writer writer;
    writer.WriteI64(SpanRecorder::NowNs());
    return writer.Take();
  };
  const auto record_lateness = [&](const hawk::rpc::BusMessage& message) {
    hawk::rpc::Reader reader(message.payload);
    const int64_t sent_ns = reader.ReadI64();
    const double late_us =
        static_cast<double>(SpanRecorder::NowNs() - sent_ns - latency_ns) / 1e3;
    const std::lock_guard<std::mutex> lock(mu);
    out.deliver_late_us.push_back(late_us);
  };
  // Declared after everything its handlers touch, so it is destroyed (and
  // its delivery threads joined) first.
  hawk::rpc::MessageBus bus(latency, delivery_threads);
  bus.Register(kPonger, [&](const hawk::rpc::BusMessage& message) {
    record_lateness(message);
    bus.Send(kPonger, kPinger, 0, stamp());
  });
  bus.Register(kPinger, [&](const hawk::rpc::BusMessage& message) {
    record_lateness(message);
    {
      const std::lock_guard<std::mutex> lock(mu);
      ++pongs;
    }
    cv.notify_one();
  });
  for (uint32_t i = 0; i < round_trips; ++i) {
    std::vector<uint8_t> payload = stamp();
    const int64_t send_start = SpanRecorder::NowNs();
    bus.Send(kPinger, kPonger, 0, std::move(payload));
    out.send_ns.push_back(static_cast<double>(SpanRecorder::NowNs() - send_start));
    std::unique_lock<std::mutex> lock(mu);
    if (!cv.wait_for(lock, std::chrono::seconds(5), [&] { return pongs > i; })) {
      break;
    }
  }
  bus.Drain();
  bus.Shutdown();
  return out;
}

}  // namespace perfbench

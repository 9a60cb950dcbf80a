// Golden-result pins: one 64-bit digest per (scheduler, seed, layout) cell
// over a fixed chaos workload, for every registered scheduler, on one-slot
// workers, on 4-slot workers and on a heterogeneous fleet. Any change to
// simulation semantics — event ordering, RNG stream consumption, counter
// accounting — shows up as a digest mismatch here before it can masquerade
// as a perf win or silently shift paper results.
//
// Regenerate intentionally with:  HAWK_UPDATE_GOLDENS=1 ctest -R golden_test
// and review the fixture diff like any other code change.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/core/hawk_config.h"
#include "src/scheduler/experiment.h"
#include "src/workload/arrivals.h"
#include "src/workload/cluster_workloads.h"
#include "src/workload/trace.h"
#include "tests/result_digest.h"

namespace hawk {
namespace {

const char* kAllSchedulers[] = {"sparrow", "centralized", "hawk", "hawk-dchoice",
                                "hawk-spec", "hawk-latebind", "split"};
constexpr uint64_t kSeeds[] = {1, 2};
// Worker capacity layouts. Multi-slot cells run the same config on 4-slot
// workers; heterogeneous cells upgrade 30% of one-slot workers to 4 slots,
// which exercises the table-mapped slot space and the steal policy's
// skipping of repeated victims. One-slot cells keep their historical keys.
struct Layout {
  uint32_t slots_per_worker;
  double big_worker_fraction;
  uint32_t big_worker_slots;
};
constexpr Layout kLayouts[] = {{1, 0.0, 0}, {4, 0.0, 0}, {1, 0.3, 4}};

// The pinned workload lights every layer: partitioned + stealing schedulers,
// speculation (via hawk-spec), crashes, churn, message loss, jitter and
// stragglers. Rates per worker-second, well under 1/longest-task so crashed
// work terminates (see fault_test.cc).
HawkConfig GoldenConfig(uint64_t seed) {
  HawkConfig config;
  config.num_workers = 100;
  config.classify_mode = ClassifyMode::kHint;
  config.seed = seed;
  config.worker_crash_rate = 3e-7;
  config.worker_churn_rate = 2e-7;
  config.worker_downtime_us = SecondsToUs(20.0);
  config.message_loss_rate = 0.05;
  config.message_delay_jitter_us = 2'000;
  config.straggler_rate = 0.05;
  config.fault_seed = 3;
  return config;
}

Trace GoldenTrace() {
  Trace trace = GenerateClusterWorkload(FacebookParams(150, 5));
  Rng arrivals_rng(11);
  AssignPoissonArrivals(&trace, SecondsToUs(2.0), &arrivals_rng);
  return trace;
}

std::string CellKey(const std::string& scheduler, uint64_t seed, const Layout& layout) {
  std::ostringstream key;
  key << scheduler << " seed=" << seed;
  if (layout.slots_per_worker != 1) {
    key << " slots=" << layout.slots_per_worker;
  }
  if (layout.big_worker_slots != 0) {
    key << " big=" << layout.big_worker_fraction << "x" << layout.big_worker_slots;
  }
  return key.str();
}

// Fixture format: `<scheduler> seed=<n>[ slots=<s>][ big=<f>x<s>] <hex digest>`
// per line (the key is everything before the last field), '#' comments and
// blank lines ignored.
std::map<std::string, uint64_t> LoadGoldens(const std::string& path) {
  std::map<std::string, uint64_t> goldens;
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "missing golden fixture " << path
                            << " (regenerate with HAWK_UPDATE_GOLDENS=1)";
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    const size_t split = line.rfind(' ');
    EXPECT_TRUE(split != std::string::npos && split > 0 && split + 1 < line.size())
        << "malformed golden line: " << line;
    if (split == std::string::npos) {
      continue;
    }
    goldens[line.substr(0, split)] = std::strtoull(line.c_str() + split + 1, nullptr, 16);
  }
  return goldens;
}

TEST(GoldenResultTest, EveryRegisteredSchedulerMatchesPinnedDigests) {
  const Trace trace = GoldenTrace();
  std::map<std::string, uint64_t> actual;
  for (const char* scheduler : kAllSchedulers) {
    for (const uint64_t seed : kSeeds) {
      for (const Layout& layout : kLayouts) {
        HawkConfig config = GoldenConfig(seed);
        config.slots_per_worker = layout.slots_per_worker;
        config.big_worker_fraction = layout.big_worker_fraction;
        config.big_worker_slots = layout.big_worker_slots;
        actual[CellKey(scheduler, seed, layout)] =
            testing::DigestResult(RunExperiment(trace, config, scheduler));
      }
    }
  }

  const char* update = std::getenv("HAWK_UPDATE_GOLDENS");
  if (update != nullptr && *update != '\0') {
    std::ofstream out(HAWK_GOLDEN_FILE);
    ASSERT_TRUE(out.is_open()) << "cannot write " << HAWK_GOLDEN_FILE;
    out << "# RunResult digests pinned by golden_test.cc. One line per\n"
           "# (scheduler, seed) cell over the fixed chaos workload.\n"
           "# Regenerate: HAWK_UPDATE_GOLDENS=1 ctest -R golden\n";
    for (const auto& [key, digest] : actual) {
      char hex[17];
      std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(digest));
      out << key << " " << hex << "\n";
    }
    GTEST_SKIP() << "goldens rewritten to " << HAWK_GOLDEN_FILE;
  }

  const std::map<std::string, uint64_t> goldens = LoadGoldens(HAWK_GOLDEN_FILE);
  EXPECT_EQ(goldens.size(), actual.size())
      << "golden fixture is stale (cells added/removed); regenerate with "
         "HAWK_UPDATE_GOLDENS=1 and review the diff";
  for (const auto& [key, digest] : actual) {
    const auto it = goldens.find(key);
    if (it == goldens.end()) {
      ADD_FAILURE() << "no pinned digest for " << key;
      continue;
    }
    EXPECT_EQ(it->second, digest)
        << key << ": simulation semantics changed. If intentional, regenerate "
        << "with HAWK_UPDATE_GOLDENS=1 and justify the fixture diff.";
  }
}

// The digest itself must be order- and value-sensitive, or the pins above
// are vacuous.
TEST(GoldenResultTest, DigestDiscriminates) {
  const Trace trace = GoldenTrace();
  const HawkConfig config = GoldenConfig(1);
  const RunResult base = RunExperiment(trace, config, "hawk");
  const uint64_t digest = testing::DigestResult(base);
  EXPECT_EQ(digest, testing::DigestResult(RunExperiment(trace, config, "hawk")));

  HawkConfig other_seed = GoldenConfig(2);
  EXPECT_NE(digest, testing::DigestResult(RunExperiment(trace, other_seed, "hawk")));

  RunResult tweaked = RunExperiment(trace, config, "hawk");
  tweaked.counters.steal_successes ^= 1;
  EXPECT_NE(digest, testing::DigestResult(tweaked));
}

}  // namespace
}  // namespace hawk

#!/usr/bin/env bash
# Benchmark artifacts: builds the Release bench binaries and emits
#   BENCH_driver.json  driver-throughput (Google Benchmark JSON) — the repo's
#                      perf-trajectory baseline; compare events/s across
#                      commits to spot hot-path regressions. Includes the
#                      1M-worker scale point (10M paper nodes / 10).
#   BENCH_sweep.json   probe-ratio (power-of-d) ablation sweep run through
#                      the experiment API — tracks result trajectories for
#                      the sweep grid, not just throughput.
#   BENCH_hetero_slots.json  capacity-layout (multi-slot / heterogeneous
#                      worker) sweep at fixed total slots.
#   BENCH_impl_vs_sim.json  prototype-vs-simulation grid (fig 16/17): sparrow,
#                      hawk and the externally registered hawk-lb at 1 and 4
#                      slots per node, smoke scale (wall-clock runs; compare
#                      impl_* against sim_* columns, not across commits).
#   BENCH_faults.json  fault-injection ablation: crash-rate x loss-rate x
#                      every registered scheduler, simulated curves plus a
#                      tiny real-crash prototype grid.
#   BENCH_stragglers.json  straggler ablation: straggler-rate x every
#                      registered scheduler (hawk-spec shows speculation),
#                      p50/p99 normalized runtimes, simulated curves plus a
#                      tiny real-slowdown prototype grid.
#
# See docs/performance.md for the methodology and how to read each artifact.
#
# Usage:
#   scripts/bench.sh                      # full run, writes all artifacts
#   scripts/bench.sh --benchmark_filter=Hawk   # extra args forwarded to the
#                                              # throughput bench
#
# Environment:
#   BUILD_DIR   build directory (default: build-bench). If it already holds a
#               configured build it is reused; otherwise it is configured as
#               a Release build here.
#   JOBS        parallelism (default: nproc)
#   OUT         throughput JSON path (default: BENCH_driver.json)
#   SWEEP_OUT   sweep JSON path (default: BENCH_sweep.json)
#   HETERO_OUT  hetero-slots JSON path (default: BENCH_hetero_slots.json)
#   IMPL_OUT    impl-vs-sim JSON path (default: BENCH_impl_vs_sim.json)
#   FAULTS_OUT  fault-ablation JSON path (default: BENCH_faults.json)
#   STRAGGLERS_OUT  straggler-ablation JSON path (default: BENCH_stragglers.json)
#   SWEEP_SCALE HAWK_BENCH_SCALE for the sweeps (default: 1)
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build-bench}"
JOBS="${JOBS:-$(nproc)}"
OUT="${OUT:-BENCH_driver.json}"
SWEEP_OUT="${SWEEP_OUT:-BENCH_sweep.json}"
HETERO_OUT="${HETERO_OUT:-BENCH_hetero_slots.json}"
IMPL_OUT="${IMPL_OUT:-BENCH_impl_vs_sim.json}"
FAULTS_OUT="${FAULTS_OUT:-BENCH_faults.json}"
STRAGGLERS_OUT="${STRAGGLERS_OUT:-BENCH_stragglers.json}"
# Scale contract: HAWK_BENCH_SCALE is parsed (strictly) in exactly one
# place — bench/bench_util.h's BenchScale(). This script only routes
# SWEEP_SCALE into that env var; it never parses or validates the value
# itself, so a malformed scale fails with bench_util's message, not two
# divergent ones. SWEEP_SCALE keeps working as the documented knob and an
# already-exported HAWK_BENCH_SCALE is respected as its default.
SWEEP_SCALE="${SWEEP_SCALE:-${HAWK_BENCH_SCALE:-1}}"
export HAWK_BENCH_SCALE="${SWEEP_SCALE}"

die() {
  echo "bench.sh: error: $*" >&2
  exit 1
}

command -v cmake > /dev/null 2>&1 \
  || die "cmake not found on PATH — install CMake >= 3.16 (see README 'Build and test')"

# Configure the Release bench build only when the directory is not already a
# configured build tree; a stale or foreign directory fails loudly instead of
# being silently clobbered.
if [[ ! -f "${BUILD_DIR}/CMakeCache.txt" ]]; then
  if [[ -e "${BUILD_DIR}" && ! -d "${BUILD_DIR}" ]]; then
    die "BUILD_DIR '${BUILD_DIR}' exists but is not a directory"
  fi
  echo "bench.sh: configuring Release bench build in ${BUILD_DIR}"
  cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release -DHAWK_BUILD_TESTS=OFF \
        -DHAWK_BUILD_EXAMPLES=OFF \
    || die "CMake configure failed in '${BUILD_DIR}' — inspect the output above, or remove the directory and re-run"
fi

cmake --build "${BUILD_DIR}" -j "${JOBS}" \
      --target bench_driver_throughput bench_ablation_power_of_d bench_ablation_hetero_slots \
               bench_fig16_17_impl_vs_sim bench_ablation_faults bench_ablation_stragglers \
  || die "bench build failed in '${BUILD_DIR}'"

[[ -x "${BUILD_DIR}/bench_driver_throughput" ]] \
  || die "bench_driver_throughput did not build — was Google Benchmark found? (see README 'Build and test')"

"${BUILD_DIR}/bench_driver_throughput" \
  --benchmark_out="${OUT}" --benchmark_out_format=json \
  --benchmark_counters_tabular=true "$@"

echo "Wrote ${OUT}"

# The benches print "Wrote ..." themselves on success.
"${BUILD_DIR}/bench_ablation_power_of_d" --threads="${JOBS}" \
  --json="${SWEEP_OUT}"

"${BUILD_DIR}/bench_ablation_hetero_slots" --threads="${JOBS}" \
  --json="${HETERO_OUT}"

# Prototype vs simulation at smoke scale: real node-monitor threads and sleep
# tasks, so this is wall-clock bound — keep it small and serial.
"${BUILD_DIR}/bench_fig16_17_impl_vs_sim" --jobs=16 --work-seconds=3 --num-ratios=2 \
  --json="${IMPL_OUT}"

# Fault ablation: the sim grid scales with SWEEP_SCALE; the prototype half is
# wall-clock bound (real crashes + sleep tasks) and stays at smoke scale.
"${BUILD_DIR}/bench_ablation_faults" --threads="${JOBS}" \
  --proto-jobs=12 --proto-work-seconds=3 --json="${FAULTS_OUT}"

# Straggler ablation: same split — scaled sim grid, smoke-scale prototype grid
# with real slowed-down executor sleeps.
"${BUILD_DIR}/bench_ablation_stragglers" --threads="${JOBS}" \
  --proto-jobs=12 --proto-work-seconds=3 --json="${STRAGGLERS_OUT}"

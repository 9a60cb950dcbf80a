#include "host.h"

#include <sys/resource.h>
#include <sys/sysinfo.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

namespace perfbench {
namespace {

double TimevalSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

// The CPU brand string straight from the processor (no file reads).
std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid(0x80000000U, &regs[0], &regs[1], &regs[2], &regs[3]) == 0 ||
      regs[0] < 0x80000004U) {
    return "unknown";
  }
  char brand[49] = {};
  for (unsigned int leaf = 0; leaf < 3; ++leaf) {
    __get_cpuid(0x80000002U + leaf, &regs[0], &regs[1], &regs[2], &regs[3]);
    std::memcpy(brand + 16 * leaf, regs, 16);
  }
  std::string model(brand);
  const size_t first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
#else
  return "unknown (non-x86)";
#endif
}

// True when the benchmark itself was compiled with optimization on.
bool OptimizedBuild() {
#if defined(__OPTIMIZE__)
  return true;
#else
  return false;
#endif
}

}  // namespace

double NowSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return TimevalSeconds(usage.ru_utime) + TimevalSeconds(usage.ru_stime);
}

int64_t PeakRssBytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<int64_t>(usage.ru_maxrss) * 1024;  // Linux reports KiB.
}

void PrintHostContext(const std::string& source_revision) {
  struct sysinfo info {};
  double load[3] = {0, 0, 0};
  if (sysinfo(&info) == 0) {
    for (int i = 0; i < 3; ++i) {
      load[i] = static_cast<double>(info.loads[i]) / static_cast<double>(1U << SI_LOAD_SHIFT);
    }
  }
  std::printf("host.nproc: %ld\n", sysconf(_SC_NPROCESSORS_ONLN));
  std::printf("host.cpu: %s\n", CpuModel().c_str());
  std::printf("host.loadavg: %.2f %.2f %.2f\n", load[0], load[1], load[2]);
  std::printf("build.compiler: %s\n", __VERSION__);
  std::printf("build.type: %s\n", PERFBENCH_BUILD_TYPE);
  std::printf("build.flags: %s\n", PERFBENCH_CXX_FLAGS);
  std::printf("build.optimized: %s\n", OptimizedBuild() ? "yes" : "NO");
  std::printf("source.revision: %s\n", source_revision.c_str());
  if (!OptimizedBuild()) {
    std::printf("WARNING: NON-OPTIMIZED BUILD -- these numbers are not comparable to an "
                "optimized build and must not be reported as performance results\n");
  }
}

}  // namespace perfbench

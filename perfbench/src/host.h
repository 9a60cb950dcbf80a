// Host-side measurement helpers: clocks, process resource usage, and the
// machine/build context printed with every result (numbers from different
// machines or builds are never compared).
#ifndef PERFBENCH_HOST_H_
#define PERFBENCH_HOST_H_

#include <cstdint>
#include <string>

namespace perfbench {

// Steady-clock seconds (arbitrary origin).
double NowSeconds();

// User plus system CPU seconds of the whole process (all threads).
double ProcessCpuSeconds();

// Peak resident set size of the process (getrusage ru_maxrss), in bytes.
int64_t PeakRssBytes();

// Prints nproc, CPU model, compiler, build type and flags, the source
// revision, and the load average, one "key: value" per line, and a loud
// warning when the build is not optimized.
void PrintHostContext(const std::string& source_revision);

}  // namespace perfbench

#endif  // PERFBENCH_HOST_H_

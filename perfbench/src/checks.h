// The correctness gate every benchmark run passes through. A violated
// invariant is appended to `failures` as one printable line; the caller
// counts it toward the run's failed total and exits non-zero.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <string>
#include <vector>

#include "src/cluster/results.h"
#include "src/core/hawk_config.h"
#include "src/workload/trace.h"

namespace perfbench {

// Invariants of one run, simulated or prototype:
//   - every trace job finishes exactly once, with finish >= submit;
//   - every task ran at least once, and exactly once when the run had no
//     faults and no speculation (`speculates` is the policy's effective
//     SpeculationThreshold > 0);
//   - the message ledger: messages_dropped == message_retries +
//     retries_suppressed.
// Simulated runs (`simulated`) also satisfy the exact work ledger
// total_busy_us == TotalWorkUs() + wasted_work_us and replay the trace's
// submit times exactly; the prototype's busy time is measured sleep time and
// its submit times are wall-clock, so those two checks are simulator-only.
// Returns the number of failures appended.
size_t CheckRun(const std::string& label, const hawk::Trace& trace,
                const hawk::HawkConfig& config, bool speculates, bool simulated,
                const hawk::RunResult& result, std::vector<std::string>* failures);

// Wrapper self-test: at tiny scale, with faults off and on, every registered
// scheduler <name> and its decorator traced/<name> must produce the same
// result digest (and pass CheckRun). Runs with no trace sink and again with
// one, so recording spans is proven not to perturb the run either. Returns
// the number of (scheduler, fault mode) cells checked.
size_t WrapperSelfTest(std::vector<std::string>* failures);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_

#ifndef STACKBENCH_WORKLOADS_H_
#define STACKBENCH_WORKLOADS_H_

#include "harness.h"

namespace stackbench {

/// Set-up runs this many times per run; setup_s is the median.
inline constexpr int kSetupRepeats = 3;

/// Each workload builds its inputs from the seed, measures for
/// o.seconds, checks its outputs and fills `report`. Report calls are
/// made from the calling thread only.
void RunDevice(const RunOptions& o, Report* report);
void RunFleetBulk(const RunOptions& o, Report* report);
void RunFleetLive(const RunOptions& o, Report* report);

}  // namespace stackbench

#endif  // STACKBENCH_WORKLOADS_H_

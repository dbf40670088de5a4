// The four workloads (see perfbench/README.md for why each exists).
// Each measures its operations with tracing off, then -- with --trace 1
// -- repeats them with spans around the calls into each layer, and
// runs the untimed correctness gate.
#pragma once

#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

RunResult run_cold(const RunConfig& cfg);
RunResult run_serve(const RunConfig& cfg);
RunResult run_analog(const RunConfig& cfg);

/// Runs one CLI command in-process; returns the exit code and keeps
/// stdout in `out` (stderr is discarded).
int cli(const std::vector<std::string>& args, std::string* out = nullptr);

/// Set-up is repeated at least kSetups times and for at least
/// kSetupSeconds, so a set-up of tens of milliseconds still gets a steady
/// median; the median is reported as setup_s.
constexpr std::size_t kSetups = 5;
constexpr double kSetupSeconds = 2.0;

/// Whether another set-up is due, after `done` of them since `start_s`.
inline bool more_setups(std::size_t done, double start_s) {
  return done < kSetups || now_s() - start_s < kSetupSeconds;
}

/// Fills the end-to-end metrics every workload reports, in
/// BENCHMARK.json order, with every timing scaled to the probe's
/// reference speed (as measured when `probe` is null).  `peak_mb` is the peak RSS once the first round or
/// episode has finished: later identical ones only add allocator
/// fragmentation, which would tie the figure to how many fit the
/// budget.  `k1`..`k3` are the workload's three operation kinds
/// (README.md names them per workload).
void set_end_to_end(RunResult& result, const HostProbe* probe, double setup_s,
                    double peak_mb, double ops_per_s, const Samples& k1,
                    const Samples& k2, const Samples& k3);

}  // namespace perfbench

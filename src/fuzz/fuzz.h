// The differential fuzzing driver behind `sldm fuzz`.
//
// One iteration: derive a per-iteration seed from the master seed,
// compose a random circuit (fuzz/netlist_fuzzer.h), run the static and
// differential oracles (fuzz/oracles.h), then drive a random eco
// script through the incremental-timing identity check.  Failures are
// shrunk (fuzz/shrink.h) and written as replayable repro cases
// (fuzz/repro.h).
//
// Determinism contract: the same FuzzOptions produce the same circuits,
// the same oracle verdicts, and byte-identical report text on every
// platform.  Nothing in a verdict depends on wall clock, scheduling,
// or the filesystem.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "util/units.h"

namespace sldm {

struct FuzzOptions {
  std::uint64_t seed = 1;
  int iterations = 100;
  /// Run the analog-reference oracle every k-th iteration on circuits
  /// small enough (0 disables it; analog runs dominate wall time).
  int analog_every = 0;
  /// Device-count ceiling for the analog oracle.
  std::size_t max_devices_analog = 30;
  /// |signed % error| bound for the RC-tree model vs the analog
  /// reference.  Generous by design: the oracle hunts for wildly wrong
  /// answers, not model accuracy regressions (EXPERIMENTS.md tracks
  /// those).
  double max_analog_error_pct = 150.0;
  /// Where to write shrunk repro cases ("" = don't write files).
  std::string out_dir;
  Seconds input_slope = 1e-9;
};

struct FuzzFailure {
  int iteration = 0;
  std::string oracle;
  std::string circuit;
  std::string detail;
  std::string repro_path;  ///< "" when out_dir was not set
};

struct FuzzReport {
  FuzzOptions options;
  int iterations = 0;
  /// Oracle name -> times it produced a definite verdict (pass/fail).
  std::map<std::string, std::size_t> oracle_runs;
  /// Oracle name -> undecidable cases (X outputs, oscillation, ...).
  std::map<std::string, std::size_t> oracle_skips;
  std::vector<FuzzFailure> failures;

  bool clean() const { return failures.empty(); }
  /// Deterministic multi-line summary (no timings, no paths beyond the
  /// ones the run itself chose).
  std::string to_string() const;
};

/// Runs the campaign.  `log` receives one line per failure as it
/// happens (progress feedback for long runs); the returned report has
/// the full accounting.
FuzzReport run_fuzz(const FuzzOptions& options, std::ostream& log);

/// Replays one `.repro` manifest, or every `*.repro` under a directory
/// (sorted by name).  Reports per-case verdicts to `log`; returns the
/// number of failing cases.
int replay_path(const std::string& path, std::ostream& log);

}  // namespace sldm

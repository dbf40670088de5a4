// Rendering of timing results: arrival summaries and critical paths.
#pragma once

#include <string>

#include "design/session.h"

namespace sldm {

/// A multi-line rendering of a critical path (one event per line).
std::string format_path(const Netlist& nl, const std::vector<PathStep>& path);

/// A table of arrivals at all output-marked nodes.
std::string format_output_arrivals(const Netlist& nl, const Session& session);

/// A table of arrivals at every node that has any (Crystal's full
/// listing); nodes with no arrivals are omitted.
std::string format_all_arrivals(const Netlist& nl, const Session& session);

/// The session's instrumentation report: per-phase wall clock
/// (extraction vs propagation), work counters, incremental-update
/// counters when update() has run, and the design's per-CCC stage
/// census (largest components first, up to `max_cccs` rows).
std::string format_analyzer_stats(const Netlist& nl, const Session& session,
                                  std::size_t max_cccs = 10);

/// One-line JSON object of the stats counters (machine-readable
/// counterpart of format_analyzer_stats, minus the per-CCC census) for
/// scripted perf tracking: `sldm time --stats --json`, `sldm eco
/// --json`, and the compare harness all emit this.
std::string analyzer_stats_json(const AnalyzerStats& stats);

/// Same object with a trailing "metrics" member holding the session's
/// full metrics registry (counters / gauges / histograms; see
/// FORMATS.md).  The scalar fields stay first, so consumers keyed on
/// them are unaffected.
std::string analyzer_stats_json(const Session& session);

}  // namespace sldm

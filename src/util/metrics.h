// A named-metrics registry: monotonic counters, point-in-time gauges,
// and fixed-bucket histograms, addressable by string name.
//
// The timing analyzer's instrumentation stores plain Counter / Gauge /
// Histogram members (one field update per increment -- no map lookup,
// no allocation on the hot path) and materializes them into a named
// registry on demand via TimingAnalyzer::metrics(); the legacy
// AnalyzerStats struct is likewise refreshed from those members -- both
// the registry and the struct are *views* of the same counters.  `sldm
// time --stats --json` and the compare harness (per-ModelResult
// snapshots) dump the whole registry (schema in FORMATS.md).
//
// Registration is not thread-safe; register every metric up front, then
// mutate through the returned references.  Mutation itself is as cheap
// as the underlying field update -- there is no internal locking, so a
// metric must only be written from one thread at a time (the analyzer's
// parallel phases aggregate into per-task locals and flush on the
// coordinating thread).
//
// Maps are node-based (std::map), so references returned by counter() /
// gauge() / histogram() stay valid for the registry's lifetime, and the
// registry is copyable (snapshots for benches and harness results).
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "util/stats.h"

namespace sldm {

/// A monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  void set(std::uint64_t v) { value_ = v; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// A point-in-time measurement (seconds, sizes, ratios).
class Gauge {
 public:
  void set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

class MetricsRegistry {
 public:
  /// The counter named `name`, created zeroed on first use.
  Counter& counter(const std::string& name);

  /// The gauge named `name`, created zeroed on first use.
  Gauge& gauge(const std::string& name);

  /// The histogram named `name`; created with the given bucket layout
  /// on first use.  Subsequent calls must repeat the same layout: a
  /// lo/hi/bins mismatch throws Error instead of silently returning a
  /// histogram whose buckets mean something else.  Precondition (first
  /// call): bins >= 1, hi > lo.
  Histogram& histogram(const std::string& name, double lo, double hi,
                       std::size_t bins);

  /// Folds `other` into this registry with per-type semantics: counters
  /// sum, gauges take `other`'s value (last write wins), histograms sum
  /// per-bucket counts -- throwing Error when a shared name carries a
  /// different bucket layout, before folding anything (a failed merge
  /// leaves this registry unchanged).  Metrics absent on either side
  /// are kept as-is / copied in, so empty ⊕ x == x.
  void merge(const MetricsRegistry& other);

  /// Lookup without creation; nullptr when absent.
  const Counter* find_counter(const std::string& name) const;
  const Gauge* find_gauge(const std::string& name) const;
  const Histogram* find_histogram(const std::string& name) const;

  const std::map<std::string, Counter>& counters() const {
    return counters_;
  }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  /// One JSON object: {"counters":{name:int,...},"gauges":{name:num,...},
  /// "histograms":{name:{"lo":..,"hi":..,"total":..,"mean":..,
  /// "counts":[...]},...}} with names in sorted order (std::map).
  std::string to_json() const;

  /// Human-readable rendering (counters and gauges one per line,
  /// histograms as total/mean plus an ASCII bar chart).
  std::string to_string() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

/// The process-wide registry for components that have no analyzer (or
/// other owner) to hang their metrics on — e.g. the thread pool's
/// suppressed-exception count.  Unlike MetricsRegistry itself, the
/// helpers below are thread-safe.  Direct access through this reference
/// is unsynchronized — readers racing a bump_process_counter() call
/// must go through snapshot_process_metrics() instead.
MetricsRegistry& process_metrics();

/// Thread-safe increment of `process_metrics().counter(name)`.
void bump_process_counter(const std::string& name, std::uint64_t n = 1);

/// A copy of process_metrics() taken under the same mutex
/// bump_process_counter() holds, so it is safe against concurrent
/// bumps.  All readers (stats dumpers, the telemetry hub, tests) use
/// this rather than the live reference.
MetricsRegistry snapshot_process_metrics();

}  // namespace sldm

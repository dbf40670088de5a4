// Shared pieces of the benchmark: clocks, latency samples and the
// percentile rule, failure accounting, the benchmark's own span
// recorder, the answer digest, and the result line.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Steady-clock seconds.
double now_s();

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Returns freed heap pages to the system before a measured phase, so
/// its peak RSS does not depend on how set-up fragmented the heap.
void release_free_memory();

/// A benchmark-owned measure of how fast the host runs right now, taken
/// at quiet points of a run -- with no engine work in flight.  Shared
/// hosts switch between speed regimes for minutes at a time; README.md
/// ("Host-speed scaling") shows how timings scaled by a probe hold steady
/// across them.
class HostProbe {
 public:
  enum class Kind {
    /// Sorts a fixed array of 64Ki pseudo-random integers (fastest of
    /// three); reference 5.0 ms.
    kSort,
    /// 400 eliminations of a 12x12 system filled from exp() (fastest of
    /// three), a small dense Newton step like the analog engine's;
    /// reference 0.65 ms.
    kFloat,
  };

  explicit HostProbe(Kind kind = Kind::kSort) : kind_(kind) {}

  /// The probe time the scaled timings are expressed at.
  double reference_ms() const { return kind_ == Kind::kSort ? 5.0 : 0.65; }
  /// Times one probe, keeps it, and returns it in ms.
  double sample();
  /// Median probe time of the run, in ms.  Precondition: sampled.
  double median_ms() const;
  /// Factor taking a duration measured in this run to the reference
  /// speed: reference_ms() / median_ms().
  double scale() const { return reference_ms() / median_ms(); }
  std::size_t samples() const { return ms_.size(); }

 private:
  Kind kind_;
  std::vector<double> ms_;
  std::vector<std::uint32_t> keys_;
};

/// Latency samples of one operation kind, in seconds.  A failed
/// operation is recorded as +inf: it misses every latency limit and is
/// never dropped from the percentiles.
class Samples {
 public:
  void add(double seconds) { values_.push_back(seconds); }
  void add_failure();
  void append(const Samples& other);
  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  /// Nearest-rank quantile (q in (0, 1]).  Precondition: !empty().
  double quantile(double q) const;
  double median() const { return quantile(0.5); }  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
};

/// Latency samples, each with the host probe taken right before it.
struct ProbedSamples {
  Samples seconds;
  std::vector<double> probe_ms;

  void add(double probe, double s) {
    probe_ms.push_back(probe);
    seconds.add(s);
  }
  void add_failure(double probe) {
    probe_ms.push_back(probe);
    seconds.add_failure();
  }
  std::size_t size() const { return probe_ms.size(); }
  /// The samples as they would read at probe time `at_ms`: each one
  /// multiplied by at_ms over the probe taken before it.
  Samples at_probe(double at_ms) const;
};

/// The highest of the levels 0.5, 0.9, 0.99 and 0.999 whose nearest-rank
/// quantile of `n` samples leaves at least ten samples beyond it, or
/// nullopt when even the median does not.
std::optional<double> highest_supported_level(std::size_t n);

/// Operations attempted and failed, with failures counted by name
/// (serve error envelope, "exit-<code>" for the CLI, "numerical" for
/// the analog engine).
struct Counts {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::uint64_t> failures;

  void ok() { ++attempted; }
  void fail(const std::string& name);
  void merge(const Counts& other);
};

/// The benchmark's spans around calls into the engine's layers, recorded
/// through the engine's process-wide sldm::Tracer (kept in memory,
/// written as Chrome trace-event JSON at exit) with the span's id, its
/// parent's id and the request id as numeric args; plus named counts.
/// An enabled Tracer clears and switches on sldm::Tracer for its
/// lifetime, so the engine's own spans (propagate, extract, ...) land in
/// the same trace.  A disabled one records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  /// Allocates a span id (0 when disabled).
  int next_id() { return enabled_ ? ++last_id_ : 0; }
  /// Adds one observation of a named count or derived quantity.
  void count(const std::string& name, double value);
  /// Every observation of a count.
  std::vector<double> counts(const std::string& name) const;

 private:
  bool enabled_;
  std::atomic<int> last_id_{0};
  mutable std::mutex mutex_;
  std::map<std::string, std::vector<double>> counts_;
};

/// Self seconds of every benchmark span in a Chrome trace-event document,
/// by span name: duration minus the union of its children's intervals,
/// clipped to its own.  Spans without an "id" arg (the engine's) are
/// neither parents nor children here.
std::map<std::string, std::vector<double>> self_seconds(
    const std::string& trace_json);

/// RAII span.  `name` must be a string literal ("layer.call"); its layer
/// prefix becomes the trace category.  The duration is measured whether
/// or not tracing is on.
class Span {
 public:
  Span(Tracer& tracer, const char* name, int parent = -1,
       std::uint64_t request = 0);
  ~Span() { end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  int id() const { return id_; }
  /// Closes the span now and returns its duration in seconds.
  double end();

 private:
  Tracer& tracer_;
  const char* name_;
  int id_;
  int parent_;
  std::uint64_t request_;
  double t0_us_;
  double dur_us_ = 0.0;
  bool open_ = true;
};

/// Times one call: returns its wall seconds and records a span when
/// tracing is on.
template <typename F>
double timed(Tracer& tracer, const char* name, int parent,
             std::uint64_t request, F&& fn) {
  Span span(tracer, name, parent, request);
  fn();
  return span.end();
}

/// Exact answers a perf change must not move, printed one per line and
/// folded into a 64-bit FNV-1a hash.
class Digest {
 public:
  void add(const std::string& key, const std::string& value);
  void add(const std::string& key, double value);  ///< %.17g
  std::string hex() const;
  const std::vector<std::pair<std::string, std::string>>& entries() const {
    return entries_;
  }

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

/// A metric value with its unit, in BENCHMARK.json order.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// What a workload run hands back to main().
struct RunResult {
  bool correct = true;
  std::vector<std::string> gate_failures;
  Counts counts;
  std::vector<Metric> end_to_end;  ///< measured with tracing off
  /// Per-layer values by metric name (from the traced phase).
  std::map<std::string, double> layers;
  Digest digest;
  /// Chrome trace-event JSON of the traced phase (empty untraced).
  std::string trace_json;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> notes;

  void gate(bool ok, const std::string& what);
  void note(const std::string& line) { notes.push_back(line); }
};

/// Workload parameters from the command line.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< working directory for generated files
};

/// Median of a vector (0 when empty).
double median_of(std::vector<double> v);

/// Renders a double for JSON: %.17g, with non-finite values clamped to
/// +-1e308 so a failure never produces invalid JSON.
std::string json_double(double v);

/// printf-style formatting into a std::string.
std::string fmt(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

/// The per-layer metrics, in BENCHMARK.json order -- the single table
/// the traced result line and the printed per-layer view follow.  A
/// metric is the median of the observations counted under its name, or
/// else the median self time of the spans named like it without the
/// unit suffix ("netlist.read_sim_s" <- spans "netlist.read_sim").
struct LayerMetric {
  const char* name;
  const char* unit;
};
const std::vector<LayerMetric>& layer_metrics();

/// Fills result.trace_json from sldm::Tracer and result.layers from it
/// and the counts: span self times (scaled to each metric's unit) and
/// counts, with 0 for layers this workload does not exercise.
void collect_layers(const Tracer& tracer, RunResult& result);

}  // namespace perfbench

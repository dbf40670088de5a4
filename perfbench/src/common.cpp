#include "common.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <limits>

#include "util/json.h"
#include "util/trace.h"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void release_free_memory() { malloc_trim(0); }

namespace {

/// Eliminates 400 12x12 systems whose entries come from exp(); returns
/// their last pivots' sum so the work cannot be optimized away.
double eliminate_small_systems() {
  constexpr int n = 12;
  double a[n][n];
  double sum = 0.0;
  for (int k = 0; k < 400; ++k) {
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        a[i][j] = std::exp(-0.1 * (i + j + k % 7)) + (i == j ? n : 0);
      }
    }
    for (int p = 0; p < n; ++p) {
      for (int i = p + 1; i < n; ++i) {
        const double f = a[i][p] / a[p][p];
        for (int j = p; j < n; ++j) a[i][j] -= f * a[p][j];
      }
    }
    sum += a[n - 1][n - 1];
  }
  return sum;
}

}  // namespace

double HostProbe::sample() {
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    if (kind_ == Kind::kFloat) {
      const double t0 = now_s();
      volatile double sink = eliminate_small_systems();
      (void)sink;
      best = std::min(best, now_s() - t0);
      continue;
    }
    // The array is allocated once and refilled from a fixed generator,
    // so every probe does identical work on the same memory.
    keys_.resize(std::size_t{1} << 16);
    std::uint64_t state = 0x9e3779b97f4a7c15ull;
    for (std::uint32_t& k : keys_) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      k = static_cast<std::uint32_t>(state >> 32);
    }
    const double t0 = now_s();
    std::sort(keys_.begin(), keys_.end());
    best = std::min(best, now_s() - t0);
  }
  ms_.push_back(best * 1e3);
  return ms_.back();
}

double HostProbe::median_ms() const { return median_of(ms_); }

void Samples::add_failure() {
  values_.push_back(std::numeric_limits<double>::infinity());
}

void Samples::append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::quantile(double q) const {
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const auto n = static_cast<double>(sorted.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

Samples ProbedSamples::at_probe(double at_ms) const {
  Samples out;
  for (std::size_t i = 0; i < size(); ++i) {
    out.add(seconds.values()[i] * at_ms / probe_ms[i]);
  }
  return out;
}

std::optional<double> highest_supported_level(std::size_t n) {
  std::optional<double> best;
  for (double level : {0.5, 0.9, 0.99, 0.999}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(level * static_cast<double>(n) - 1e-9));
    if (n >= 1 && rank >= 1 && n - rank >= 10) best = level;
  }
  return best;
}

void Counts::fail(const std::string& name) {
  ++attempted;
  ++failed;
  ++failures[name];
}

void Counts::merge(const Counts& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (const auto& [name, n] : other.failures) failures[name] += n;
}

Tracer::Tracer(bool enabled) : enabled_(enabled) {
  if (!enabled_) return;
  sldm::Tracer::instance().clear();
  sldm::Tracer::instance().enable();
}

Tracer::~Tracer() {
  if (enabled_) sldm::Tracer::instance().disable();
}

void Tracer::count(const std::string& name, double value) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  counts_[name].push_back(value);
}

std::vector<double> Tracer::counts(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counts_.find(name);
  return it == counts_.end() ? std::vector<double>{} : it->second;
}

std::map<std::string, std::vector<double>> self_seconds(
    const std::string& trace_json) {
  struct Event {
    std::string name;
    double t0, t1;
    int id;
  };
  std::vector<Event> events;
  std::map<int, std::vector<std::pair<double, double>>> children;
  // The events are parsed one at a time: a traced serve run holds about
  // half a million engine spans, and a whole-document parse of them
  // would take gigabytes.
  std::vector<std::string_view> texts;
  const std::string_view doc(trace_json);
  std::size_t i = doc.find('[', doc.find("\"traceEvents\""));
  int depth = 0;
  std::size_t start = 0;
  for (bool in_string = false; i != std::string_view::npos && ++i < doc.size();) {
    const char c = doc[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      if (depth++ == 0) start = i;
    } else if (c == '}') {
      if (--depth == 0) texts.push_back(doc.substr(start, i - start + 1));
    } else if (c == ']' && depth == 0) {
      break;
    }
  }
  for (const std::string_view text : texts) {
    if (text.find("\"id\"") == std::string_view::npos) continue;
    const sldm::JsonValue e = sldm::parse_json(text);
    const sldm::JsonValue* args = e.find("args");
    const sldm::JsonValue* id = args ? args->find("id") : nullptr;
    if (e.at("ph").as_string() != "X" || id == nullptr) continue;
    const double t0 = e.at("ts").as_number() * 1e-6;
    const double t1 = t0 + e.at("dur").as_number() * 1e-6;
    const int parent = static_cast<int>(args->at("parent").as_number());
    if (parent > 0) children[parent].push_back({t0, t1});
    events.push_back(
        {e.at("name").as_string(), t0, t1, static_cast<int>(id->as_number())});
  }
  std::map<std::string, std::vector<double>> out;
  for (const Event& r : events) {
    double covered = 0.0;
    auto it = children.find(r.id);
    if (it != children.end()) {
      // Union of the children's intervals, clipped to the parent.
      auto spans = it->second;
      std::sort(spans.begin(), spans.end());
      double reach = r.t0;
      for (auto [a, b] : spans) {
        a = std::max(a, reach);
        b = std::min(b, r.t1);
        if (b > a) {
          covered += b - a;
          reach = b;
        }
      }
    }
    out[r.name].push_back(std::max(0.0, (r.t1 - r.t0) - covered));
  }
  return out;
}

namespace {

/// The layer prefix of a span name, as a literal (sldm::Tracer stores
/// categories as pointers).
const char* category_of(const char* name) {
  static const char* const kLayers[] = {"cli",    "netlist", "calib",
                                        "timing", "design",  "delay",
                                        "serve",  "util",    "compare",
                                        "analog"};
  for (const char* layer : kLayers) {
    const std::size_t n = std::strlen(layer);
    if (std::strncmp(name, layer, n) == 0 && name[n] == '.') return layer;
  }
  return "bench";
}

}  // namespace

Span::Span(Tracer& tracer, const char* name, int parent,
           std::uint64_t request)
    : tracer_(tracer),
      name_(name),
      id_(tracer.next_id()),
      parent_(parent),
      request_(request),
      t0_us_(sldm::Tracer::instance().now_us()) {}

double Span::end() {
  if (open_) {
    sldm::Tracer& tr = sldm::Tracer::instance();
    dur_us_ = tr.now_us() - t0_us_;
    open_ = false;
    if (tracer_.enabled()) {
      tr.record(name_, category_of(name_), t0_us_, dur_us_,
                {{"id", static_cast<double>(id_)},
                 {"parent", static_cast<double>(parent_)},
                 {"request", static_cast<double>(request_)}});
    }
  }
  return dur_us_ * 1e-6;
}

void Digest::add(const std::string& key, const std::string& value) {
  entries_.push_back({key, value});
}

void Digest::add(const std::string& key, double value) {
  add(key, fmt("%.17g", value));
}

std::string Digest::hex() const {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 0x100000001b3ull;
    }
    h ^= 0xff;
    h *= 0x100000001b3ull;
  };
  for (const auto& [k, v] : entries_) {
    mix(k);
    mix(v);
  }
  return fmt("%016llx", static_cast<unsigned long long>(h));
}

void RunResult::gate(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  gate_failures.push_back(what);
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string json_double(double v) {
  if (std::isnan(v)) v = 1e308;
  v = std::clamp(v, -1e308, 1e308);
  return fmt("%.17g", v);
}

std::string fmt(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list copy;
  va_copy(copy, args);
  const int n = std::vsnprintf(nullptr, 0, format, copy);
  va_end(copy);
  std::string out(static_cast<std::size_t>(std::max(n, 0)) + 1, '\0');
  std::vsnprintf(out.data(), out.size(), format, args);
  va_end(args);
  out.resize(static_cast<std::size_t>(std::max(n, 0)));
  return out;
}

const std::vector<LayerMetric>& layer_metrics() {
  // Span names are the metric names without their unit suffix; every
  // other entry is a count or a derived value recorded under its full
  // name.  The order groups metrics by layer.
  static const std::vector<LayerMetric> metrics = {
      {"cli.other_s", "s"},
      {"cli.compile_other_s", "s"},
      {"cli.load_other_s", "s"},
      {"netlist.read_sim_s", "s"},
      {"netlist.devices", "count"},
      {"netlist.apply_eco_us", "us"},
      {"calib.calibrate_s", "s"},
      {"timing.partition_s", "s"},
      {"timing.extract_s", "s"},
      {"timing.extract_t4_s", "s"},
      {"timing.stages", "count"},
      {"timing.cccs", "count"},
      {"timing.report_ms", "ms"},
      {"timing.explain_ms", "ms"},
      {"timing.eco_update_ms", "ms"},
      {"timing.eco_dirty_cccs", "count"},
      {"timing.eco_reextracted_stages", "count"},
      {"timing.eco_reused_stages", "count"},
      {"timing.eco_frontier_keys", "count"},
      {"design.compile_s", "s"},
      {"design.compile_t4_s", "s"},
      {"design.bake_s", "s"},
      {"design.serialize_s", "s"},
      {"design.write_s", "s"},
      {"design.read_s", "s"},
      {"design.deserialize_s", "s"},
      {"design.snapshot_bytes", "B"},
      {"design.propagate_ms", "ms"},
      {"design.batches", "count"},
      {"design.fingerprint_ms", "ms"},
      {"delay.stage_evaluations", "count"},
      {"serve.time_p99_ms", "ms"},
      {"serve.eco_p90_ms", "ms"},
      {"serve.parse_request_us", "us"},
      {"serve.lease_us", "us"},
      {"serve.other_ms", "ms"},
      {"serve.explain_other_ms", "ms"},
      {"serve.eco_other_ms", "ms"},
      {"serve.stats_other_ms", "ms"},
      {"serve.drift_ratio", "ratio"},
      {"util.telemetry_snapshots", "count"},
      {"util.telemetry_publish_us", "us"},
      {"util.session_publish_us", "us"},
      {"util.telemetry_aggregate_ms", "ms"},
      {"compare.slope_err_pct", "%"},
      {"compare.reference_ms", "ms"},
      {"compare.analyze_ms", "ms"},
      {"compare.other_ms", "ms"},
      {"analog.refsim_s", "s"},
      {"analog.elaborate_ms", "ms"},
      {"analog.dc_op_ms", "ms"},
      {"analog.dense_transient_ms", "ms"},
      {"analog.sparse_transient_ms", "ms"},
      {"analog.newton_iterations", "count"},
      {"analog.accepted_steps", "count"},
      {"analog.rejected_steps", "count"},
      {"analog.us_per_newton_iter", "us"},
      {"analog.failures", "count"},
      {"analog.other_ms", "ms"},
      {"bench.trace_overhead_pct", "%"},
  };
  return metrics;
}

namespace {

double unit_scale(const std::string& unit) {
  if (unit == "ms") return 1e3;
  if (unit == "us") return 1e6;
  return 1.0;
}

std::string span_name(const std::string& metric, const std::string& unit) {
  const std::string suffix = "_" + unit;
  if (metric.size() > suffix.size() &&
      metric.compare(metric.size() - suffix.size(), suffix.size(), suffix) ==
          0) {
    return metric.substr(0, metric.size() - suffix.size());
  }
  return metric;
}

}  // namespace

void collect_layers(const Tracer& tracer, RunResult& result) {
  result.trace_json = sldm::Tracer::instance().to_json();
  const auto self = self_seconds(result.trace_json);
  for (const LayerMetric& m : layer_metrics()) {
    const std::vector<double> counted = tracer.counts(m.name);
    if (!counted.empty()) {
      result.layers[m.name] = median_of(counted);
      continue;
    }
    const auto it = self.find(span_name(m.name, m.unit));
    result.layers[m.name] =
        it == self.end() ? 0.0 : median_of(it->second) * unit_scale(m.unit);
  }
}

}  // namespace perfbench

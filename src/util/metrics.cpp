#include "util/metrics.h"

#include <mutex>
#include <sstream>

#include "util/error.h"
#include "util/json.h"
#include "util/strings.h"

namespace sldm {

Counter& MetricsRegistry::counter(const std::string& name) {
  return counters_[name];
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  return gauges_[name];
}

Histogram& MetricsRegistry::histogram(const std::string& name, double lo,
                                      double hi, std::size_t bins) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) {
    if (!it->second.same_layout(Histogram(lo, hi, bins))) {
      throw Error(format(
          "histogram '%s' re-registered with mismatched bucket layout: "
          "have [%g, %g] x %zu, requested [%g, %g] x %zu",
          name.c_str(), it->second.lo(), it->second.hi(),
          it->second.bins(), lo, hi, bins));
    }
    return it->second;
  }
  return histograms_.emplace(name, Histogram(lo, hi, bins)).first->second;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  // Every layout is checked before anything is folded, so a mismatch
  // leaves this registry unchanged.
  for (const auto& [name, h] : other.histograms_) {
    const auto it = histograms_.find(name);
    if (it == histograms_.end() || it->second.same_layout(h)) continue;
    try {
      Histogram(it->second).merge(h);  // throws, naming both layouts
    } catch (const Error& e) {
      throw Error("merging histogram '" + name + "': " + e.what());
    }
  }
  for (const auto& [name, c] : other.counters_) {
    counters_[name].add(c.value());
  }
  for (const auto& [name, g] : other.gauges_) {
    gauges_[name].set(g.value());
  }
  for (const auto& [name, h] : other.histograms_) {
    const auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      histograms_.emplace(name, h);
    } else {
      it->second.merge(h);
    }
  }
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* MetricsRegistry::find_gauge(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

const Histogram* MetricsRegistry::find_histogram(
    const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

std::string MetricsRegistry::to_json() const {
  std::ostringstream os;
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) os << ',';
    first = false;
    os << format("\"%s\":%llu", json_escape(name).c_str(),
                 static_cast<unsigned long long>(c.value()));
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) os << ',';
    first = false;
    os << format("\"%s\":", json_escape(name).c_str())
       << json_number(g.value());
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) os << ',';
    first = false;
    os << format("\"%s\":{\"lo\":", json_escape(name).c_str())
       << json_number(h.bin_lo(0)) << ",\"hi\":"
       << json_number(h.bin_hi(h.bins() - 1))
       << format(",\"total\":%zu,\"mean\":", h.total())
       << json_number(h.mean()) << ",\"counts\":[";
    for (std::size_t b = 0; b < h.bins(); ++b) {
      if (b > 0) os << ',';
      os << h.count(b);
    }
    os << "]}";
  }
  os << "}}";
  return os.str();
}

namespace {
std::mutex& process_metrics_mutex() {
  static std::mutex mutex;
  return mutex;
}
}  // namespace

MetricsRegistry& process_metrics() {
  static MetricsRegistry registry;
  return registry;
}

void bump_process_counter(const std::string& name, std::uint64_t n) {
  std::lock_guard<std::mutex> lock(process_metrics_mutex());
  process_metrics().counter(name).add(n);
}

MetricsRegistry snapshot_process_metrics() {
  std::lock_guard<std::mutex> lock(process_metrics_mutex());
  return process_metrics();
}

std::string MetricsRegistry::to_string() const {
  std::ostringstream os;
  for (const auto& [name, c] : counters_) {
    os << format("  %-32s %llu\n", name.c_str(),
                 static_cast<unsigned long long>(c.value()));
  }
  for (const auto& [name, g] : gauges_) {
    os << format("  %-32s %.6g\n", name.c_str(), g.value());
  }
  for (const auto& [name, h] : histograms_) {
    os << format("  %-32s total %zu, mean %.4g\n", name.c_str(), h.total(),
                 h.mean());
    if (h.total() > 0) os << h.to_ascii(40);
  }
  return os.str();
}

}  // namespace sldm

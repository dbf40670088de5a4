#include "util/telemetry.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "util/strings.h"

namespace sldm {
namespace {

/// A Prometheus sample value: finite doubles in shortest round-trip
/// form, non-finite as the exposition-format spellings (unlike JSON,
/// the format has them).
std::string prom_number(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  return format("%.17g", v);
}

/// A label-value literal: backslash, quote, and newline escaped per the
/// exposition format.
std::string escape_label_value(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (const char c : v) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

/// `{labels}` / `{labels,extra}` / `{extra}` / `` as applicable.
std::string braced(const std::string& label_text, const std::string& extra) {
  if (label_text.empty() && extra.empty()) return "";
  std::string body = label_text;
  if (!extra.empty()) {
    if (!body.empty()) body += ',';
    body += extra;
  }
  return "{" + body + "}";
}

void render_counter(std::ostream& os, const std::string& name,
                    const std::string& label_text, const Counter& c) {
  os << name << braced(label_text, "") << ' ' << c.value() << '\n';
}

void render_gauge(std::ostream& os, const std::string& name,
                  const std::string& label_text, const Gauge& g) {
  os << name << braced(label_text, "") << ' ' << prom_number(g.value())
     << '\n';
}

void render_histogram(std::ostream& os, const std::string& name,
                      const std::string& label_text, const Histogram& h) {
  std::size_t cumulative = 0;
  for (std::size_t b = 0; b < h.bins(); ++b) {
    cumulative += h.count(b);
    os << name << "_bucket"
       << braced(label_text,
                 "le=\"" + prom_number(h.bin_hi(b)) + "\"")
       << ' ' << cumulative << '\n';
  }
  os << name << "_bucket" << braced(label_text, "le=\"+Inf\"") << ' '
     << h.total() << '\n';
  os << name << "_sum" << braced(label_text, "") << ' '
     << prom_number(h.sum()) << '\n';
  os << name << "_count" << braced(label_text, "") << ' ' << h.total()
     << '\n';
}

/// Strict weak order over label identities, the deterministic merge
/// order for aggregate(): vectors of snapshots sorted with this are a
/// pure function of the stored set, independent of publish order.
bool labels_before(const TelemetryLabels& a, const TelemetryLabels& b) {
  if (a.session != b.session) return a.session < b.session;
  if (a.model != b.model) return a.model < b.model;
  if (a.threads != b.threads) return a.threads < b.threads;
  return a.request < b.request;
}

void sort_by_labels(
    std::vector<std::pair<TelemetryLabels, MetricsRegistry>>& snaps) {
  std::stable_sort(snaps.begin(), snaps.end(),
                   [](const auto& a, const auto& b) {
                     return labels_before(a.first, b.first);
                   });
}

}  // namespace

std::string prometheus_name(const std::string& name) {
  std::string out = "sldm_";
  out.reserve(out.size() + name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

std::string prometheus_labels(const TelemetryLabels& labels) {
  std::string out =
      format("session=\"%s\",model=\"%s\",threads=\"%d\"",
             escape_label_value(labels.session).c_str(),
             escape_label_value(labels.model).c_str(), labels.threads);
  if (!labels.request.empty()) {
    out += format(",request=\"%s\"",
                  escape_label_value(labels.request).c_str());
  }
  return out;
}

std::string to_prometheus(const MetricsRegistry& registry,
                          const std::string& label_text) {
  std::ostringstream os;
  for (const auto& [name, c] : registry.counters()) {
    const std::string prom = prometheus_name(name) + "_total";
    os << "# TYPE " << prom << " counter\n";
    render_counter(os, prom, label_text, c);
  }
  for (const auto& [name, g] : registry.gauges()) {
    const std::string prom = prometheus_name(name);
    os << "# TYPE " << prom << " gauge\n";
    render_gauge(os, prom, label_text, g);
  }
  for (const auto& [name, h] : registry.histograms()) {
    const std::string prom = prometheus_name(name);
    os << "# TYPE " << prom << " histogram\n";
    render_histogram(os, prom, label_text, h);
  }
  return os.str();
}

TelemetryHub& TelemetryHub::instance() {
  static TelemetryHub hub;
  return hub;
}

TelemetryHub::Snapshots::iterator TelemetryHub::find_locked(
    const TelemetryLabels& labels) {
  return std::find_if(snapshots_.begin(), snapshots_.end(),
                      [&labels](const auto& s) { return s.first == labels; });
}

void TelemetryHub::publish(const TelemetryLabels& labels,
                           const MetricsRegistry& registry) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto stored = find_locked(labels);
  if (stored != snapshots_.end()) {
    stored->second = registry;
    return;
  }
  snapshots_.emplace_back(labels, registry);
}

void TelemetryHub::retire(const TelemetryLabels& labels) {
  TelemetryLabels rollup_labels = labels;
  rollup_labels.session = kRetiredSession;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto live = find_locked(labels);
  if (live == snapshots_.end()) return;
  const auto rollup = find_locked(rollup_labels);
  if (rollup == snapshots_.end()) {
    live->first = std::move(rollup_labels);
    return;
  }
  rollup->second.merge(live->second);
  snapshots_.erase(live);
}

std::vector<std::pair<TelemetryLabels, MetricsRegistry>>
TelemetryHub::snapshots() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return snapshots_;
}

std::size_t TelemetryHub::snapshot_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return snapshots_.size();
}

MetricsRegistry TelemetryHub::aggregate() const {
  auto snaps = snapshots();
  sort_by_labels(snaps);
  MetricsRegistry merged;
  for (const auto& [labels, registry] : snaps) {
    merged.merge(registry);
  }
  return merged;
}

void TelemetryHub::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  snapshots_.clear();
}

std::string TelemetryHub::to_string() const {
  auto snaps = snapshots();
  std::ostringstream os;
  os << "telemetry hub: " << snaps.size() << " snapshot(s)\n";
  for (const auto& [labels, registry] : snaps) {
    os << format("\n[session=\"%s\" model=\"%s\" threads=%d",
                 labels.session.c_str(), labels.model.c_str(),
                 labels.threads);
    if (!labels.request.empty()) {
      os << format(" request=\"%s\"", labels.request.c_str());
    }
    os << "]\n" << registry.to_string();
  }
  if (snaps.size() > 1) {
    // Fold in sorted label order (same as aggregate()) so the rendered
    // aggregate never depends on which publisher raced in first.
    sort_by_labels(snaps);
    MetricsRegistry merged;
    for (const auto& [labels, registry] : snaps) merged.merge(registry);
    os << "\naggregate over all snapshots:\n" << merged.to_string();
  }
  return os.str();
}

LiveSnapshot::~LiveSnapshot() {
  if (!labels_) return;
  try {
    TelemetryHub::instance().retire(*labels_);
  } catch (...) {
    // retire() leaves the hub unchanged when it throws: the snapshot
    // stays live, its counts still aggregated.  Count the failure for
    // operators; nothing may leave a destructor.
    try {
      bump_process_counter("telemetry.retire_failures");
    } catch (...) {
    }
  }
}

void LiveSnapshot::publish(TelemetryLabels labels,
                           const MetricsRegistry& registry) {
  TelemetryHub& hub = TelemetryHub::instance();
  if (labels_ && !(*labels_ == labels)) hub.retire(*labels_);
  hub.publish(labels, registry);
  labels_ = std::move(labels);
}

std::string TelemetryHub::to_prometheus() const {
  const auto snaps = snapshots();
  // The exposition format wants each family's `# TYPE` line exactly
  // once, with every labeled sample grouped under it -- so pivot from
  // per-snapshot registries to per-name sample lists first.
  std::map<std::string, std::vector<std::pair<std::string, Counter>>>
      counters;
  std::map<std::string, std::vector<std::pair<std::string, Gauge>>> gauges;
  std::map<std::string, std::vector<std::pair<std::string, Histogram>>>
      histograms;
  for (const auto& [labels, registry] : snaps) {
    const std::string label_text = prometheus_labels(labels);
    for (const auto& [name, c] : registry.counters()) {
      counters[name].emplace_back(label_text, c);
    }
    for (const auto& [name, g] : registry.gauges()) {
      gauges[name].emplace_back(label_text, g);
    }
    for (const auto& [name, h] : registry.histograms()) {
      histograms[name].emplace_back(label_text, h);
    }
  }
  std::ostringstream os;
  for (const auto& [name, samples] : counters) {
    const std::string prom = prometheus_name(name) + "_total";
    os << "# TYPE " << prom << " counter\n";
    for (const auto& [label_text, c] : samples) {
      render_counter(os, prom, label_text, c);
    }
  }
  for (const auto& [name, samples] : gauges) {
    const std::string prom = prometheus_name(name);
    os << "# TYPE " << prom << " gauge\n";
    for (const auto& [label_text, g] : samples) {
      render_gauge(os, prom, label_text, g);
    }
  }
  for (const auto& [name, samples] : histograms) {
    const std::string prom = prometheus_name(name);
    os << "# TYPE " << prom << " histogram\n";
    for (const auto& [label_text, h] : samples) {
      render_histogram(os, prom, label_text, h);
    }
  }
  return os.str();
}

}  // namespace sldm

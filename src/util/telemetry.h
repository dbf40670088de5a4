// Process-wide telemetry: labeled metric snapshots and Prometheus
// text exposition.
//
// Per-session metrics (design/session.h) die with their session, which
// is the wrong lifetime for a process serving many analyses: fleet
// questions ("how much propagation work has this process done, across
// which models and request kinds?") need an aggregation point that
// outlives any one session.  The TelemetryHub is that point: Sessions
// publish a labeled snapshot of their registry at run()/update()
// completion, the ECO and compile paths do the same, and observers
// (`sldm stats`, the Prometheus renderer) read the hub instead of
// chasing individual sessions.
//
// The hub's size follows its live publishers, not its history.  A
// session's snapshot stays live under `session="s<id>"` while the
// session exists; when the session is destroyed its LiveSnapshot
// retires it: the stored registry is merged into one rollup per
// (model, threads, request) labeled `session="retired"`.  A server that
// answers a million requests therefore holds its in-flight sessions,
// one rollup per request kind, and its fixed publishers -- a few dozen
// entries -- so publish() and aggregate() stay cheap however long it
// runs.
//
// Design constraints, in order:
//   * Zero hot-path cost when disabled.  The hub is off by default;
//     publish() is gated on one relaxed atomic load, so instrumented
//     code (Session::run) pays nothing measurable when nobody is
//     listening (bench_table5_runtime overhead within noise,
//     EXPERIMENTS.md).  The CLI enables the hub for its analysis
//     commands.
//   * Thread-safe.  publish()/retire()/snapshots()/aggregate()/clear()
//     take an internal mutex; N concurrent sessions may publish and
//     retire while another thread renders (tsan-covered in
//     tests/telemetry_test.cpp and scripts/check.sh).
//   * Snapshots replace, aggregation merges.  A session's registry is
//     cumulative over its lifetime, so re-publishing under the same
//     labels *replaces* the stored snapshot (summing would double
//     count); aggregate() then merges *across* label sets with
//     MetricsRegistry::merge semantics (sum counters, sum histogram
//     buckets, last-write gauges).  Retirement uses the same merge, so
//     counter sums and histogram bucket counts are unchanged by it; a
//     rollup's gauges hold the last retired session's values.
//
// The Prometheus renderer (text exposition format v0.0.4) serializes
// any MetricsRegistry -- or the whole hub, labels included -- as
// `# TYPE`-annotated families: counters (`sldm_<name>_total`), gauges,
// and cumulative `_bucket/_sum/_count` histogram series.  Metric names
// are sanitized to [a-zA-Z_:][a-zA-Z0-9_:]*; schema in FORMATS.md
// section 13.
#pragma once

#include <atomic>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/metrics.h"

namespace sldm {

/// The `session` label of the per-kind rollups retired sessions merge
/// into (TelemetryHub::retire).
inline constexpr const char* kRetiredSession = "retired";

/// The identity of one published snapshot.  Equal labels replace each
/// other in the hub; distinct labels aggregate.
struct TelemetryLabels {
  TelemetryLabels() = default;
  TelemetryLabels(std::string session_, std::string model_, int threads_,
                  std::string request_ = std::string())
      : session(std::move(session_)),
        model(std::move(model_)),
        threads(threads_),
        request(std::move(request_)) {}

  std::string session;  ///< publisher id: "s12", "retired", "compile", ...
  std::string model;    ///< DelayModel::name(), "-" when not applicable
  /// Every engine publisher leaves it at 1; perfbench/ still sets it,
  /// and the next benchmark change removes the label.
  int threads = 1;
  /// Serve-traffic request kind ("time", "eco", ...); empty outside the
  /// service, in which case the label is omitted from renderings.
  std::string request;

  bool operator==(const TelemetryLabels& o) const {
    return session == o.session && model == o.model &&
           threads == o.threads && request == o.request;
  }
};

/// `name` sanitized for Prometheus and prefixed "sldm_": every
/// character outside [a-zA-Z0-9_:] becomes '_'
/// ("propagate.batch_size" -> "sldm_propagate_batch_size").
std::string prometheus_name(const std::string& name);

/// Renders one registry in Prometheus text-exposition v0.0.4.
/// `label_text` is the pre-rendered label body (e.g.
/// `session="s1",model="slope",threads="1"`), empty for no labels.
/// Counters gain the conventional `_total` suffix; histograms emit
/// cumulative `_bucket{le=...}` series (the layout clamps out-of-range
/// samples into the edge buckets, so the last finite `le` already
/// equals `_count`) plus `_sum`/`_count`.
std::string to_prometheus(const MetricsRegistry& registry,
                          const std::string& label_text = std::string());

/// The label body for `labels` (values backslash-escaped per the
/// exposition format).
std::string prometheus_labels(const TelemetryLabels& labels);

class TelemetryHub {
 public:
  /// The process-wide hub.
  static TelemetryHub& instance();

  /// Off by default; when disabled, publish() is a no-op after one
  /// relaxed atomic load.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void enable() { enabled_.store(true, std::memory_order_relaxed); }
  void disable() { enabled_.store(false, std::memory_order_relaxed); }

  /// Stores a copy of `registry` under `labels`, replacing any earlier
  /// snapshot with equal labels (publishers re-publish cumulative
  /// registries).  No-op when disabled.  Thread-safe.
  void publish(const TelemetryLabels& labels, const MetricsRegistry& registry);

  /// Moves the live snapshot stored under `labels` into the rollup
  /// labeled {kRetiredSession, model, threads, request}: the stored
  /// registry is merged into the rollup (MetricsRegistry::merge) and the
  /// live entry removed, or simply relabeled when no rollup exists yet.
  /// No-op when nothing is stored under `labels` (never published, or
  /// cleared since).  Works whether or not the hub is enabled: it only
  /// moves what is already stored.  Thread-safe.  Throws Error, with
  /// the hub unchanged, if the rollup holds a histogram of the same
  /// name with a different bucket layout.
  void retire(const TelemetryLabels& labels);

  /// Copies of every stored (labels, registry) pair, in first-publish
  /// order (a rollup keeps the place of the first session retired into
  /// it).  Thread-safe.
  std::vector<std::pair<TelemetryLabels, MetricsRegistry>> snapshots() const;
  std::size_t snapshot_count() const;

  /// All snapshots folded into one registry with MetricsRegistry::merge
  /// semantics.  The fold visits snapshots in sorted label order
  /// (session, model, threads, request) -- NOT publish order -- so the
  /// merge is a pure function of the stored snapshots: last-write gauge
  /// resolution cannot depend on which publisher raced in first, and
  /// repeated `sldm stats` renders of the same hub state agree.
  /// Thread-safe; throws Error if two publishers registered the same
  /// histogram name with different bucket layouts.
  MetricsRegistry aggregate() const;

  /// Drops every snapshot (the enabled flag is untouched).
  void clear();

  /// Human-readable rendering: one section per snapshot, then the
  /// aggregate (`sldm stats`).
  std::string to_string() const;

  /// The whole hub in Prometheus text exposition: each family's
  /// `# TYPE` line once, then one labeled sample (set) per snapshot
  /// that carries the metric.
  std::string to_prometheus() const;

 private:
  using Snapshots = std::vector<std::pair<TelemetryLabels, MetricsRegistry>>;

  TelemetryHub() = default;

  /// The stored entry with labels equal to `labels`, or end().  The
  /// caller holds mutex_; the scan is linear, which stays cheap because
  /// retire() bounds the hub to its live publishers and rollups.
  Snapshots::iterator find_locked(const TelemetryLabels& labels);

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  Snapshots snapshots_;
};

/// A publisher's live hub snapshot, retired when the publisher dies.
/// publish() stores the registry under `labels` and remembers them;
/// destruction calls TelemetryHub::retire on the last labels published
/// (a re-publish under different labels retires the earlier ones
/// first).  Move-only: the moved-from handle retires nothing, so an
/// owner that is moved retires exactly once.  Holds nothing and costs
/// nothing until its first publish(); owners skip that call while the
/// hub is disabled (Session::publish_telemetry).
class LiveSnapshot {
 public:
  LiveSnapshot() = default;
  LiveSnapshot(LiveSnapshot&& other) noexcept
      : labels_(std::exchange(other.labels_, std::nullopt)) {}
  LiveSnapshot& operator=(LiveSnapshot&&) = delete;
  /// Never throws: a failed retirement leaves the snapshot live and
  /// bumps the process metric "telemetry.retire_failures".
  ~LiveSnapshot();

  void publish(TelemetryLabels labels, const MetricsRegistry& registry);

 private:
  std::optional<TelemetryLabels> labels_;
};

}  // namespace sldm

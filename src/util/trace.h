// Span tracing for the timing engine.
//
// A process-wide Tracer collects scoped spans (name, category, wall-clock
// interval, thread) and exports them as Chrome trace-event JSON -- the
// format chrome://tracing and Perfetto load directly (see FORMATS.md).
// The engine's phases (calibration, elaboration, CCC partitioning,
// stage extraction, propagation levels, incremental update phases) are
// instrumented with TraceSpan; `sldm time --trace out.json` turns
// collection on for one analysis.
//
// Cost model: tracing is OFF by default and spans are placed at phase /
// work-chunk granularity, never per delay-model evaluation.  A disabled
// TraceSpan costs one relaxed atomic load and a branch; nothing is
// allocated and no clock is read.  An enabled span reads the steady
// clock twice and takes one short mutex section at scope exit.  Span
// names and categories must be string literals (they are stored as
// pointers).
//
// Thread attribution: every thread that opens a span is assigned a
// small stable id (registration order).  Pool workers register
// themselves with their worker name (see Tracer::set_thread_name), so
// a serve request's spans are attributable to the worker that ran it.
#pragma once

#include <atomic>
#include <cstddef>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace sldm {

/// One completed span ("X" phase in the Chrome trace-event format).
struct TraceEvent {
  const char* name = "";      ///< literal span name
  const char* category = "";  ///< literal category ("timing", "analog", ...)
  double ts_us = 0.0;         ///< start, microseconds since tracer epoch
  double dur_us = 0.0;        ///< duration, microseconds
  int tid = 0;                ///< Tracer thread id
  /// Numeric span arguments (literal keys), rendered into "args".
  std::vector<std::pair<const char*, double>> args;
};

class Tracer {
 public:
  /// The process-wide tracer.
  static Tracer& instance();

  /// Collection switch.  enable() does not clear previously collected
  /// events (call clear() for a fresh capture).
  void enable() { enabled_.store(true, std::memory_order_relaxed); }
  void disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Drops all collected events.  Thread registrations (ids and names)
  /// survive, so ids stay stable across captures in one process.
  void clear();

  /// The calling thread's tracer id (registered on first use).
  int thread_id();

  /// Names the calling thread in trace output (also registers it).
  void set_thread_name(const std::string& name);

  /// Records one completed span on the calling thread.  No-op when
  /// disabled.  `name`/`category` and arg keys must be string literals.
  void record(const char* name, const char* category, double ts_us,
              double dur_us,
              std::vector<std::pair<const char*, double>> args = {});

  /// Microseconds since the tracer epoch (process start of tracing use).
  double now_us() const;

  std::size_t event_count() const;

  /// Chrome trace-event JSON: {"traceEvents":[...]} with thread-name
  /// metadata records first, then one "X" (complete) event per span.
  std::string to_json() const;

  /// Writes to_json() to `path`.  Throws Error on I/O failure.
  void write_file(const std::string& path) const;

 private:
  Tracer();

  std::atomic<bool> enabled_{false};
  double epoch_ = 0.0;  ///< steady-clock seconds at construction
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
  std::vector<std::string> thread_names_;  ///< indexed by thread id
  int next_tid_ = 0;
};

/// RAII span: captures the start time at construction (when tracing is
/// enabled) and records itself at scope exit.  Numeric arguments may be
/// attached while the span is open.
class TraceSpan {
 public:
  TraceSpan(const char* name, const char* category);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches a numeric argument (key must be a string literal).
  /// No-op when the span is disarmed (tracing was off at construction).
  void arg(const char* key, double value);

  bool armed() const { return armed_; }

 private:
  bool armed_;
  const char* name_;
  const char* category_;
  double t0_us_ = 0.0;
  std::vector<std::pair<const char*, double>> args_;
};

}  // namespace sldm

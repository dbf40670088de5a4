// A timing-analysis session: the mutable half of the split analyzer.
//
// A Session borrows an immutable CompiledDesign and owns everything a
// single analysis needs that the design does not: the declared input
// events, the structure-of-arrays arrival store, the propagation
// worklist scratch, and the per-session metrics/stats.  N sessions --
// different delay models or input slopes -- run concurrently over one
// shared design with no cloning, and each produces results
// bit-identical to a standalone analyzer over the same inputs
// (tests/design_test.cpp).
//
// Propagation runs on the calling thread and drains an explicit FIFO
// worklist with in-queue deduplication in *wavefronts*: each round
// snapshots the ready frontier, gathers every (stage, firing event)
// candidate it triggers into one batch, prices the whole batch with one
// DelayModel::estimate_batch call, and commits the results in canonical
// order (FIFO event order, ascending stage index per event).  A stage
// costs a handful of arithmetic operations, too little to hand to
// another thread (EXPERIMENTS.md "Sequential propagation").
//
// The legacy TimingAnalyzer (timing/analyzer.h) is now a facade over
// {CompiledDesign, Session}; ECO updates go through it because they
// mutate the design (single-writer discipline).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "delay/model.h"
#include "design/compiled_design.h"
#include "util/cancel.h"
#include "util/metrics.h"
#include "util/telemetry.h"

namespace sldm {

/// Session configuration (the query half of AnalyzerOptions).
struct SessionOptions {
  /// Safety valve: maximum times a (node, direction) arrival may be
  /// improved before the session reports a structural loop.
  int max_updates_per_arrival = 64;
};

/// Observability counters for one session lifetime: where did the time
/// go (extraction vs propagation), and how much work did each phase do.
/// Counter fields accumulate across run()/reset() cycles; wall-clock
/// fields hold the most recent phase execution.  Structural fields
/// (component and stage counts, extract_seconds) mirror the borrowed
/// CompiledDesign.
///
/// This struct is a *view*: the session stores its work counters and
/// phase timings in plain Counter/Gauge/Histogram members (also
/// exported by name through Session::metrics(), which additionally
/// carries distribution histograms), and stats() refreshes these fields
/// from those members on each call.
struct AnalyzerStats {
  std::size_t ccc_count = 0;        ///< channel-connected components
  std::size_t widest_ccc = 0;       ///< member nodes in the largest CCC
  std::vector<std::size_t> stages_per_ccc;  ///< indexed by CCC id
  std::size_t stage_count = 0;      ///< total extracted stages
  std::size_t stage_evaluations = 0;  ///< delay-model calls during run()
  std::size_t worklist_pushes = 0;  ///< events enqueued (incl. seeds)
  std::size_t arrival_updates = 0;  ///< arrival improvements committed
  Seconds extract_seconds = 0.0;    ///< design build wall clock (0: loaded)
  Seconds propagate_seconds = 0.0;  ///< run() wall clock
  int threads = 1;                  ///< the design's extraction workers

  // Batch shape of wavefront propagation.  `batches` accumulates like
  // stage_evaluations; mean/max describe the whole session lifetime.
  std::size_t batches = 0;          ///< wavefront batches evaluated
  double mean_batch_size = 0.0;     ///< stage_evaluations / batches
  std::size_t max_batch_size = 0;   ///< largest single batch

  // Incremental (ECO) counters.  `incremental_updates` accumulates;
  // the rest describe the most recent update() call.
  std::size_t incremental_updates = 0;  ///< update() calls absorbed
  std::size_t dirty_cccs = 0;           ///< components re-extracted
  std::size_t reextracted_stages = 0;   ///< stages rebuilt by update()
  std::size_t reused_stages = 0;        ///< stages carried over untouched
  std::size_t frontier_keys = 0;        ///< (node, dir) arrivals invalidated
  Seconds update_seconds = 0.0;         ///< update() wall clock
};

/// Final arrival data at one (node, transition).
struct ArrivalInfo {
  Seconds time = 0.0;
  Seconds slope = 0.0;
  /// Predecessor event (invalid node for primary-input events).
  NodeId from_node = NodeId::invalid();
  Transition from_dir = Transition::kRise;
  /// Index into CompiledDesign::stages() of the stage that set this
  /// arrival; SIZE_MAX for primary-input events.
  std::size_t via_stage = SIZE_MAX;
};

/// One step of a reported critical path.
struct PathStep {
  NodeId node;
  Transition dir;
  Seconds time;
  Seconds slope;
  std::string description;  ///< stage description ("<- input" for seeds)
};

class Session {
 public:
  /// Attaches to a design.  `model` must outlive the session.
  /// Precondition: design is non-null.
  Session(std::shared_ptr<const CompiledDesign> design,
          const DelayModel& model, SessionOptions options = {});

  /// Declares a primary-input event.  Precondition: `input` is marked
  /// is_input; slope >= 0.  May be called repeatedly before run().
  /// Throws Error if run() already completed (reset() first).
  void add_input_event(NodeId input, Transition dir, Seconds time,
                       Seconds slope);

  /// Convenience: both transitions on every input at t=0 with `slope`
  /// (full worst-case analysis).  Same post-run() Error as
  /// add_input_event.
  void add_all_input_events(Seconds slope);

  /// Propagates to fixpoint.  Throws Error if a structural loop exceeds
  /// the update bound, or if run() already completed (reset() first),
  /// or if the design's netlist was mutated since the design was built
  /// (TimingAnalyzer::update() first).
  void run();

  /// Discards arrivals and seeds so a new set of input events can be
  /// analyzed without re-extracting stages.  Propagation counters keep
  /// accumulating.
  void reset();

  /// Arrival at (node, dir), if the node can switch that way at all.
  std::optional<ArrivalInfo> arrival(NodeId node, Transition dir) const;

  /// The latest arrival over all nodes (or only output-marked nodes).
  struct Worst {
    NodeId node;
    Transition dir;
    Seconds time;
  };
  std::optional<Worst> worst_arrival(bool outputs_only) const;

  /// The chain of events ending at (node, dir), input first.
  /// Precondition: arrival(node, dir) has a value.
  std::vector<PathStep> critical_path(NodeId node, Transition dir) const;

  /// Limits for k_worst_paths().
  struct PathQueryOptions {
    std::size_t max_explored = 200000;  ///< DFS work bound
    int max_length = 64;                ///< events per path
  };

  /// One enumerated event path (input seed first).
  struct EnumeratedPath {
    std::vector<PathStep> steps;
    Seconds arrival = 0.0;  ///< arrival of the final event
  };

  /// The k latest-arriving distinct event paths ending at (node, dir),
  /// sorted latest first -- Crystal's "show me the N worst paths".
  /// Slopes are propagated along each candidate path independently, so
  /// alternative paths get their own slope history (unlike the arrival
  /// fixpoint, which keeps only the worst predecessor).
  /// Precondition: run() has completed; k >= 1.
  std::vector<EnumeratedPath> k_worst_paths(
      NodeId node, Transition dir, std::size_t k,
      const PathQueryOptions& options) const;
  std::vector<EnumeratedPath> k_worst_paths(NodeId node, Transition dir,
                                            std::size_t k) const {
    return k_worst_paths(node, dir, k, PathQueryOptions());
  }

  /// The borrowed design and per-session model.
  const CompiledDesign& design() const { return *design_; }
  std::shared_ptr<const CompiledDesign> share_design() const {
    return design_;
  }
  const DelayModel& delay_model() const { return model_; }
  /// Conveniences forwarding to the design.
  const Netlist& netlist() const { return design_->netlist(); }
  const Tech& tech() const { return design_->tech(); }
  const StageTable& stages() const { return design_->stages(); }
  const StageStore& stage_store() const { return design_->stage_store(); }
  const CccPartition& components() const { return design_->components(); }

  /// Phase timings and work counters (see AnalyzerStats); refreshed
  /// from the metric members on each call.
  const AnalyzerStats& stats() const;

  /// The named metric registry: counters, phase-timing gauges, and
  /// distribution histograms (stage fan-in, RC path depth, sampled
  /// delay-model evaluation time, worklist queue depth, ECO frontier
  /// size).  Names are listed in FORMATS.md.  Materialized from the
  /// plain metric members on each call, so observers pay for the name
  /// table and the hot paths do not; the reference stays valid (and is
  /// re-refreshed by later calls) for the session's lifetime.
  const MetricsRegistry& metrics() const;

  /// Work counter for the Table 5 runtime comparison.
  std::size_t stage_evaluations() const {
    return static_cast<std::size_t>(ctr_stage_evaluations_.value());
  }

  /// Process-unique session id (dense, assigned at construction) --
  /// the `session` telemetry label is "s<id>".
  std::uint64_t session_id() const { return session_id_; }

  /// Publishes a labeled snapshot of metrics() into the process-wide
  /// TelemetryHub (labels: "s<id>", delay-model name, the design's
  /// extraction thread count, plus the request label when set).
  /// Re-publishing replaces this session's earlier snapshot, so the hub
  /// always holds the registry's latest cumulative state.  The snapshot
  /// stays live under "s<id>" while the session exists; destroying the
  /// session retires it into the hub's `session="retired"` rollup for
  /// the same (model, threads, request) (TelemetryHub::retire), so the
  /// hub does not grow with the number of sessions ever run.  A moved-from session retires
  /// nothing.  No-op (one relaxed atomic load) while the hub is
  /// disabled; run() and TimingAnalyzer::update() call this at
  /// completion.
  void publish_telemetry() const;

  /// Tags this session's telemetry snapshots with a serve-traffic
  /// request kind ("time", "explain", "eco"); empty (the default)
  /// omits the label, keeping CLI-published snapshots unchanged.
  void set_telemetry_request(std::string request) {
    telemetry_request_ = std::move(request);
  }

  /// Attaches a cooperative cancellation token (deadline-aware serve).
  /// Propagation consults it once per wavefront batch and aborts with
  /// CancelledError once expired -- coarse enough that a run which
  /// *completes* is bit-identical to the same run with no token, since
  /// the token can only abort work, never reorder or reprice it.  The
  /// token is borrowed: it must outlive run()/update(), and nullptr
  /// (the default) detaches.
  void set_cancel_token(const CancelToken* token) { cancel_ = token; }

 private:
  /// ECO repair (TimingAnalyzer::update()) grows the key arrays,
  /// invalidates damaged arrivals, and re-propagates in place.
  friend class TimingAnalyzer;

  /// Flat arrival key: (node, dir) -> node * 2 + dir.
  std::size_t key(NodeId node, Transition dir) const {
    return arrival_key(node, dir);
  }

  /// Requires that run() has not completed yet (Error otherwise).
  void require_not_ran(const char* what) const;

  /// Requires that the design is in sync with its netlist (Error
  /// pointing at TimingAnalyzer::update() otherwise).
  void require_synced(const char* what) const;

  /// Re-censuses the trigger fan-in histogram from the design
  /// structure (construction and after ECO updates).
  void refresh_fan_in();

  /// Drains the worklist to fixpoint in wavefront batches.  `queued` is
  /// the in-queue deduplication mark, sized like the arrival arrays.
  void propagate(std::deque<std::uint32_t>& work, std::vector<char>& queued);

  std::shared_ptr<const CompiledDesign> design_;
  const DelayModel& model_;
  SessionOptions options_;
  /// Dense process-unique id (see session_id()).
  std::uint64_t session_id_ = 0;

  // Arrival store: structure-of-arrays keyed by key(node, dir).  The
  // hot propagation loop touches time_/slope_/valid_ only; predecessor
  // bookkeeping lives in parallel arrays instead of an optional-of-
  // struct so the inner loop stays on dense doubles.
  std::vector<Seconds> arrival_time_;
  std::vector<Seconds> arrival_slope_;
  std::vector<std::uint32_t> arrival_from_;  ///< packed key; UINT32_MAX none
  std::vector<std::size_t> arrival_via_;     ///< stage idx; SIZE_MAX seeds
  std::vector<char> arrival_valid_;

  std::vector<int> update_counts_;
  std::vector<std::uint32_t> seeds_;  ///< packed keys, insertion order
  bool ran_ = false;
  /// Telemetry `request` label; empty outside the serve layer.
  std::string telemetry_request_;
  /// This session's published hub snapshot, retired on destruction.
  mutable LiveSnapshot telemetry_;
  /// Borrowed cooperative deadline; null outside deadline-aware serve.
  const CancelToken* cancel_ = nullptr;

  // Metric storage: plain members, so constructing a session and the
  // hot loops pay a field update and never a map lookup or a string
  // allocation.  metrics() materializes these into the named registry
  // below on demand.
  Counter ctr_stage_evaluations_;
  Counter ctr_worklist_pushes_;
  Counter ctr_arrival_updates_;
  Counter ctr_batches_;
  Counter ctr_incremental_updates_;
  Gauge g_propagate_seconds_;
  Gauge g_update_seconds_;
  Gauge g_dirty_cccs_;
  Gauge g_reextracted_stages_;
  Gauge g_reused_stages_;
  Gauge g_frontier_keys_;
  Gauge g_max_batch_size_;
  Histogram h_fan_in_{0.0, 64.0, 16};
  Histogram h_batch_size_{0.0, 4096.0, 16};
  Histogram h_rc_depth_{0.0, 16.0, 16};
  Histogram h_eval_us_{0.0, 50.0, 20};
  Histogram h_queue_depth_{0.0, 4096.0, 16};
  Histogram h_frontier_{0.0, 2048.0, 16};

  /// Named export refreshed from the members above by metrics().
  mutable MetricsRegistry metrics_;

  /// View refreshed from the metric members by stats().
  mutable AnalyzerStats stats_;
};

}  // namespace sldm

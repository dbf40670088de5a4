// A timing-analysis session: the query half of the analyzer.
//
// A Session borrows an immutable CompiledDesign and owns everything a
// single analysis needs that the design does not: the declared input
// events, the structure-of-arrays arrival store, the pricing scratch,
// and the session's work counters and phase timings (one
// AnalyzerStats) plus its distribution histograms.  N sessions --
// different delay models or input slopes -- run concurrently over one
// shared design with no cloning, and each produces results
// bit-identical to a standalone analyzer over the same inputs
// (tests/design_test.cpp).
//
// Propagation runs on the calling thread and sweeps the design's level
// schedule (CompiledDesign::levels()) once, level by level.  Every
// stage into a level's keys fires from a key of a lower level, whose
// arrival is therefore final; the stages whose fire key has an arrival
// are priced in one DelayModel::estimate_batch call per level, and each
// key takes the latest candidate (ties: the smallest stage index).  So
// every stage is priced at most once, from its predecessor's final time
// and slope, and no answer depends on an evaluation order.  A cyclic
// component of the trigger graph is re-priced by the same step until
// none of its arrivals changes.  TimingAnalyzer::update() re-prices the
// damaged cone through the same step in level order (reprice()), so an
// update equals a rebuild for every delay model.  A stage costs a
// handful of arithmetic operations, too little to hand to another
// thread (EXPERIMENTS.md "Sequential propagation").
//
// TimingAnalyzer (timing/analyzer.h) is the Session that owns its
// design: it adds update(), the ECO path, because that path mutates the
// design (single-writer discipline).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
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
  /// Safety valve: maximum times a (node, direction) arrival inside a
  /// cyclic component may change before the session reports a timing
  /// loop.
  int max_updates_per_arrival = 64;
};

/// Observability counters for one session lifetime: where did the time
/// go (extraction vs propagation), and how much work did each phase do.
/// Counter fields accumulate across run()/reset() cycles; wall-clock
/// fields hold the most recent phase execution.  Structural fields
/// (component and stage counts, extract_seconds) mirror the borrowed
/// CompiledDesign.
///
/// This struct is the session's counter store: propagate() and
/// TimingAnalyzer::update() write it directly, stats() returns it, and
/// Session::metrics() exports the same values by name beside the
/// distribution histograms.  The per-CCC stage census is not copied
/// here: read CompiledDesign::stages_per_ccc().
struct AnalyzerStats {
  std::size_t ccc_count = 0;        ///< channel-connected components
  std::size_t widest_ccc = 0;       ///< member nodes in the largest CCC
  std::size_t stage_count = 0;      ///< total extracted stages
  std::size_t stage_evaluations = 0;  ///< stages priced
  /// Seeds plus arrival keys priced (every scheduled key in run(), the
  /// re-priced cone in update(), each pass of a cyclic component).
  std::size_t keys_priced = 0;
  /// Priced keys whose arrival changed (in run(), every key that
  /// receives one).
  std::size_t arrival_updates = 0;
  Seconds extract_seconds = 0.0;    ///< design build wall clock (0: loaded)
  Seconds propagate_seconds = 0.0;  ///< run() wall clock

  // Batch shape of levelized propagation.  `batches` accumulates like
  // stage_evaluations; mean/max describe the whole session lifetime.
  std::size_t batches = 0;          ///< non-empty level batches priced
  double mean_batch_size = 0.0;     ///< stage_evaluations / batches
  std::size_t max_batch_size = 0;   ///< largest single batch

  // Incremental (ECO) counters.  `incremental_updates` accumulates;
  // the rest describe the most recent update() call.
  std::size_t incremental_updates = 0;  ///< update() calls absorbed
  std::size_t dirty_cccs = 0;           ///< components re-extracted
  std::size_t reextracted_stages = 0;   ///< stages rebuilt by update()
  std::size_t reused_stages = 0;        ///< stages carried over untouched
  std::size_t frontier_keys = 0;        ///< (node, dir) arrivals re-priced
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

  /// Prices every level of the design once.  Throws Error if a cyclic
  /// component does not settle within the update bound (a timing loop),
  /// or if run() already completed (reset() first),
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
  /// sweep, which keeps only the worst predecessor).
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

  /// Phase timings and work counters (see AnalyzerStats): the
  /// session's counter store itself, no copy.
  const AnalyzerStats& stats() const { return stats_; }

  /// The named metric registry: the counters and phase timings of
  /// stats() under their FORMATS.md names, plus distribution histograms
  /// (stage fan-in, RC path depth, sampled delay-model evaluation time,
  /// keys per priced level, ECO frontier size).  Materialized on each
  /// call, so observers pay for the name table and the hot paths do
  /// not; the reference stays valid (and is re-refreshed by later
  /// calls) for the session's lifetime.
  const MetricsRegistry& metrics() const;

  /// Work counter for the Table 5 runtime comparison.
  std::size_t stage_evaluations() const { return stats_.stage_evaluations; }

  /// Process-unique session id (dense, assigned at construction) --
  /// the `session` telemetry label is "s<id>".
  std::uint64_t session_id() const { return session_id_; }

  /// Publishes a labeled snapshot of metrics() into the process-wide
  /// TelemetryHub (labels: "s<id>", delay-model name, plus the request
  /// label when set).
  /// Re-publishing replaces this session's earlier snapshot, so the hub
  /// always holds the registry's latest cumulative state.  The snapshot
  /// stays live under "s<id>" while the session exists; destroying the
  /// session retires it into the hub's `session="retired"` rollup for
  /// the same (model, request) (TelemetryHub::retire), so the
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
  /// Propagation consults it once per level and aborts with
  /// CancelledError once expired -- coarse enough that a run which
  /// *completes* is bit-identical to the same run with no token, since
  /// the token can only abort work, never reorder or reprice it.  The
  /// token is borrowed: it must outlive run()/update(), and nullptr
  /// (the default) detaches.
  void set_cancel_token(const CancelToken* token) { cancel_ = token; }

 protected:
  // The ECO repair in TimingAnalyzer::update() grows the key arrays,
  // remaps stage ids and re-prices the damaged cone in place.

  /// Re-reads the structural fields of stats_ (component and stage
  /// counts, widest CCC, extract_seconds) from the design
  /// (construction and after ECO updates).
  void refresh_census();

  /// Re-prices `base` (arrival keys of dirty components) and, level by
  /// level, every key downstream of a key whose arrival changed, each
  /// from its predecessors' final values -- the same step run() sweeps
  /// with.  Seeds keep their declared arrivals.
  void reprice(std::span<const std::uint32_t> base);

  const DelayModel& model_;

  // Arrival store: structure-of-arrays keyed by arrival_key(node, dir).
  // The hot pricing loop touches time_/slope_/valid_ only; predecessor
  // bookkeeping lives in parallel arrays instead of an
  // optional-of-struct so the inner loop stays on dense doubles.
  std::vector<Seconds> arrival_time_;
  std::vector<Seconds> arrival_slope_;
  std::vector<std::uint32_t> arrival_from_;  ///< packed key; kNone seeds
  std::vector<std::uint32_t> arrival_via_;   ///< stage id; kNone seeds
  std::vector<char> arrival_valid_;
  bool ran_ = false;

  /// "No predecessor" / "no stage" in arrival_from_ and arrival_via_.
  static constexpr std::uint32_t kNone = UINT32_MAX;

  /// Work counters and phase timings, written where the work happens.
  AnalyzerStats stats_;
  Histogram h_frontier_{0.0, 2048.0, 16};

 private:
  /// Flat arrival key: (node, dir) -> node * 2 + dir.
  std::size_t key(NodeId node, Transition dir) const {
    return arrival_key(node, dir);
  }

  /// Requires that run() has not completed yet (Error otherwise).
  void require_not_ran(const char* what) const;

  /// Requires that the design is in sync with its netlist (Error
  /// pointing at TimingAnalyzer::update() otherwise).
  void require_synced(const char* what) const;

  /// The one pricing step.  Prices every stage into `keys` whose fire
  /// key has an arrival in one estimate_batch call, then gives each key
  /// its latest candidate (ties: the smallest stage index) or no
  /// arrival when none fired.  Candidates read the fire keys' values
  /// as they were before the commit, so keys of one cyclic component
  /// price from one consistent state.  Appends to `changed` the keys
  /// whose time, slope or validity differs from before.
  void price(std::span<const std::uint32_t> keys,
             std::vector<std::uint32_t>& changed);

  /// Settles cyclic component `cycle`: clears its arrivals, then prices
  /// its keys until none changes.  Throws Error once an arrival changes
  /// more than max_updates_per_arrival times.  Appends to `changed` the
  /// keys whose final value differs from the one before the call.
  void settle(std::uint32_t cycle, std::vector<std::uint32_t>& changed);

  std::shared_ptr<const CompiledDesign> design_;
  SessionOptions options_;
  /// Dense process-unique id (see session_id()).
  std::uint64_t session_id_ = 0;
  std::vector<std::uint32_t> seeds_;  ///< packed keys, insertion order
  /// Telemetry `request` label; empty outside the serve layer.
  std::string telemetry_request_;
  /// This session's published hub snapshot, retired on destruction.
  mutable LiveSnapshot telemetry_;
  /// Borrowed cooperative deadline; null outside deadline-aware serve.
  const CancelToken* cancel_ = nullptr;

  Histogram h_batch_size_{0.0, 4096.0, 16};
  Histogram h_rc_depth_{0.0, 16.0, 16};
  Histogram h_eval_us_{0.0, 50.0, 20};
  Histogram h_queue_depth_{0.0, 4096.0, 16};  ///< keys per priced level

  // Pricing scratch, reused across levels: the gathered batch (stage,
  // fire key's slope and time), each key's end in it, and the results.
  std::vector<StageStore::StageId> ids_;
  std::vector<Seconds> slopes_;
  std::vector<Seconds> fire_times_;
  std::vector<std::uint32_t> ends_;
  std::vector<DelayEstimate> ests_;
  /// RC path depth counts of priced stages (index: path length), folded
  /// into h_rc_depth_ at the end of each sweep.
  std::vector<std::size_t> rc_depths_;
  void fold_rc_depths();

  /// Named export refreshed from stats_ and the histograms by metrics().
  mutable MetricsRegistry metrics_;
};

}  // namespace sldm

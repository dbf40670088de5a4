// The Crystal-style static timing analyzer, as a facade over the
// compiled-design / session split.
//
// Construction compiles the netlist into an immutable CompiledDesign
// (design/compiled_design.h: CCC partition, per-component stage
// extraction fanned over AnalyzerOptions::threads workers with a
// deterministic merge, and the baked StageStore) and attaches one
// Session (design/session.h) that owns all mutable analysis state.
// The thread count sizes extraction only -- at construction and in
// update()'s re-extraction; propagation is sequential.
// Every query -- arrivals, critical paths, k-worst enumeration, stats,
// metrics -- delegates to that session, so results are bit-identical
// to driving the two layers directly.
//
// The facade earns its keep on the ECO path: update() is the single
// sanctioned writer of a CompiledDesign.  After mutating the netlist
// through its journaled API, update() absorbs the edits instead of
// rebuilding, and its cost follows the damage, not the design:
//   * a batch of device sizes and node capacitances keeps every stage
//     path, so only the dirty components' stages are re-baked in place
//     in the StageStore (stage ids, table and trigger index stay);
//   * any other batch re-extracts the dirty components and splices them
//     into the globally ordered stage table, renumbering stages;
//   * only arrivals reachable from the damage are invalidated (a walk
//     over the forward trigger index, close_damage), and re-propagation
//     starts from the stages that fire into the damage instead of from
//     all seeds.  Because other sessions may be borrowing the design,
// update() refuses to run while share_design() handles are outstanding.
// Invariant (enforced by tests/eco_timing_test.cpp): the analyzer state
// after update() is bit-identical to a freshly constructed-and-run
// analyzer over the mutated netlist.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "design/compiled_design.h"
#include "design/session.h"

namespace sldm {

/// Analyzer configuration.
struct AnalyzerOptions {
  ExtractOptions extract;
  /// Safety valve: maximum times a (node, direction) arrival may be
  /// improved before the analyzer reports a structural loop.
  int max_updates_per_arrival = 64;
  /// Worker threads for stage extraction, at construction and in
  /// update()'s re-extraction (1 = fully sequential; results are
  /// bit-identical for any value).  Must be >= 1.
  int threads = 1;
};

/// The damage closure of an ECO update.  `damaged` (one byte per
/// arrival key) and `damage` (those keys, in discovery order) enter as
/// the base set; every key whose valid arrival was set by a damaged key
/// -- arrival_from[d] == k -- through a stage k fires is added,
/// transitively, found by walking the forward trigger index.  Stages
/// that k fires into other keys are skipped, so the result is the set a
/// reverse (predecessor -> successors) map would give.
void close_damage(const StageTable& stages, const TriggerIndex& by_trigger,
                  std::span<const std::uint32_t> arrival_from,
                  std::span<const char> arrival_valid,
                  std::vector<char>& damaged,
                  std::vector<std::uint32_t>& damage);

class TimingAnalyzer {
 public:
  /// Compiles the design up-front (per channel-connected component,
  /// over options.threads workers) and attaches a session.  `nl`,
  /// `tech`, and `model` must outlive the analyzer.
  TimingAnalyzer(const Netlist& nl, const Tech& tech, const DelayModel& model,
                 AnalyzerOptions options = {});

  /// Adopts an already-compiled design (e.g. loaded from a .sldc
  /// snapshot) instead of compiling: options.extract is ignored in
  /// favor of the design's own extraction options.  `model` must
  /// outlive the analyzer.  ECO updates through this analyzer require
  /// the design to own its netlist (snapshot loads do) and to not be
  /// shared with other sessions.
  TimingAnalyzer(std::shared_ptr<CompiledDesign> design,
                 const DelayModel& model, AnalyzerOptions options = {});

  /// Declares a primary-input event.  Precondition: `input` is marked
  /// is_input; slope >= 0.  May be called repeatedly before run().
  /// Throws Error if run() already completed (reset() first).
  void add_input_event(NodeId input, Transition dir, Seconds time,
                       Seconds slope) {
    session_.add_input_event(input, dir, time, slope);
  }

  /// Convenience: both transitions on every input at t=0 with `slope`
  /// (full worst-case analysis).  Same post-run() Error as
  /// add_input_event.
  void add_all_input_events(Seconds slope) {
    session_.add_all_input_events(slope);
  }

  /// Propagates to fixpoint.  Throws Error if a structural loop exceeds
  /// the update bound, or if run() already completed (reset() first),
  /// or if the netlist was mutated since the analyzer synchronized
  /// (update() first).
  void run() { session_.run(); }

  /// Absorbs all netlist mutations since the analyzer last
  /// synchronized (construction or previous update()): synchronizes the
  /// component partition, re-extracts stages for dirty components only,
  /// invalidates the arrivals transitively reachable from the damage,
  /// and re-propagates from that frontier.  Postcondition: stages,
  /// arrivals, and critical paths are bit-identical to a freshly
  /// constructed analyzer over the mutated netlist with the same input
  /// events (and run(), if this analyzer had run).  No-op when already
  /// in sync.  Throws Error for edits the incremental pipeline cannot
  /// absorb (power/ground/input/precharge role changes), for timing
  /// loops exactly like construction + run() would, and when the design
  /// is shared (outstanding share_design() handles -- the immutability
  /// other sessions rely on forbids in-place mutation).
  void update();

  /// Discards arrivals and seeds so a new set of input events can be
  /// analyzed without re-extracting stages.  Wall-clock stats of the
  /// extraction phase are kept; propagation counters keep accumulating.
  void reset() { session_.reset(); }

  /// Arrival at (node, dir), if the node can switch that way at all.
  std::optional<ArrivalInfo> arrival(NodeId node, Transition dir) const {
    return session_.arrival(node, dir);
  }

  /// The latest arrival over all nodes (or only output-marked nodes).
  using Worst = Session::Worst;
  std::optional<Worst> worst_arrival(bool outputs_only) const {
    return session_.worst_arrival(outputs_only);
  }

  /// The chain of events ending at (node, dir), input first.
  /// Precondition: arrival(node, dir) has a value.
  std::vector<PathStep> critical_path(NodeId node, Transition dir) const {
    return session_.critical_path(node, dir);
  }

  using PathQueryOptions = Session::PathQueryOptions;
  using EnumeratedPath = Session::EnumeratedPath;

  /// The k latest-arriving distinct event paths ending at (node, dir),
  /// sorted latest first (see Session::k_worst_paths).
  /// Precondition: run() has completed; k >= 1.
  std::vector<EnumeratedPath> k_worst_paths(
      NodeId node, Transition dir, std::size_t k,
      const PathQueryOptions& options) const {
    return session_.k_worst_paths(node, dir, k, options);
  }
  std::vector<EnumeratedPath> k_worst_paths(NodeId node, Transition dir,
                                            std::size_t k) const {
    return session_.k_worst_paths(node, dir, k);
  }

  /// All extracted stages (index space of ArrivalInfo::via_stage).
  const StageTable& stages() const { return design_->stages(); }

  /// The SoA store propagation evaluates against: stage ids coincide
  /// with indices into stages() (and so with ArrivalInfo::via_stage).
  const StageStore& stage_store() const { return design_->stage_store(); }

  /// The channel-connected component partition extraction ran over.
  const CccPartition& components() const { return design_->components(); }

  /// The analyzed netlist / technology / delay model (explain traces
  /// re-evaluate stages through these).
  const Netlist& netlist() const { return design_->netlist(); }
  /// Mutable access to a design-owned netlist (snapshot loads), the
  /// ECO edit surface for adopted designs.  Throws Error when the
  /// design borrows the caller's netlist -- mutate that one instead.
  Netlist& mutable_netlist();
  const Tech& tech() const { return design_->tech(); }
  const DelayModel& delay_model() const { return session_.delay_model(); }

  /// The immutable compiled artifact this analyzer drives.  Additional
  /// Sessions may borrow it concurrently; while any such handle is
  /// outstanding, update() refuses to mutate the design.
  std::shared_ptr<const CompiledDesign> share_design() const {
    return design_;
  }

  /// The attached session (the mutable half of this analyzer).
  Session& session() { return session_; }
  const Session& session() const { return session_; }

  /// Forwards a cooperative deadline token to the session, covering
  /// both run() and the re-propagation inside update().  Borrowed; pass
  /// nullptr to detach (callers must detach before the token dies).
  void set_cancel_token(const CancelToken* token) {
    session_.set_cancel_token(token);
  }

  /// Phase timings and work counters (see AnalyzerStats); refreshed
  /// from the metrics registry on each call.
  const AnalyzerStats& stats() const { return session_.stats(); }

  /// The named metric registry (names listed in FORMATS.md).
  const MetricsRegistry& metrics() const { return session_.metrics(); }

  /// Work counter for the Table 5 runtime comparison.
  std::size_t stage_evaluations() const {
    return session_.stage_evaluations();
  }

 private:
  /// update()'s path for batches that may change stage paths: re-
  /// extracts the dirty components, splices them into the stage table
  /// (spans "update-extract", "update-splice") and rebuilds the
  /// structure-dependent indexes and the store.  Returns the old ->
  /// new stage id map (SIZE_MAX for dropped stages).
  std::vector<std::size_t> resplice(const std::vector<std::size_t>& dirty);

  std::shared_ptr<CompiledDesign> design_;
  AnalyzerOptions options_;
  Session session_;
};

}  // namespace sldm

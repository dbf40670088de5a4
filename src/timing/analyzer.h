// The Crystal-style static timing analyzer: a Session that owns its
// compiled design and may therefore edit it.
//
// Construction compiles the netlist into a CompiledDesign
// (design/compiled_design.h: CCC partition, stage extraction in
// ascending node order, and the baked StageStore), or adopts one (a
// .sldc load), and attaches the Session (design/session.h) half over
// it.  Every query -- arrivals, critical paths, k-worst enumeration,
// stats, metrics -- is the Session's own.  Extraction and propagation
// both run on the calling thread.
//
// What TimingAnalyzer adds is the ECO path: update() is the single
// sanctioned writer of a CompiledDesign.  After mutating the netlist
// through its journaled API, update() absorbs the edits instead of
// rebuilding, and its cost follows the damage, not the design:
//   * a batch of device sizes and node capacitances keeps every stage
//     path, so only the dirty components' stages are re-baked in place
//     in the StageStore (stage ids, table and trigger index stay);
//   * any other batch re-extracts the dirty components and splices them
//     into the globally ordered stage table, renumbering stages;
//   * only the dirty components' arrival keys are re-priced, in level
//     order through the same pricing step as run() (Session::reprice),
//     and with them every key downstream of an arrival that changes;
//     the rest of the design keeps its arrivals.
// Because other sessions may be borrowing the design, update() refuses
// to run while share_design() handles are outstanding.  Invariant
// (enforced by tests/eco_timing_test.cpp): the analyzer state after
// update() is bit-identical to a freshly constructed-and-run analyzer
// over the mutated netlist, for every delay model, because every
// re-priced arrival is computed from its predecessors' final values
// exactly as a rebuild computes it.
#pragma once

#include <memory>
#include <vector>

#include "design/compiled_design.h"
#include "design/session.h"

namespace sldm {

/// Analyzer configuration.
struct AnalyzerOptions {
  ExtractOptions extract;
  /// Safety valve: maximum times a (node, direction) arrival inside a
  /// cyclic component may change before the analyzer reports a timing
  /// loop.
  int max_updates_per_arrival = 64;
};

class TimingAnalyzer : public Session {
 public:
  /// Compiles the design up-front and attaches the session.  `nl`,
  /// `tech`, and `model` must outlive the analyzer.  Construction may
  /// rebuild `nl`'s stale adjacency (CompiledDesign::build_over), so no
  /// other thread may read `nl` meanwhile unless nl.adjacency_fresh().
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

  /// Absorbs all netlist mutations since the analyzer last
  /// synchronized (construction or previous update()): synchronizes the
  /// component partition, re-extracts stages for dirty components only,
  /// and re-prices their arrival keys and everything downstream of an
  /// arrival that changes, in level order.  Postcondition: stages,
  /// arrivals, and critical paths are bit-identical to a freshly
  /// constructed analyzer over the mutated netlist with the same input
  /// events (and run(), if this analyzer had run).  No-op when already
  /// in sync.  Throws Error for edits the incremental pipeline cannot
  /// absorb (power/ground/input/precharge role changes), for timing
  /// loops exactly like construction + run() would, and when the design
  /// is shared (outstanding share_design() handles -- the immutability
  /// other sessions rely on forbids in-place mutation).
  void update();

  /// Mutable access to a design-owned netlist (snapshot loads), the
  /// ECO edit surface for adopted designs.  Throws Error when the
  /// design borrows the caller's netlist -- mutate that one instead.
  Netlist& mutable_netlist();

 private:
  /// update()'s path for batches that may change stage paths: re-
  /// extracts the dirty components, splices them into the stage table
  /// (spans "update-extract", "update-splice") and rebuilds the
  /// structure-dependent indexes and the store.  Returns the old ->
  /// new stage id map (SIZE_MAX for dropped stages).
  std::vector<std::size_t> resplice(const std::vector<std::size_t>& dirty);

  /// The same design the Session half reads, held writable.
  std::shared_ptr<CompiledDesign> compiled_;
};

}  // namespace sldm

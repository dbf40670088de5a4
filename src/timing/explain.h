// Critical-path explain traces (the paper's Section 6 reports, with
// the arithmetic shown).
//
// An arrival explained is the critical path into one (node, transition)
// with every stage on it *re-evaluated* through the delay model's audit
// (DelayModel::audit): each step carries the generic stage electricals
// (path resistance, capacitances, Elmore constant, input slope) read
// from the session's StageStore, plus the model-specific terms (e.g.
// the slope model's rho and table multipliers), so a surprising arrival
// can be traced to the R, C, and slope values it was computed from.
//
// The re-evaluation is exact, not approximate: the audit prices the
// same store stage with the stored predecessor slope through the same
// batch kernel propagation used, so each step's audited delay is the
// delay that was committed -- the per-stage delays sum to the reported
// arrival.
#pragma once

#include <string>
#include <vector>

#include "timing/analyzer.h"

namespace sldm {

/// One event of an explained arrival, seed first.
struct ExplainStep {
  NodeId node;
  Transition dir = Transition::kRise;
  Seconds arrival = 0.0;  ///< committed arrival at (node, dir)
  Seconds slope = 0.0;    ///< committed slope at (node, dir)
  bool is_seed = false;   ///< primary-input event (no stage, no audit)
  /// This stage's contribution: audit.estimate.delay.  0 for seeds.
  Seconds delay = 0.0;
  std::string stage;  ///< describe() of the winning stage; "" for seeds
  /// The audited re-evaluation; meaningful only when !is_seed.
  DelayAudit audit;
};

/// An explained arrival: the event chain and its per-stage breakdown.
struct ExplainReport {
  NodeId node;
  Transition dir = Transition::kRise;
  Seconds arrival = 0.0;  ///< == steps.back().arrival
  std::vector<ExplainStep> steps;  ///< seed first
};

/// Walks the stored predecessor links from (node, dir) back to its seed
/// and re-evaluates every stage on the path through DelayModel::audit.
/// Preconditions: the session has run and arrival(node, dir) has a
/// value (Error otherwise).
ExplainReport explain_arrival(const Session& session, NodeId node,
                              Transition dir);

/// Facade form over the analyzer's attached session.
ExplainReport explain_arrival(const TimingAnalyzer& analyzer, NodeId node,
                              Transition dir);

/// Multi-line human-readable rendering: one block per event with the
/// stage delay, the stage description, and the audit terms.
std::string format_explain(const Netlist& nl, const ExplainReport& report);

/// One JSON object (schema in FORMATS.md): the chain as a "steps"
/// array, each non-seed step carrying its audit record.
std::string explain_json(const Netlist& nl, const ExplainReport& report);

}  // namespace sldm

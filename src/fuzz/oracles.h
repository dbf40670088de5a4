// Differential and mathematical oracles for fuzzing.
//
// Each oracle cross-checks one pair of independent implementations (or
// one provable inequality) and reports the first violation it finds.
// The oracles are deliberately conservative: anything the reference
// cannot decide (an X value in the switch-level simulation, an analog
// run whose output never crosses) is a *skip*, never a failure, so a
// reported failure always names a genuine disagreement.
//
// Oracles:
//  * netlist-check     structural validity of a generated circuit;
//  * sanity            arrivals finite/non-negative, critical path
//                      monotone in time;
//  * self-consistency  every arrival is its recorded predecessor's
//                      final arrival plus the via stage's delay at that
//                      predecessor's final slope, and no other fired
//                      stage into the key beats it (run for rc-tree,
//                      lumped and slope);
//  * stage-bounds      per extracted stage: rph-lower <= elmore point
//                      estimate <= rph-upper, and elmore <= lumped
//                      (Elmore never exceeds R_tot*C_tot on a chain);
//  * switchsim         if flipping the stimulated input flips the
//                      settled output in the switch-level simulator,
//                      the analyzer must report an arrival for that
//                      output transition (static timing is an
//                      over-approximation of sensitizable paths);
//  * analog            small circuits only: the RC-tree prediction must
//                      land within a generous band of the analog
//                      transient reference;
//  * eco-identity      after an eco script, update() must be
//                      bit-identical to a from-scratch rebuild, under
//                      rc-tree and slope;
//  * snapshot-roundtrip  analysis over a compile -> serialize ->
//                      deserialize round trip of the design must be
//                      bit-identical to direct analysis.
#pragma once

#include <string>
#include <vector>

#include "compare/harness.h"
#include "delay/slope_table.h"
#include "gen/generators.h"
#include "timing/analyzer.h"

namespace sldm {

/// One oracle verdict.  `skipped` marks an undecidable case (counted,
/// never fatal); `detail` explains a failure or a skip.
struct OracleResult {
  bool ok = true;
  bool skipped = false;
  std::string detail;

  static OracleResult pass() { return {}; }
  static OracleResult skip(std::string why) {
    return {.ok = true, .skipped = true, .detail = std::move(why)};
  }
  static OracleResult fail(std::string why) {
    return {.ok = false, .skipped = false, .detail = std::move(why)};
  }
};

/// Structural checks (netlist/checks.h) must report no errors.
OracleResult check_netlist(const Netlist& nl);

/// Every arrival finite and non-negative (time and slope), and the
/// worst critical path's event times non-decreasing.
OracleResult check_sanity(const Netlist& nl, const Session& session);

/// Slope tables whose multipliers grow with the slope ratio, the same
/// for every (trigger type, transition): the fuzzer's slope model, so a
/// slope oracle runs without a calibration.  A later input edge that is
/// also faster can then give an earlier candidate downstream, the case
/// self-consistency and eco-identity exist to catch.
const SlopeTables& fuzz_slope_tables();

/// Every arrival of `session` (a completed run() or update()) is its
/// recorded predecessor's final arrival plus the via stage's delay at
/// that predecessor's final slope, with that stage's output slope; no
/// other stage into the key whose fire key has an arrival yields a later
/// time, or an equal time from a smaller stage index (the canonical tie
/// key); and a key with no arrival has no such stage.
OracleResult check_self_consistency(const Session& session);

/// The RPH/Elmore/lumped inequalities on every extracted stage, with a
/// relative tolerance for floating-point noise.
OracleResult check_stage_bounds(const Netlist& nl, const Tech& tech,
                                const StageTable& stages,
                                Seconds input_slope);

/// Differential functional check against the switch-level simulator.
/// `session` must have been run with events on *all* inputs (both
/// directions) over g.netlist.
OracleResult check_switchsim(const GeneratedCircuit& g,
                             const Session& session);

/// Differential accuracy check against the analog transient engine;
/// `max_error_pct` bounds the RC-tree model's |signed % error|.
OracleResult check_analog(const GeneratedCircuit& g,
                          const CompareContext& ctx, Seconds input_slope,
                          double max_error_pct);

/// Applies `eco_script` to a copy of g.netlist and checks that
/// TimingAnalyzer::update() is bit-identical to a rebuild, under the
/// rc-tree model and under the slope model over fuzz_slope_tables().  A
/// timing loop is only a failure if the two sides disagree about it.
OracleResult check_eco_identity(const GeneratedCircuit& g,
                                const std::string& eco_script,
                                Seconds input_slope);

/// Compiles g.netlist into a CompiledDesign, serializes it to the
/// .sldc byte layout, deserializes, and checks that analysis over the
/// round-tripped design (arrivals, stage count, the worst critical
/// path) is bit-identical to direct analysis.
OracleResult check_snapshot_roundtrip(const GeneratedCircuit& g,
                                      Seconds input_slope);

}  // namespace sldm

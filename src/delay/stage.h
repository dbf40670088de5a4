// The "stage" abstraction of the paper: one charging/discharging event.
//
// A stage is a path from a source of value (rail, chip input, or
// precharged node) through the channels of conducting transistors to a
// destination node, triggered by one transistor's gate transition.  The
// delay models consume this electrical summary; the timing analyzer
// (src/timing) produces it from a netlist, and tests/benches also build
// stages directly.
//
// Delay models never price a standalone Stage directly: a stage is
// baked into the flat StageStore (delay/stage_store.h), which caches
// every derived electrical total at insertion time, and the models read
// those caches.  Stage is the construction-side record extraction
// fills, and what tests and examples build by hand;
// DelayModel::estimate(stage) bakes it into a one-stage store.
#pragma once

#include <cstddef>
#include <vector>

#include "netlist/types.h"
#include "rc/rc_tree.h"
#include "util/units.h"

namespace sldm {

/// One conducting transistor along the stage path, with the lumped
/// capacitance of the node on its destination side.
struct StageElement {
  TransistorType type = TransistorType::kNEnhancement;
  Ohms resistance = 0.0;  ///< effective resistance for this transition
  Farads cap = 0.0;       ///< node capacitance it charges/discharges
};

/// A complete stage.
struct Stage {
  /// Transition produced at the destination node.
  Transition output_dir = Transition::kFall;
  /// Slope of the trigger's gate transition (full-swing-equivalent ramp
  /// time); 0 means an ideal step.
  Seconds input_slope = 0.0;
  /// Path from the value source (front) to the destination (back).
  std::vector<StageElement> elements;
  /// Index into `elements` of the trigger transistor.
  std::size_t trigger_index = 0;

  /// Capacitance at the destination node.
  Farads destination_cap() const;
  /// Sum of path resistances, front to back.
  Ohms total_resistance() const;
  /// Sum of path node capacitances, front to back.
  Farads total_cap() const;
};

/// Validates stage invariants: non-empty path, trigger in range,
/// positive resistances, non-negative caps, positive total cap,
/// non-negative input slope.  Throws ContractViolation otherwise.
void validate(const Stage& stage);

/// Builds the (chain-shaped) RC tree of the stage: root at the value
/// source, one tree node per element.  The destination is the last tree
/// node (index elements.size()).
RcTree to_rc_tree(const Stage& stage);

/// Elmore time constant at the stage destination (the RcTree reference
/// for the StageStore's cached value).
Seconds stage_elmore(const Stage& stage);

}  // namespace sldm

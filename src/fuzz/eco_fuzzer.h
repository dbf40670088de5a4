// Random ECO edit scripts for incremental-timing fuzzing.
//
// Edits are generated as *text* in the eco script dialect
// (netlist/eco_io.h) rather than as direct Netlist calls: the same
// bytes that drove TimingAnalyzer::update() during fuzzing replay
// byte-identically from a checked-in repro case through `sldm eco`.
// Only journal-absorbable edits are emitted (resizes, caps, flow, value
// pins, new nodes/devices) -- never role changes, which update()
// rejects by contract.
#pragma once

#include <string>
#include <vector>

#include "fuzz/rng.h"
#include "netlist/netlist.h"

namespace sldm {

/// `edits` random eco records valid against `nl`, one per line.
/// Devices are addressed by terminal node names, so the script applies
/// to any structurally identical reload of the netlist.  `protect` (the
/// stimulated input) is never pinned to a constant, so the circuit
/// keeps a switching source.  Node names created by the script are
/// drawn from `*new_nodes`, which the caller carries across scripts to
/// keep names unique.
std::vector<std::string> random_eco_script(const Netlist& nl, FuzzRng& rng,
                                           int edits, NodeId protect,
                                           int* new_nodes);

/// Joins script lines with newlines (the byte form given to apply_eco).
std::string join_script(const std::vector<std::string>& lines);

}  // namespace sldm

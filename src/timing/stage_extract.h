// Stage extraction: decomposing a switch-level netlist into the stages
// the delay models evaluate.
//
// For a destination node and transition, we enumerate the simple channel
// paths from a suitable value source to the destination (Crystal's
// path-tracing step).  Each enhancement transistor on a path is a
// potential trigger (the transistor whose gate transition opens the
// path); ratioed circuits additionally produce *release* stages, where
// an always-on load recharges the node after its opposing network turns
// off (nMOS depletion pull-ups, pseudo-nMOS p loads).
//
// Two false-path controls mirror Crystal's:
//  * transistor flow attributes (Transistor::flow) forbid traversing a
//    pass device against its annotated signal direction;
//  * fixed node values (ExtractOptions::fixed_values, Crystal's "set"
//    command) pin a node to a constant: the node acts like a rail, and
//    devices it gates are constant-on or constant-off.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "delay/stage.h"
#include "netlist/netlist.h"
#include "tech/tech.h"
#include "timing/ccc.h"
#include "timing/stage_table.h"
#include "util/contracts.h"

namespace sldm {

/// Extraction limits and assumptions.
struct ExtractOptions {
  /// Maximum number of channel devices on a path (deep enough for the
  /// longest benchmark pass/carry chains; kMaxPathsPerQuery caps the
  /// work on dense pass-transistor meshes).
  int max_depth = 16;
  /// Treat chip inputs as value sources (they can pass either value).
  bool inputs_as_sources = true;
  /// Nodes pinned to constant logic values for this analysis.  Takes
  /// precedence over the netlist's persistent Node::fixed attribute
  /// (the `@set` .sim record), which is also honored.
  std::unordered_map<NodeId, bool> fixed_values;
};

/// The logic value of a node if it is constant under `options`
/// (rails, per-analysis fixed_values, and persistently pinned nodes),
/// nullopt otherwise.
std::optional<bool> known_value(const Netlist& nl,
                                const ExtractOptions& options, NodeId n);

/// True if the device can conduct under some gate value (i.e. it is not
/// permanently off given rails and fixed values).
bool can_conduct(const Netlist& nl, const ExtractOptions& options,
                 DeviceId d);
bool can_conduct(const Netlist& nl, DeviceId d);

/// True if the device conducts regardless of circuit activity
/// (depletion devices, devices whose gate is pinned to the enabling
/// value).
bool always_on(const Netlist& nl, const ExtractOptions& options, DeviceId d);
bool always_on(const Netlist& nl, DeviceId d);

/// Flat storage for a batch of channel paths (concatenated device
/// lists); path `i` occupies [offsets[i], offsets[i+1]) of `devices`.
/// Reused across queries so path enumeration does not allocate per path.
struct PathList {
  std::vector<DeviceId> devices;
  std::vector<std::uint32_t> offsets{0};

  void clear() {
    devices.clear();
    offsets.assign(1, 0);
  }
  std::size_t size() const { return offsets.size() - 1; }
};

/// The per-node facts the extraction predicates read, computed once per
/// extraction call (one O(nodes) pass) so the DFS never consults
/// ExtractOptions::fixed_values' hash map: each node's known value
/// (rails, fixed_values, Node::fixed -- known_value()'s precedence), and
/// whether it is a chip input or precharged.
class NodeRoles {
 public:
  NodeRoles(const Netlist& nl, const ExtractOptions& options);

  /// known_value(nl, options, n), from the table.
  std::optional<bool> known_value(NodeId n) const {
    const std::uint8_t b = bits_[n.index()];
    if (!(b & kKnown)) return std::nullopt;
    return (b & kHigh) != 0;
  }
  bool is_input(NodeId n) const { return (bits_[n.index()] & kInput) != 0; }
  bool is_precharged(NodeId n) const {
    return (bits_[n.index()] & kPrecharged) != 0;
  }

 private:
  static constexpr std::uint8_t kKnown = 1u << 0;
  static constexpr std::uint8_t kHigh = 1u << 1;
  static constexpr std::uint8_t kInput = 1u << 2;
  static constexpr std::uint8_t kPrecharged = 1u << 3;
  std::vector<std::uint8_t> bits_;
};

/// Reusable workspace for stage extraction.  One scratch per thread;
/// queries through the same scratch must not run concurrently.  All
/// buffers grow to the high-water mark of the netlist and stay
/// allocated, which removes the per-(node, direction) allocation churn
/// of the DFS hot path.
struct ExtractScratch {
  std::vector<char> visited;        ///< per-node DFS mark (self-clearing)
  std::vector<DeviceId> stack;      ///< DFS channel stack
  PathList paths;                   ///< ON-trigger candidate paths
  PathList load_paths;              ///< always-on load paths
  PathList opposing;                ///< opposing-network paths
  std::vector<DeviceId> release_triggers;  ///< sorted, deduplicated
};

/// All stages that can drive `dest` to `dir`, including release stages
/// through always-on loads.  Appends to `out` in deterministic order,
/// copying each path into the table (no per-stage allocation).
/// Precondition: `roles` was built from (nl, options).
void stages_to(const Netlist& nl, NodeId dest, Transition dir,
               const ExtractOptions& options, const NodeRoles& roles,
               ExtractScratch& scratch, StageTable& out);

/// Convenience form (builds its own roles and scratch).
StageTable stages_to(const Netlist& nl, NodeId dest, Transition dir,
                     const ExtractOptions& options = {});

/// Result of a component-partitioned whole-netlist extraction.
struct PartitionedStages {
  /// Every stage in ascending (destination node id, rise-then-fall)
  /// order -- bit-identical for any thread count.
  StageTable stages;
  /// Stage count per CCC of the partition used for extraction.
  std::vector<std::size_t> per_ccc;
};

/// Extracts the whole netlist by fanning the channel-connected
/// components of `ccc` out over `threads` workers (threads == 1 runs
/// inline with no pool).  Each chunk of components fills its own table;
/// one stitch pass (span "extract-stitch") then copies each node's
/// window in node-id order, so stage indices are identical for any
/// thread count.  Precondition: threads >= 1; ccc was built from `nl`.
PartitionedStages extract_stages_partitioned(const Netlist& nl,
                                             const ExtractOptions& options,
                                             const CccPartition& ccc,
                                             int threads);

/// Output of extract_components: one table per worker chunk, and per
/// node (indexed by node id) its window of rows in those tables.  Nodes
/// outside the extracted components have empty windows.
struct ExtractedChunks {
  std::vector<StageTable> tables;
  std::vector<StageWindow> windows;
};

/// Extracts only the listed components, fanned out over `threads`
/// workers exactly like extract_stages_partitioned.  Each node's window
/// holds its stages in rise-then-fall order -- bit-identical to the
/// node's rows of a whole-netlist extraction.  This is the
/// re-extraction primitive of TimingAnalyzer::update(): dirty
/// components pay, clean ones don't.
/// Preconditions: threads >= 1; components are valid ids of `ccc`,
/// ascending and unique.
ExtractedChunks extract_components(const Netlist& nl,
                                   const ExtractOptions& options,
                                   const CccPartition& ccc,
                                   const std::vector<std::size_t>& components,
                                   int threads);

/// The channel walk every stage bake shares (make_stage, the design's
/// gather bake and its in-place ECO re-bake): visits ts.path source to
/// destination, calling emit(device, transistor, next) with each device
/// and the node its channel leads to.  Checks that the path is
/// connected and ends at ts.destination; returns the trigger's element
/// index (0 for release stages, whose trigger is off the path).
template <typename Emit>
std::size_t walk_stage(const Netlist& nl, const TimingStage& ts,
                       Emit&& emit) {
  SLDM_EXPECTS(!ts.path.empty());
  std::size_t trigger_index = 0;
  NodeId cur = ts.source;
  for (std::size_t i = 0; i < ts.path.size(); ++i) {
    const DeviceId d = ts.path[i];
    const Transistor& t = nl.device(d);
    SLDM_EXPECTS(t.connects(cur));
    const NodeId next = t.other_end(cur);
    emit(d, t, next);
    if (!ts.trigger_is_release && d == ts.trigger) trigger_index = i;
    cur = next;
  }
  SLDM_ENSURES(cur == ts.destination);
  return trigger_index;
}

/// Converts a TimingStage into the electrical Stage the delay models
/// consume: per-device effective resistances for the output direction
/// and per-node lumped capacitances from `tech`.
/// For release stages the trigger element defaults to the source-side
/// driver of the path (the load device).
Stage make_stage(const Netlist& nl, const Tech& tech, const TimingStage& ts,
                 Seconds input_slope);

/// In-place form for hot loops: rebuilds `out` (element storage is
/// reused across calls, so a loop-local Stage avoids one allocation per
/// delay-model evaluation).
void make_stage(const Netlist& nl, const Tech& tech, const TimingStage& ts,
                Seconds input_slope, Stage& out);

/// Human-readable one-line description, for reports.
std::string describe(const Netlist& nl, const TimingStage& ts);

}  // namespace sldm

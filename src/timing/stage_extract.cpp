#include "timing/stage_extract.h"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "util/contracts.h"

namespace sldm {
namespace {

/// Hard cap on enumerated paths per (node, direction); prevents blowup
/// on pathological pass-transistor meshes.
constexpr std::size_t kMaxPathsPerQuery = 20000;

bool is_source_for(const ExtractOptions& options, const NodeRoles& roles,
                   NodeId n, Transition dir) {
  if (const auto fixed = roles.known_value(n)) {
    // A pinned node supplies its constant value.
    return dir == Transition::kRise ? *fixed : !*fixed;
  }
  if (dir == Transition::kRise) {
    if (roles.is_precharged(n)) return true;
  }
  return options.inputs_as_sources && roles.is_input(n);
}

/// Value sources terminate traversal: a channel path never runs through
/// a rail, a pinned node, or an input.  A precharged node terminates
/// only rise-direction searches (where it acts as the source);
/// discharge paths legitimately run through precharged nodes (e.g. a
/// Manchester carry chain).
bool blocks_traversal(const NodeRoles& roles, NodeId n, Transition dir) {
  return roles.known_value(n).has_value() || roles.is_input(n) ||
         (roles.is_precharged(n) && dir == Transition::kRise);
}

/// A device's conduction when it does not depend on circuit activity:
/// depletion devices always conduct, and a device whose gate value is
/// known (`gate`) conducts iff that value enables it.  nullopt when the
/// gate can move.
std::optional<bool> fixed_conduction(const Transistor& t,
                                     std::optional<bool> gate) {
  if (t.type == TransistorType::kNDepletion) return true;
  if (!gate) return std::nullopt;
  return t.type == TransistorType::kNEnhancement ? *gate : !*gate;
}

/// can_conduct()/always_on() over the roles table.
bool can_conduct(const Netlist& nl, const NodeRoles& roles, DeviceId d) {
  const Transistor& t = nl.device(d);
  return fixed_conduction(t, roles.known_value(t.gate)).value_or(true);
}

bool always_on(const Netlist& nl, const NodeRoles& roles, DeviceId d) {
  const Transistor& t = nl.device(d);
  return fixed_conduction(t, roles.known_value(t.gate)).value_or(false);
}

/// Depth-first enumeration of simple channel paths dest -> source into
/// `out` (cleared first).  `device_filter` restricts which devices may
/// appear on the path.  Flow annotations are enforced: moving the
/// *search* from node n to node m means the *signal* flows m -> n, so
/// the device must allow conduction entering at m.
///
/// Uses the scratch's visited marks and stack; both are restored to
/// their empty state on return (the DFS unmarks on unwind), so one
/// scratch serves any number of sequential queries without clearing.
template <typename Filter>
void enumerate_paths(const Netlist& nl, NodeId dest, Transition dir,
                     const ExtractOptions& options, const NodeRoles& roles,
                     Filter device_filter, ExtractScratch& scratch,
                     PathList& out) {
  out.clear();
  scratch.visited.resize(nl.node_count(), 0);
  auto& visited = scratch.visited;
  auto& stack = scratch.stack;
  SLDM_ASSERT(stack.empty());

  auto dfs = [&](auto&& self, NodeId n) -> void {
    if (out.size() >= kMaxPathsPerQuery) return;
    visited[n.index()] = 1;
    for (DeviceId d : nl.channels_at(n)) {
      if (!device_filter(d)) continue;
      const Transistor& t = nl.device(d);
      const NodeId m = t.other_end(n);
      if (visited[m.index()]) continue;
      if (!t.flow_allows_from(m)) continue;  // signal would flow m -> n
      stack.push_back(d);
      if (is_source_for(options, roles, m, dir)) {
        // Emit in source->dest order.
        out.devices.insert(out.devices.end(), stack.rbegin(), stack.rend());
        out.offsets.push_back(
            static_cast<std::uint32_t>(out.devices.size()));
      } else if (!blocks_traversal(roles, m, dir) &&
                 static_cast<int>(stack.size()) < options.max_depth) {
        self(self, m);
      }
      stack.pop_back();
    }
    visited[n.index()] = 0;
  };
  dfs(dfs, dest);
}

/// The node at the source end of a source->dest path.
template <typename It>
NodeId path_source(const Netlist& nl, NodeId dest, It first, It last) {
  // Walk from dest backwards to find the far end.
  NodeId cur = dest;
  for (It it = last; it != first;) {
    cur = nl.device(*--it).other_end(cur);
  }
  return cur;
}

/// Gate transition that turns an enhancement device ON.
Transition on_gate_dir(TransistorType type) {
  return type == TransistorType::kPEnhancement ? Transition::kFall
                                               : Transition::kRise;
}

}  // namespace

std::optional<bool> known_value(const Netlist& nl,
                                const ExtractOptions& options, NodeId n) {
  const Node& info = nl.node(n);
  if (info.is_power) return true;
  if (info.is_ground) return false;
  if (const auto it = options.fixed_values.find(n);
      it != options.fixed_values.end()) {
    return it->second;
  }
  return info.fixed_value();
}

bool can_conduct(const Netlist& nl, const ExtractOptions& options,
                 DeviceId d) {
  // The gate can move unless pinned: assume the worst case.
  const Transistor& t = nl.device(d);
  return fixed_conduction(t, known_value(nl, options, t.gate)).value_or(true);
}

bool can_conduct(const Netlist& nl, DeviceId d) {
  return can_conduct(nl, ExtractOptions{}, d);
}

bool always_on(const Netlist& nl, const ExtractOptions& options, DeviceId d) {
  const Transistor& t = nl.device(d);
  return fixed_conduction(t, known_value(nl, options, t.gate)).value_or(false);
}

bool always_on(const Netlist& nl, DeviceId d) {
  return always_on(nl, ExtractOptions{}, d);
}

NodeRoles::NodeRoles(const Netlist& nl, const ExtractOptions& options)
    : bits_(nl.node_count(), 0) {
  // known_value()'s precedence: rails, then fixed_values, then the
  // netlist's persistent pin.
  for (NodeId n : nl.all_nodes()) {
    const Node& info = nl.node(n);
    std::optional<bool> known = info.fixed_value();
    if (info.is_power) known = true;
    if (info.is_ground) known = false;
    bits_[n.index()] = static_cast<std::uint8_t>(
        (known ? kKnown : 0) | (known.value_or(false) ? kHigh : 0) |
        (info.is_input ? kInput : 0) | (info.is_precharged ? kPrecharged : 0));
  }
  for (const auto& [n, value] : options.fixed_values) {
    if (n.index() >= bits_.size()) continue;  // never asked about
    const Node& info = nl.node(n);
    if (info.is_power || info.is_ground) continue;
    std::uint8_t& b = bits_[n.index()];
    b = static_cast<std::uint8_t>((b & ~kHigh) | kKnown | (value ? kHigh : 0));
  }
}

void stages_to(const Netlist& nl, NodeId dest, Transition dir,
               const ExtractOptions& options, const NodeRoles& roles,
               ExtractScratch& scratch, StageTable& out) {
  // Rails, pinned nodes, and inputs never switch.
  if (roles.known_value(dest).has_value() || roles.is_input(dest)) return;

  // --- ON-trigger stages: a transistor on the path turns on. ----------
  enumerate_paths(
      nl, dest, dir, options, roles,
      [&](DeviceId d) { return can_conduct(nl, roles, d); }, scratch,
      scratch.paths);
  const PathList& paths = scratch.paths;
  for (std::size_t p = 0; p < paths.size(); ++p) {
    const std::span<const DeviceId> path(
        paths.devices.data() + paths.offsets[p],
        paths.devices.data() + paths.offsets[p + 1]);
    const NodeId src = path_source(nl, dest, path.begin(), path.end());
    for (const DeviceId d : path) {
      if (always_on(nl, roles, d)) continue;  // loads never trigger
      out.append(src, dest, d,
                 StageTable::pack_bits(dir, on_gate_dir(nl.device(d).type),
                                       /*release=*/false,
                                       /*source_triggered=*/false),
                 path);
    }
    // A chip-input source also fires the stage with its own edge (the
    // only trigger when every path device is constant-on).
    if (nl.node(src).is_input) {
      out.append(src, dest, path.front(),
                 StageTable::pack_bits(dir, dir, /*release=*/false,
                                       /*source_triggered=*/true),
                 path);
    }
  }

  // --- Release stages: an always-on load restores the node after the
  // opposing network shuts off (ratioed logic). -------------------------
  enumerate_paths(
      nl, dest, dir, options, roles,
      [&](DeviceId d) { return always_on(nl, roles, d); }, scratch,
      scratch.load_paths);
  const PathList& load_paths = scratch.load_paths;
  if (load_paths.size() != 0) {
    enumerate_paths(
        nl, dest, opposite(dir), options, roles,
        [&](DeviceId d) { return can_conduct(nl, roles, d); }, scratch,
        scratch.opposing);
    // Each switching device on an opposing path is a release trigger
    // (sorted and deduplicated for a deterministic emission order).
    auto& triggers = scratch.release_triggers;
    triggers.clear();
    for (DeviceId d : scratch.opposing.devices) {
      if (!always_on(nl, roles, d)) triggers.push_back(d);
    }
    std::sort(triggers.begin(), triggers.end());
    triggers.erase(std::unique(triggers.begin(), triggers.end()),
                   triggers.end());
    for (std::size_t p = 0; p < load_paths.size(); ++p) {
      const std::span<const DeviceId> path(
          load_paths.devices.data() + load_paths.offsets[p],
          load_paths.devices.data() + load_paths.offsets[p + 1]);
      const NodeId src = path_source(nl, dest, path.begin(), path.end());
      // Only rail-driven loads restore a level.
      if (!nl.node(src).is_power && !nl.node(src).is_ground) continue;
      for (DeviceId d : triggers) {
        out.append(src, dest, d,
                   StageTable::pack_bits(
                       dir, opposite(on_gate_dir(nl.device(d).type)),
                       /*release=*/true, /*source_triggered=*/false),
                   path);
      }
    }
  }
}

StageTable stages_to(const Netlist& nl, NodeId dest, Transition dir,
                     const ExtractOptions& options) {
  StageTable stages;
  ExtractScratch scratch;
  stages_to(nl, dest, dir, options, NodeRoles(nl, options), scratch, stages);
  return stages;
}

ExtractedStages extract_components(
    const Netlist& nl, const ExtractOptions& options, const CccPartition& ccc,
    const std::vector<std::size_t>& components) {
  std::vector<char> selected(ccc.count(), 0);
  for (const std::size_t c : components) {
    SLDM_EXPECTS(c < ccc.count());
    selected[c] = 1;
  }
  const NodeRoles roles(nl, options);
  ExtractScratch scratch;
  ExtractedStages out;
  out.windows.assign(nl.node_count(), StageWindow{});
  for (const NodeId n : nl.all_nodes()) {
    const std::size_t c = ccc.component_of(n);
    if (c == CccPartition::kNone || !selected[c]) continue;
    StageWindow& w = out.windows[n.index()];
    w.begin = static_cast<std::uint32_t>(out.table.size());
    for (const Transition dir : {Transition::kRise, Transition::kFall}) {
      stages_to(nl, n, dir, options, roles, scratch, out.table);
    }
    w.end = static_cast<std::uint32_t>(out.table.size());
  }
  return out;
}

PartitionedStages extract_stages_partitioned(const Netlist& nl,
                                             const ExtractOptions& options,
                                             const CccPartition& ccc, int) {
  std::vector<std::size_t> all(ccc.count());
  std::iota(all.begin(), all.end(), std::size_t{0});
  ExtractedStages extracted = extract_components(nl, options, ccc, all);
  PartitionedStages out;
  out.stages = std::move(extracted.table);
  out.per_ccc.assign(ccc.count(), 0);
  for (const NodeId n : nl.all_nodes()) {
    const std::size_t c = ccc.component_of(n);
    if (c == CccPartition::kNone) continue;
    const StageWindow& w = extracted.windows[n.index()];
    out.per_ccc[c] += w.end - w.begin;
  }
  return out;
}

void make_stage(const Netlist& nl, const Tech& tech, const TimingStage& ts,
                Seconds input_slope, Stage& out) {
  out.elements.clear();
  out.output_dir = ts.output_dir;
  out.input_slope = input_slope;
  out.trigger_index =
      walk_stage(nl, ts, [&](DeviceId, const Transistor& t, NodeId next) {
        StageElement el;
        el.type = t.type;
        el.resistance = tech.resistance(t, ts.output_dir);
        el.cap = tech.node_capacitance(nl, next);
        out.elements.push_back(el);
      });
  validate(out);
}

Stage make_stage(const Netlist& nl, const Tech& tech, const TimingStage& ts,
                 Seconds input_slope) {
  Stage stage;
  make_stage(nl, tech, ts, input_slope, stage);
  return stage;
}

std::string describe(const Netlist& nl, const TimingStage& ts) {
  std::ostringstream os;
  os << nl.node(ts.destination).name << ' ' << to_string(ts.output_dir)
     << " from " << nl.node(ts.source).name << " via";
  for (DeviceId d : ts.path) {
    os << ' ' << to_letter(nl.device(d).type) << '('
       << nl.node(nl.device(d).gate).name << ')';
  }
  if (ts.source_triggered) {
    os << " driven by " << nl.node(ts.source).name << ' '
       << to_string(ts.trigger_gate_dir);
  } else {
    os << (ts.trigger_is_release ? " released by " : " triggered by ")
       << nl.node(nl.device(ts.trigger).gate).name << ' '
       << to_string(ts.trigger_gate_dir);
  }
  return os.str();
}

}  // namespace sldm

// Switch-level circuit representation.
//
// A Netlist is the paper's circuit model: transistors acting as switches
// connecting nodes, with a lumped capacitance per node.  It is the common
// input of every other subsystem: the analog simulator elaborates it into
// a nonlinear circuit, the timing analyzer decomposes it into stages, and
// the generators in src/gen build benchmark instances of it.
//
// Node roles:
//  * power / ground nodes are infinite-strength sources of 1 / 0;
//  * input nodes are driven from outside the circuit (chip inputs);
//  * output nodes are observation points for reporting;
//  * precharged nodes are treated as sources of 1 at the start of an
//    evaluation phase (dynamic logic).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "netlist/changes.h"
#include "netlist/types.h"
#include "util/interner.h"
#include "util/units.h"

namespace sldm {

/// One electrical net.
struct Node {
  /// Interned view into the owning Netlist's symbol arena (stable
  /// across netlist moves; re-interned on netlist copy).
  Symbol name;
  /// Explicit lumped capacitance to ground (wiring + any annotated load).
  /// Device capacitances are *not* included here; Tech::node_capacitance
  /// adds gate/diffusion contributions from connected transistors.
  Farads cap = 0.0;
  bool is_power = false;       ///< Vdd rail
  bool is_ground = false;      ///< GND rail
  bool is_input = false;       ///< driven externally
  bool is_output = false;      ///< observation point
  bool is_precharged = false;  ///< dynamic node, precharged high
  /// Persistent pinned logic value (Crystal's "set" command as a netlist
  /// attribute, the `@set` .sim record): -1 free, 0/1 pinned.  Pinned
  /// nodes act as constant value sources during stage extraction.
  std::int8_t fixed = -1;

  /// The pinned value, if any.
  std::optional<bool> fixed_value() const {
    if (fixed < 0) return std::nullopt;
    return fixed != 0;
  }
};

/// One MOS transistor, modeled as a switch with a channel between
/// `source` and `drain`, controlled by `gate`.
///
/// Source/drain are interchangeable electrically; the names follow the
/// .sim convention only.  Dimensions are drawn channel width/length in
/// meters.
struct Transistor {
  TransistorType type = TransistorType::kNEnhancement;
  NodeId gate = NodeId::invalid();
  NodeId source = NodeId::invalid();
  NodeId drain = NodeId::invalid();
  Meters width = 0.0;
  Meters length = 0.0;
  /// Designer-annotated signal-flow restriction (default: none).
  Flow flow = Flow::kBidirectional;

  /// Width/length ratio (electrical strength factor).
  double aspect() const { return width / length; }
  /// The channel terminal opposite `n`.  Precondition: n is source or drain.
  NodeId other_end(NodeId n) const;
  /// True if `n` is one of the channel terminals.
  bool connects(NodeId n) const { return n == source || n == drain; }
  /// True if the flow annotation permits a signal entering at `from`
  /// and leaving at the other terminal.
  /// Precondition: `from` is a channel terminal.
  bool flow_allows_from(NodeId from) const;
};

/// A complete switch-level circuit.
///
/// Node and device ids are dense indices assigned in creation order, so
/// they can index parallel arrays in analysis passes.
///
/// Every mutation is journaled in a ChangeLog (changes()), and the log
/// length is the netlist's revision().  Incremental consumers
/// (CccPartition::update, TimingAnalyzer::update) replay the entries
/// recorded since the revision they last synchronized to, so ECO edits
/// (resizing, re-annotating, or growing an already-analyzed circuit)
/// cost work proportional to the damage, not the circuit.
class Netlist {
 public:
  Netlist() = default;

  /// Copying re-interns every node name into the copy's own arena, so
  /// the copy is fully independent of the original's lifetime.  Moves
  /// are cheap: the arena's chunks travel by pointer, so interned
  /// Symbols stay valid.  The name index holds node ids, not names, so
  /// both copy and move take it as is.
  Netlist(const Netlist& other);
  Netlist& operator=(const Netlist& other);
  Netlist(Netlist&&) = default;
  Netlist& operator=(Netlist&&) = default;

  /// Creates a node, or returns the existing one with this name.  The
  /// name is interned into the netlist's arena (no per-node string
  /// allocation).  Postcondition: find_node(name) == returned id.
  NodeId add_node(std::string_view name);

  /// Looks up a node by name.
  std::optional<NodeId> find_node(std::string_view name) const;

  /// Creates a transistor.  Preconditions: all ids valid and in range;
  /// width > 0 and length > 0; source != drain (no self-loops).
  DeviceId add_transistor(TransistorType type, NodeId gate, NodeId source,
                          NodeId drain, Meters width, Meters length,
                          Flow flow = Flow::kBidirectional);

  /// Grows the node, name-map, adjacency and journal storage ahead of
  /// `n` more add_node() calls, so none of them regrows mid-build.
  void reserve_nodes(std::size_t n);

  /// Adds `devices` to a netlist that has none yet, exactly as
  /// add_transistor() on each in order would (same ids, adjacency order
  /// and journal entries), but sizes every adjacency list once instead
  /// of growing it device by device.  Preconditions: device_count() ==
  /// 0, and those of add_transistor() for every device.
  void add_transistors(std::vector<Transistor> devices);

  /// Changes a device's flow annotation.
  void set_flow(DeviceId id, Flow flow);

  /// Resizes a device's drawn channel.  Preconditions: id valid;
  /// value > 0.
  void set_width(DeviceId id, Meters width);
  void set_length(DeviceId id, Meters length);

  /// Replaces a node's explicit lumped capacitance.  Precondition:
  /// cap >= 0.
  void set_capacitance(NodeId n, Farads cap);

  /// Pins a node to a constant logic value (Crystal's "set"), or frees
  /// it (nullopt).  Pinned nodes act as value sources in extraction.
  void set_fixed(NodeId n, std::optional<bool> value);

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t device_count() const { return devices_.size(); }

  const Node& node(NodeId id) const;
  Node& node(NodeId id);
  const Transistor& device(DeviceId id) const;

  /// All node / device ids in creation order (materialized; convenience
  /// only — hot loops should use all_nodes()/all_devices()).
  std::vector<NodeId> node_ids() const;
  std::vector<DeviceId> device_ids() const;

  /// Allocation-free id iteration for hot loops.
  IdRange<NodeId> all_nodes() const { return IdRange<NodeId>(nodes_.size()); }
  IdRange<DeviceId> all_devices() const {
    return IdRange<DeviceId>(devices_.size());
  }

  /// Devices whose gate is `n`, in ascending id order.
  const std::vector<DeviceId>& gated_by(NodeId n) const;
  /// Devices with a channel terminal on `n`.
  const std::vector<DeviceId>& channels_at(NodeId n) const;

  // --- Role helpers -------------------------------------------------------
  /// Marks by name, creating the node if needed.
  NodeId mark_power(std::string_view name);
  NodeId mark_ground(std::string_view name);
  NodeId mark_input(std::string_view name);
  NodeId mark_output(std::string_view name);
  NodeId mark_precharged(std::string_view name);

  /// True if the node is a rail (power or ground).
  bool is_rail(NodeId n) const;

  /// Adds capacitance to a node's explicit lumped cap.
  /// Precondition: extra >= 0.
  void add_cap(NodeId n, Farads extra);

  /// The power / ground node if exactly one is marked.
  std::optional<NodeId> power_node() const;
  std::optional<NodeId> ground_node() const;

  /// Monotonic edit counter (== changes().revision()).
  std::uint64_t revision() const { return log_.revision(); }

  /// The full mutation journal since construction.
  const ChangeLog& changes() const { return log_; }

 private:
  void check_node(NodeId id) const;
  void check_device(DeviceId id) const;
  /// Re-interns node names into this netlist's arena (copy construction).
  void reintern_names();
  /// The index slot holding `name`, or the empty slot where it would go.
  /// Precondition: name_slots_ is not empty.
  std::size_t find_slot(std::string_view name, std::uint32_t hash) const;
  /// Grows name_slots_ to hold `nodes` names at a load factor <= 1/2.
  void reserve_name_index(std::size_t nodes);

  std::vector<Node> nodes_;
  std::vector<Transistor> devices_;
  /// Owns the bytes of every node name; Node::name views into it.
  Interner names_;
  /// Flat open-addressing name index (linear probing, power-of-two
  /// size, load factor <= 1/2).  A slot packs the 32-bit hash of a name
  /// (high half) with its node id (low half), so probes compare names
  /// only on a hash match and a rehash never rehashes a name; the name
  /// itself is nodes_[id].name.  kEmptySlot marks a free slot.
  std::vector<std::uint64_t> name_slots_;
  std::vector<std::vector<DeviceId>> gated_by_;
  std::vector<std::vector<DeviceId>> channels_at_;
  ChangeLog log_;
};

}  // namespace sldm

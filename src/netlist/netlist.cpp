#include "netlist/netlist.h"

#include <algorithm>
#include <bit>
#include <functional>

#include "util/contracts.h"

namespace sldm {
namespace {

constexpr std::uint64_t kEmptySlot = ~std::uint64_t{0};

std::uint32_t name_hash(std::string_view name) {
  const std::uint64_t h = std::hash<std::string_view>{}(name);
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

std::uint64_t pack_slot(std::uint32_t hash, NodeId id) {
  return (std::uint64_t{hash} << 32) | id.value();
}

std::uint32_t slot_hash(std::uint64_t slot) {
  return static_cast<std::uint32_t>(slot >> 32);
}

NodeId slot_node(std::uint64_t slot) {
  return NodeId(static_cast<NodeId::underlying_type>(slot));
}

}  // namespace

std::string to_letter(TransistorType t) {
  switch (t) {
    case TransistorType::kNEnhancement:
      return "e";
    case TransistorType::kNDepletion:
      return "d";
    case TransistorType::kPEnhancement:
      return "p";
  }
  SLDM_ASSERT(false);
  return {};
}

std::string to_string(TransistorType t) {
  switch (t) {
    case TransistorType::kNEnhancement:
      return "n-enhancement";
    case TransistorType::kNDepletion:
      return "n-depletion";
    case TransistorType::kPEnhancement:
      return "p-enhancement";
  }
  SLDM_ASSERT(false);
  return {};
}

std::string to_string(Transition t) {
  return t == Transition::kRise ? "rise" : "fall";
}

NodeId Transistor::other_end(NodeId n) const {
  SLDM_EXPECTS(connects(n));
  return n == source ? drain : source;
}

bool Transistor::flow_allows_from(NodeId from) const {
  SLDM_EXPECTS(connects(from));
  switch (flow) {
    case Flow::kBidirectional:
      return true;
    case Flow::kSourceToDrain:
      return from == source;
    case Flow::kDrainToSource:
      return from == drain;
  }
  SLDM_ASSERT(false);
  return false;
}

std::string to_string(Flow f) {
  switch (f) {
    case Flow::kBidirectional:
      return "bidirectional";
    case Flow::kSourceToDrain:
      return "s>d";
    case Flow::kDrainToSource:
      return "d>s";
  }
  SLDM_ASSERT(false);
  return {};
}

Netlist::Netlist(const Netlist& other)
    : nodes_(other.nodes_),
      devices_(other.devices_),
      name_slots_(other.name_slots_),
      gate_start_(other.gate_start_),
      channel_start_(other.channel_start_),
      gate_ids_(other.gate_ids_),
      channel_ids_(other.channel_ids_),
      log_(other.log_) {
  reintern_names();
}

Netlist& Netlist::operator=(const Netlist& other) {
  if (this == &other) return *this;
  nodes_ = other.nodes_;
  devices_ = other.devices_;
  name_slots_ = other.name_slots_;
  gate_start_ = other.gate_start_;
  channel_start_ = other.channel_start_;
  gate_ids_ = other.gate_ids_;
  channel_ids_ = other.channel_ids_;
  log_ = other.log_;
  names_ = Interner();
  reintern_names();
  return *this;
}

void Netlist::reintern_names() {
  for (Node& n : nodes_) n.name = names_.intern(n.name);
}

std::size_t Netlist::find_slot(std::string_view name,
                               std::uint32_t hash) const {
  const std::size_t mask = name_slots_.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const std::uint64_t slot = name_slots_[i];
    if (slot == kEmptySlot) return i;
    if (slot_hash(slot) == hash &&
        nodes_[slot_node(slot).index()].name.view() == name) {
      return i;
    }
  }
}

void Netlist::reserve_name_index(std::size_t nodes) {
  const std::size_t want = std::bit_ceil(std::max<std::size_t>(16, 2 * nodes));
  if (want <= name_slots_.size()) return;
  std::vector<std::uint64_t> slots(want, kEmptySlot);
  const std::size_t mask = want - 1;
  for (const std::uint64_t slot : name_slots_) {
    if (slot == kEmptySlot) continue;
    std::size_t i = slot_hash(slot) & mask;
    while (slots[i] != kEmptySlot) i = (i + 1) & mask;
    slots[i] = slot;
  }
  name_slots_ = std::move(slots);
}

NodeId Netlist::add_node(std::string_view name) {
  SLDM_EXPECTS(!name.empty());
  const std::uint32_t hash = name_hash(name);
  reserve_name_index(nodes_.size() + 1);
  const std::size_t at = find_slot(name, hash);
  if (name_slots_[at] != kEmptySlot) return slot_node(name_slots_[at]);
  if (adjacency_fresh()) {  // the new node has no devices yet
    gate_start_.push_back(gate_start_.back());
    channel_start_.push_back(channel_start_.back());
  }
  const NodeId id(static_cast<NodeId::underlying_type>(nodes_.size()));
  nodes_.push_back(Node{.name = names_.intern(name)});
  name_slots_[at] = pack_slot(hash, id);
  log_.record(ChangeKind::kNodeAdded, id.value());
  return id;
}

std::optional<NodeId> Netlist::find_node(std::string_view name) const {
  if (name_slots_.empty()) return std::nullopt;
  const std::uint64_t slot = name_slots_[find_slot(name, name_hash(name))];
  if (slot == kEmptySlot) return std::nullopt;
  return slot_node(slot);
}

DeviceId Netlist::add_transistor(TransistorType type, NodeId gate,
                                 NodeId source, NodeId drain, Meters width,
                                 Meters length, Flow flow) {
  check_node(gate);
  check_node(source);
  check_node(drain);
  SLDM_EXPECTS(source != drain);
  SLDM_EXPECTS(width > 0.0 && length > 0.0);
  const DeviceId id(static_cast<DeviceId::underlying_type>(devices_.size()));
  devices_.push_back(Transistor{.type = type,
                                .gate = gate,
                                .source = source,
                                .drain = drain,
                                .width = width,
                                .length = length,
                                .flow = flow});
  log_.record(ChangeKind::kDeviceAdded, id.value());
  return id;
}

void Netlist::reserve_nodes(std::size_t n) {
  nodes_.reserve(nodes_.size() + n);
  reserve_name_index(nodes_.size() + n);
}

void Netlist::add_transistors(std::vector<Transistor> devices) {
  SLDM_EXPECTS(devices_.empty());
  for (const Transistor& t : devices) {
    check_node(t.gate);
    check_node(t.source);
    check_node(t.drain);
    SLDM_EXPECTS(t.source != t.drain);
    SLDM_EXPECTS(t.width > 0.0 && t.length > 0.0);
  }
  devices_ = std::move(devices);
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    log_.record(ChangeKind::kDeviceAdded, static_cast<std::uint32_t>(i));
  }
  build_adjacency();
}

void Netlist::build_adjacency() const {
  // Node v's counts go to start[v + 2], so that after the prefix sum
  // start[v + 1] is v's first slot.  The fill advances it to v's end,
  // which is v + 1's first slot, so dropping the last entry leaves
  // start[v] at v's first slot.  Offsets are 32-bit.
  SLDM_ASSERT(devices_.size() <= UINT32_MAX / 2);
  const std::size_t n = nodes_.size();
  gate_start_.assign(n + 2, 0);
  channel_start_.assign(n + 2, 0);
  for (const Transistor& t : devices_) {
    ++gate_start_[t.gate.index() + 2];
    ++channel_start_[t.source.index() + 2];
    ++channel_start_[t.drain.index() + 2];
  }
  for (std::size_t i = 2; i < n + 2; ++i) {
    gate_start_[i] += gate_start_[i - 1];
    channel_start_[i] += channel_start_[i - 1];
  }
  gate_ids_.assign(devices_.size(), DeviceId());  // exact, unlike resize
  channel_ids_.assign(2 * devices_.size(), DeviceId());
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    const DeviceId id(static_cast<DeviceId::underlying_type>(i));
    const Transistor& t = devices_[i];
    gate_ids_[gate_start_[t.gate.index() + 1]++] = id;
    channel_ids_[channel_start_[t.source.index() + 1]++] = id;
    channel_ids_[channel_start_[t.drain.index() + 1]++] = id;
  }
  gate_start_.pop_back();
  channel_start_.pop_back();
}

std::size_t Netlist::bytes() const {
  return nodes_.capacity() * sizeof(Node) +
         devices_.capacity() * sizeof(Transistor) + names_.bytes() +
         name_slots_.capacity() * sizeof(std::uint64_t) +
         (gate_start_.capacity() + channel_start_.capacity()) *
             sizeof(std::uint32_t) +
         (gate_ids_.capacity() + channel_ids_.capacity()) *
             sizeof(DeviceId) +
         log_.bytes();
}

const Node& Netlist::node(NodeId id) const {
  check_node(id);
  return nodes_[id.index()];
}

Node& Netlist::node(NodeId id) {
  check_node(id);
  return nodes_[id.index()];
}

const Transistor& Netlist::device(DeviceId id) const {
  SLDM_EXPECTS(id.valid() && id.index() < devices_.size());
  return devices_[id.index()];
}

void Netlist::set_flow(DeviceId id, Flow flow) {
  check_device(id);
  devices_[id.index()].flow = flow;
  log_.record(ChangeKind::kDeviceFlow, id.value());
}

void Netlist::set_width(DeviceId id, Meters width) {
  check_device(id);
  SLDM_EXPECTS(width > 0.0);
  devices_[id.index()].width = width;
  log_.record(ChangeKind::kDeviceSized, id.value());
}

void Netlist::set_length(DeviceId id, Meters length) {
  check_device(id);
  SLDM_EXPECTS(length > 0.0);
  devices_[id.index()].length = length;
  log_.record(ChangeKind::kDeviceSized, id.value());
}

void Netlist::set_capacitance(NodeId n, Farads cap) {
  check_node(n);
  SLDM_EXPECTS(cap >= 0.0);
  nodes_[n.index()].cap = cap;
  log_.record(ChangeKind::kNodeCap, n.value());
}

void Netlist::set_fixed(NodeId n, std::optional<bool> value) {
  check_node(n);
  nodes_[n.index()].fixed =
      value ? static_cast<std::int8_t>(*value ? 1 : 0) : std::int8_t{-1};
  log_.record(ChangeKind::kNodeFixed, n.value());
}

std::vector<NodeId> Netlist::node_ids() const {
  std::vector<NodeId> out;
  out.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    out.push_back(NodeId(static_cast<NodeId::underlying_type>(i)));
  }
  return out;
}

std::vector<DeviceId> Netlist::device_ids() const {
  std::vector<DeviceId> out;
  out.reserve(devices_.size());
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    out.push_back(DeviceId(static_cast<DeviceId::underlying_type>(i)));
  }
  return out;
}

std::span<const DeviceId> Netlist::gated_by(NodeId n) const {
  check_node(n);
  refresh_adjacency();
  return std::span<const DeviceId>(gate_ids_).subspan(
      gate_start_[n.index()],
      gate_start_[n.index() + 1] - gate_start_[n.index()]);
}

std::span<const DeviceId> Netlist::channels_at(NodeId n) const {
  check_node(n);
  refresh_adjacency();
  return std::span<const DeviceId>(channel_ids_).subspan(
      channel_start_[n.index()],
      channel_start_[n.index() + 1] - channel_start_[n.index()]);
}

std::vector<DeviceId> Netlist::gated_by_appending(NodeId n) const {
  check_node(n);
  // gate_ids_ covers the first gate_ids_.size() devices, and the
  // offsets every node that existed at that build.
  if (devices_.size() - gate_ids_.size() > kAppendScan) refresh_adjacency();
  std::vector<DeviceId> out;
  if (n.index() + 1 < gate_start_.size()) {
    out.assign(gate_ids_.begin() + gate_start_[n.index()],
               gate_ids_.begin() + gate_start_[n.index() + 1]);
  }
  for (std::size_t i = gate_ids_.size(); i < devices_.size(); ++i) {
    if (devices_[i].gate == n) {
      out.push_back(DeviceId(static_cast<DeviceId::underlying_type>(i)));
    }
  }
  return out;
}

NodeId Netlist::mark_power(std::string_view name) {
  const NodeId id = add_node(name);
  nodes_[id.index()].is_power = true;
  log_.record(ChangeKind::kNodeRole, id.value());
  return id;
}

NodeId Netlist::mark_ground(std::string_view name) {
  const NodeId id = add_node(name);
  nodes_[id.index()].is_ground = true;
  log_.record(ChangeKind::kNodeRole, id.value());
  return id;
}

NodeId Netlist::mark_input(std::string_view name) {
  const NodeId id = add_node(name);
  nodes_[id.index()].is_input = true;
  log_.record(ChangeKind::kNodeRole, id.value());
  return id;
}

NodeId Netlist::mark_output(std::string_view name) {
  const NodeId id = add_node(name);
  nodes_[id.index()].is_output = true;
  log_.record(ChangeKind::kNodeRoleOutput, id.value());
  return id;
}

NodeId Netlist::mark_precharged(std::string_view name) {
  const NodeId id = add_node(name);
  nodes_[id.index()].is_precharged = true;
  log_.record(ChangeKind::kNodeRole, id.value());
  return id;
}

bool Netlist::is_rail(NodeId n) const {
  const Node& info = node(n);
  return info.is_power || info.is_ground;
}

void Netlist::add_cap(NodeId n, Farads extra) {
  SLDM_EXPECTS(extra >= 0.0);
  node(n).cap += extra;
  log_.record(ChangeKind::kNodeCap, n.value());
}

std::optional<NodeId> Netlist::power_node() const {
  std::optional<NodeId> found;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].is_power) {
      if (found) return std::nullopt;  // ambiguous
      found = NodeId(static_cast<NodeId::underlying_type>(i));
    }
  }
  return found;
}

std::optional<NodeId> Netlist::ground_node() const {
  std::optional<NodeId> found;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].is_ground) {
      if (found) return std::nullopt;  // ambiguous
      found = NodeId(static_cast<NodeId::underlying_type>(i));
    }
  }
  return found;
}

void Netlist::check_node(NodeId id) const {
  SLDM_EXPECTS(id.valid() && id.index() < nodes_.size());
}

void Netlist::check_device(DeviceId id) const {
  SLDM_EXPECTS(id.valid() && id.index() < devices_.size());
}

}  // namespace sldm

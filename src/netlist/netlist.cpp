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
      gated_by_(other.gated_by_),
      channels_at_(other.channels_at_),
      log_(other.log_) {
  reintern_names();
}

Netlist& Netlist::operator=(const Netlist& other) {
  if (this == &other) return *this;
  nodes_ = other.nodes_;
  devices_ = other.devices_;
  name_slots_ = other.name_slots_;
  gated_by_ = other.gated_by_;
  channels_at_ = other.channels_at_;
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
  const NodeId id(static_cast<NodeId::underlying_type>(nodes_.size()));
  nodes_.push_back(Node{.name = names_.intern(name)});
  gated_by_.emplace_back();
  channels_at_.emplace_back();
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
  gated_by_[gate.index()].push_back(id);
  channels_at_[source.index()].push_back(id);
  channels_at_[drain.index()].push_back(id);
  log_.record(ChangeKind::kDeviceAdded, id.value());
  return id;
}

void Netlist::reserve_nodes(std::size_t n) {
  nodes_.reserve(nodes_.size() + n);
  reserve_name_index(nodes_.size() + n);
  gated_by_.reserve(gated_by_.size() + n);
  channels_at_.reserve(channels_at_.size() + n);
  log_.reserve_more(n);
}

void Netlist::add_transistors(std::vector<Transistor> devices) {
  SLDM_EXPECTS(devices_.empty());
  std::vector<std::uint32_t> gates(nodes_.size(), 0);
  std::vector<std::uint32_t> channels(nodes_.size(), 0);
  for (const Transistor& t : devices) {
    check_node(t.gate);
    check_node(t.source);
    check_node(t.drain);
    SLDM_EXPECTS(t.source != t.drain);
    SLDM_EXPECTS(t.width > 0.0 && t.length > 0.0);
    ++gates[t.gate.index()];
    ++channels[t.source.index()];
    ++channels[t.drain.index()];
  }
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    gated_by_[n].reserve(gates[n]);
    channels_at_[n].reserve(channels[n]);
  }
  devices_ = std::move(devices);
  log_.reserve_more(devices_.size());
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    const DeviceId id(static_cast<DeviceId::underlying_type>(i));
    const Transistor& t = devices_[i];
    gated_by_[t.gate.index()].push_back(id);
    channels_at_[t.source.index()].push_back(id);
    channels_at_[t.drain.index()].push_back(id);
    log_.record(ChangeKind::kDeviceAdded, id.value());
  }
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

const std::vector<DeviceId>& Netlist::gated_by(NodeId n) const {
  check_node(n);
  return gated_by_[n.index()];
}

const std::vector<DeviceId>& Netlist::channels_at(NodeId n) const {
  check_node(n);
  return channels_at_[n.index()];
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

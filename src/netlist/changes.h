// Per-edit change log for incremental (ECO) analysis.
//
// Every Netlist mutation appends one Change entry describing what was
// touched.  The log length doubles as a monotonic revision counter:
// a consumer that remembers the revision it last synchronized to can
// later replay exactly the entries it missed (log.entry(i) for
// i in [synced, revision())) and recompute only the affected state.
// This is the contract between the netlist layer and the incremental
// consumers (CccPartition::update, TimingAnalyzer::update).
//
// Entries are intentionally tiny (kind + index): consumers resolve the
// index against the netlist at replay time, when terminals, gating
// lists, and parameters are already in their post-edit state (device
// terminals are immutable after creation, so replay order within a
// batch does not matter for dirty-set derivation).
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/types.h"
#include "util/contracts.h"

namespace sldm {

/// What one mutation did.  Kinds are grouped by how much an incremental
/// consumer must redo:
///  * topological (kNodeAdded, kDeviceAdded) changes the component
///    structure itself;
///  * parametric (kDeviceSized, kDeviceFlow, kNodeCap, kNodeFixed) keeps
///    the partition and only dirties the owning component(s);
///  * kNodeRoleOutput is reporting-only (no timing effect);
///  * kNodeRole (power/ground/input/precharge) would *split* components
///    or change value sources — incremental consumers refuse it.
enum class ChangeKind : std::uint8_t {
  kNodeAdded,       ///< index is the new node
  kDeviceAdded,     ///< index is the new device
  kDeviceSized,     ///< width/length changed; index is the device
  kDeviceFlow,      ///< flow annotation changed; index is the device
  kNodeCap,         ///< lumped capacitance changed; index is the node
  kNodeFixed,       ///< pinned value changed; index is the node
  kNodeRoleOutput,  ///< output (observation) mark; index is the node
  kNodeRole,        ///< power/ground/input/precharge mark; index is the node
};

/// One log entry.  `index` is a node or device index depending on kind.
struct Change {
  ChangeKind kind;
  std::uint32_t index;

  NodeId node() const { return NodeId(index); }
  DeviceId device() const { return DeviceId(index); }
};

/// Append-only mutation journal owned by a Netlist.
class ChangeLog {
 public:
  /// Current revision == number of entries ever recorded.
  std::uint64_t revision() const { return entries_.size(); }

  /// Entry `i`.  Precondition: i < revision().
  const Change& entry(std::uint64_t i) const {
    SLDM_EXPECTS(i < entries_.size());
    return entries_[static_cast<std::size_t>(i)];
  }

  void record(ChangeKind kind, std::uint32_t index) {
    entries_.push_back(Change{kind, index});
  }

  /// Grows capacity ahead of `n` more records.
  void reserve_more(std::size_t n) { entries_.reserve(entries_.size() + n); }

 private:
  std::vector<Change> entries_;
};

}  // namespace sldm

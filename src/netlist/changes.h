// Per-edit change log for incremental (ECO) analysis.
//
// Every Netlist mutation advances a monotonic revision counter, and a
// journaled one also appends one Change entry describing what was
// touched.  A consumer that remembers the revision it last synchronized
// to can later replay exactly the entries it missed (log.entry(i) for
// i in [synced, revision())) and recompute only the affected state.
// This is the contract between the netlist layer and the incremental
// consumers (CccPartition::update, TimingAnalyzer::update).
//
// A bulk build (read_sim, the snapshot loader) runs with the journal
// off: its edits only advance the counter and form the log's baseline,
// below which entry() is a precondition failure.  No consumer replays
// a construction; each starts at the revision it was built at.
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
  /// Current revision == number of mutations ever recorded, journaled
  /// or not.
  std::uint64_t revision() const { return baseline_ + entries_.size(); }

  /// Revision of the first journaled entry: the mutations below it were
  /// counted with the journal off.
  std::uint64_t baseline() const { return baseline_; }

  /// Entry `i`.  Precondition: baseline() <= i < revision().
  const Change& entry(std::uint64_t i) const {
    SLDM_EXPECTS(i >= baseline_ && i < revision());
    return entries_[static_cast<std::size_t>(i - baseline_)];
  }

  void record(ChangeKind kind, std::uint32_t index) {
    if (journaling_) {
      entries_.push_back(Change{kind, index});
    } else {
      ++baseline_;
    }
  }

  /// Turns journaling off (later records only count) or back on.
  /// Precondition for turning it off: no entry journaled yet, so the
  /// unjournaled mutations are a prefix of the log.
  void set_journaling(bool on) {
    SLDM_EXPECTS(on || entries_.empty());
    journaling_ = on;
  }

  /// Heap bytes held by the journal.
  std::size_t bytes() const { return entries_.capacity() * sizeof(Change); }

 private:
  std::uint64_t baseline_ = 0;
  std::vector<Change> entries_;
  bool journaling_ = true;
};

}  // namespace sldm

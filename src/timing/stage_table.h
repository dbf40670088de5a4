// The flat stage table: every extracted stage of a design in one set of
// parallel arrays, and the CSR index that groups them by firing event.
//
// A netlist-level stage is a handful of ids plus a channel path.  One
// record with its own path vector per stage would cost a 436k-device
// design ~872k heap allocations to build and as many to free, so the
// StageTable stores the stages structure-of-arrays:
//
//   * per stage: source, destination, trigger device, one bits byte
//     (output falls, trigger gate falls, release, source-triggered --
//     exactly the STGS stage-bits byte of FORMATS.md section 11) and a
//     path offset;
//   * one shared DeviceId array holding every path back to back; stage
//     s owns [offset[s], offset[s+1]).
//
// Extraction appends straight into a table, the per-node stitch
// (stitch_stages) assembles the canonical order by copying windows of
// flat arrays, and the .sldc STGS section is these arrays verbatim.
//
// TimingStage is a non-owning view of one row.  Appending to a table
// may reallocate its arrays, which invalidates every view (and every
// path span) taken from it before the append.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <utility>
#include <vector>

#include "netlist/netlist.h"

namespace sldm {

/// One stage at netlist level (device/node identities preserved): a
/// view of one StageTable row.
struct TimingStage {
  NodeId source;            ///< value source the charge comes from
  NodeId destination;       ///< node being switched
  Transition output_dir;    ///< transition produced at destination
  /// Channel devices, source -> destination (a window of the table's
  /// shared path array).
  std::span<const DeviceId> path;
  /// The transistor whose gate event fires this stage.  For ON-trigger
  /// stages it lies on `path`; for release stages it lies on the
  /// opposing network; for source-triggered stages it is the source-side
  /// path device (used for electrical typing only).
  DeviceId trigger;
  Transition trigger_gate_dir;  ///< gate transition that fires the stage
  bool trigger_is_release = false;
  /// True when the firing event is the *source node's own transition*
  /// (a chip input driving through a conducting pass network), not a
  /// gate: the analyzer indexes such stages by (source, output_dir).
  bool source_triggered = false;
};

/// Packed arrival/trigger key: (node, dir) -> node * 2 + (rise ? 0 : 1).
/// The index space of TriggerIndex and of every per-(node, dir) session
/// array.
inline std::size_t arrival_key(NodeId node, Transition dir) {
  return node.index() * 2 + (dir == Transition::kRise ? 0 : 1);
}

/// The arrival_key of the event that fires `ts` (the key TriggerIndex
/// files it under): the source's own edge for source-triggered stages,
/// else the trigger's gate edge.
inline std::size_t fire_key(const TimingStage& ts, const Netlist& nl) {
  const NodeId fire =
      ts.source_triggered ? ts.source : nl.device(ts.trigger).gate;
  return arrival_key(fire, ts.trigger_gate_dir);
}

/// One stage's window of a StageTable: rows [begin, end) of table
/// `table` in a list of tables (see stitch_stages).
struct StageWindow {
  std::uint32_t table = 0;
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
};

class StageTable {
 public:
  // Stage bits (FORMATS.md section 11).
  static constexpr std::uint8_t kOutputFalls = 1u << 0;
  static constexpr std::uint8_t kTriggerGateFalls = 1u << 1;
  static constexpr std::uint8_t kTriggerIsRelease = 1u << 2;
  static constexpr std::uint8_t kSourceTriggered = 1u << 3;
  static constexpr std::uint8_t kAllBits = 0x0F;

  /// The bits byte of a stage with these transitions and flags.
  static constexpr std::uint8_t pack_bits(Transition output_dir,
                                          Transition trigger_gate_dir,
                                          bool release, bool source_triggered) {
    return static_cast<std::uint8_t>(
        (output_dir == Transition::kFall ? kOutputFalls : 0) |
        (trigger_gate_dir == Transition::kFall ? kTriggerGateFalls : 0) |
        (release ? kTriggerIsRelease : 0) |
        (source_triggered ? kSourceTriggered : 0));
  }

  /// Range-for support: iterates rows as TimingStage views (by value).
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = TimingStage;
    using difference_type = std::ptrdiff_t;
    using reference = TimingStage;

    iterator() = default;
    iterator(const StageTable* table, std::size_t s) : table_(table), s_(s) {}
    TimingStage operator*() const { return (*table_)[s_]; }
    iterator& operator++() {
      ++s_;
      return *this;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.s_ == b.s_;
    }

   private:
    const StageTable* table_ = nullptr;
    std::size_t s_ = 0;
  };

  std::size_t size() const { return source_.size(); }
  bool empty() const { return source_.empty(); }
  /// Total path devices over all stages.
  std::size_t path_device_count() const { return device_.size(); }
  /// Path devices of rows [begin, end).
  std::size_t path_device_count(std::size_t begin, std::size_t end) const {
    return offset_[end] - offset_[begin];
  }

  /// View of row `s` (valid until the next append to this table).
  TimingStage operator[](std::size_t s) const {
    const std::uint8_t b = bits_[s];
    return TimingStage{.source = source_[s],
                       .destination = destination_[s],
                       .output_dir = (b & kOutputFalls) ? Transition::kFall
                                                        : Transition::kRise,
                       .path = path(s),
                       .trigger = trigger_[s],
                       .trigger_gate_dir = (b & kTriggerGateFalls)
                                               ? Transition::kFall
                                               : Transition::kRise,
                       .trigger_is_release = (b & kTriggerIsRelease) != 0,
                       .source_triggered = (b & kSourceTriggered) != 0};
  }
  iterator begin() const { return iterator(this, 0); }
  iterator end() const { return iterator(this, size()); }

  // --- Column accessors (the hot loops read these, not whole rows).
  NodeId destination(std::size_t s) const { return destination_[s]; }
  Transition output_dir(std::size_t s) const {
    return (bits_[s] & kOutputFalls) ? Transition::kFall : Transition::kRise;
  }
  std::span<const DeviceId> path(std::size_t s) const {
    return {device_.data() + offset_[s], device_.data() + offset_[s + 1]};
  }
  /// The rows whose destination is `n`, as [first, second).  Requires
  /// canonical order (ascending destination), which every design's
  /// table is in.
  std::pair<std::size_t, std::size_t> rows_to(NodeId n) const {
    const auto [lo, hi] =
        std::equal_range(destination_.begin(), destination_.end(), n);
    return {static_cast<std::size_t>(lo - destination_.begin()),
            static_cast<std::size_t>(hi - destination_.begin())};
  }

  /// Appends one stage, copying `path` into the shared path array.
  /// `path` must not view this table (an append may reallocate it).
  void append(NodeId source, NodeId destination, DeviceId trigger,
              std::uint8_t bits, std::span<const DeviceId> path);
  /// Appends a copy of `ts` (a view of some *other* table).
  void append(const TimingStage& ts);
  /// Appends rows [begin, end) of `from` (another table), rebasing
  /// their path offsets: flat array copies, no per-stage work.
  void append_rows(const StageTable& from, std::size_t begin,
                   std::size_t end);

  void clear();
  void reserve(std::size_t stages, std::size_t path_devices);

  /// Snapshot bridge (design/snapshot.cpp): the table's exact arrays, in
  /// STGS order.  for_each_array() visits them without copying;
  /// from_arrays() adopts a decoded set.
  struct RawArrays {
    std::vector<NodeId> source;
    std::vector<NodeId> destination;
    std::vector<DeviceId> trigger;
    std::vector<std::uint8_t> bits;
    std::vector<std::uint32_t> offset;
    std::vector<DeviceId> device;
  };
  template <typename F>
  void for_each_array(F&& f) const {
    f(source_), f(destination_), f(trigger_), f(bits_), f(offset_),
        f(device_);
  }
  /// Preconditions (the snapshot reader checks each one and fails by
  /// name): equal per-stage lengths, offsets nondecreasing from 0 to
  /// the path array's length, bits within kAllBits, ids in range.
  static StageTable from_arrays(RawArrays arrays);

 private:
  std::vector<NodeId> source_;
  std::vector<NodeId> destination_;
  std::vector<DeviceId> trigger_;
  std::vector<std::uint8_t> bits_;
  std::vector<std::uint32_t> offset_{0};
  std::vector<DeviceId> device_;
};

/// Builds one table from windows of several: for each window in order,
/// rows [begin, end) of `*tables[w.table]` are appended.  Extraction
/// passes one window per node in id order (which fixes the canonical
/// global stage order for any chunking), and the ECO splice passes the
/// old table's windows for clean nodes and the fresh tables' for dirty
/// ones.
StageTable stitch_stages(std::span<const StageTable* const> tables,
                         std::span<const StageWindow> windows);

/// Stage ids grouped by firing event, in compressed-sparse-row form:
/// the stages fired by key k (an arrival_key) are stages_[offsets_[k]
/// .. offsets_[k+1]), ascending.
class TriggerIndex {
 public:
  /// Indexes every stage of `table` under the arrival_key of the event
  /// that fires it: the source's own edge for source-triggered stages,
  /// else the trigger's gate edge.  `key_count` is node_count() * 2 of
  /// the netlist `table` was extracted from.  A count pass and a fill
  /// pass, no per-key allocation.
  void build(const StageTable& table, const Netlist& nl,
             std::size_t key_count);

  std::size_t key_count() const { return offsets_.size() - 1; }
  std::span<const std::uint32_t> operator[](std::size_t key) const {
    return {stages_.data() + offsets_[key], stages_.data() + offsets_[key + 1]};
  }

 private:
  std::vector<std::uint32_t> offsets_{0};
  std::vector<std::uint32_t> stages_;
};

}  // namespace sldm

// Flat structure-of-arrays storage for extracted stages: what every
// delay model prices.
//
// The timing analyzer's propagation loop evaluates the same stage set
// thousands of times; a per-stage `Stage` (vector of StageElement,
// rebuilt per evaluation) would pay an allocation, a pointer chase, and
// a re-derivation of every electrical total on each visit.  The
// StageStore amortizes all of that once, at extraction time:
//
//  * element data (type / resistance / capacitance) lives in three
//    contiguous arrays, with a per-stage [offset, offset+length) window;
//  * every slope-independent derived quantity is cached per stage:
//    total path resistance, total path capacitance, destination
//    capacitance, the Elmore constant at the destination, and the RPH
//    total time constant.  Stage::total_*(), stage_elmore() and
//    RcTree::total_time_constant() are the reference definitions these
//    caches are tested against.
//
// Only the trigger's input slope varies between evaluations of one
// stage, so DelayModel::estimate_batch (delay/model.h) takes the store
// plus parallel (stage id, input slope) spans, and DelayModel::audit
// reads the same caches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "delay/stage.h"

namespace sldm {

/// The (trigger type, output transition) pairs a set of stages uses,
/// one bit per pair (stage_kind_bit).
using StageKinds = std::uint8_t;

constexpr StageKinds stage_kind_bit(TransistorType type, Transition dir) {
  return static_cast<StageKinds>(
      1u << (static_cast<unsigned>(type) * 2 + static_cast<unsigned>(dir)));
}

class StageStore {
 public:
  /// Index of a stage within the store (assigned densely by add()).
  using StageId = std::uint32_t;

  /// Appends a validated stage and caches its derived totals.  Throws
  /// ContractViolation exactly like validate(stage) would.  Returns the
  /// new stage's id (== size() before the call).
  StageId add(const Stage& stage);

  /// Bulk form of add() for bakes that gather elements from precomputed
  /// arrays: push_element() appends the open stage's elements, source to
  /// destination, and close_stage() checks them like validate() (a
  /// non-empty window, trigger inside it, r > 0, c >= 0, total C > 0),
  /// then caches the totals.  add() is exactly this pair, so both bakes
  /// produce bit-identical stores.  A close_stage() that throws leaves
  /// the open elements in place: clear() the store before reusing it.
  void push_element(TransistorType type, Ohms r, Farads c) {
    elem_type_.push_back(type);
    elem_r_.push_back(r);
    elem_c_.push_back(c);
  }
  StageId close_stage(Transition output_dir, std::size_t trigger_index);

  /// In-place form for edits that keep every path (device sizes, node
  /// capacitances): overwrites stage `s`'s element R and C -- `r` and
  /// `c` hold length(s) values, source to destination -- and re-derives
  /// its caches with close_stage()'s checks and kernel, so the result is
  /// bit-identical to a full bake over the same values.  Element types,
  /// the window and the trigger are kept.  A throw leaves the stage
  /// untouched.
  void rebake_stage(StageId s, std::span<const Ohms> r,
                    std::span<const Farads> c);

  /// Drops all stages (capacity is retained for rebuilds).
  void clear();

  /// Grows capacity ahead of a bulk build.
  void reserve(std::size_t stages, std::size_t elements);

  std::size_t size() const { return offset_.size() - 1; }
  bool empty() const { return size() == 0; }
  std::size_t element_count() const { return elem_r_.size(); }

  // --- Per-stage cached quantities (hot accessors, no recomputation).
  Transition output_dir(StageId s) const { return output_dir_[s]; }
  std::uint32_t length(StageId s) const {
    return offset_[s + 1] - offset_[s];
  }
  std::uint32_t trigger_index(StageId s) const { return trigger_index_[s]; }
  TransistorType trigger_type(StageId s) const { return trigger_type_[s]; }
  /// The kinds every stage of the store uses (one walk).
  StageKinds kinds() const;
  /// Sum of path resistances (Stage::total_resistance()).
  Ohms total_resistance(StageId s) const { return total_r_[s]; }
  /// Sum of path node capacitances (Stage::total_cap()).
  Farads total_cap(StageId s) const { return total_c_[s]; }
  /// Capacitance at the destination node.
  Farads destination_cap(StageId s) const { return dest_c_[s]; }
  /// Elmore time constant at the destination (stage_elmore()).
  Seconds elmore(StageId s) const { return elmore_[s]; }
  /// RPH total time constant T_P of the stage tree
  /// (to_rc_tree(stage).total_time_constant()).
  Seconds total_time_constant(StageId s) const { return tp_[s]; }

  /// Snapshot bridge (design/snapshot.cpp): the store's exact internal
  /// arrays.  for_each_array() visits them without copying, and
  /// RawArrays::for_each() visits a restore target, both in RawArrays
  /// declaration order.  Restoring from_arrays() with an unmodified
  /// copy reproduces a bit-identical store -- the cached doubles travel
  /// verbatim, so no electrical quantity is re-derived on a warm start.
  struct RawArrays {
    std::vector<TransistorType> elem_type;
    std::vector<Ohms> elem_r;
    std::vector<Farads> elem_c;
    std::vector<std::uint32_t> offset;
    std::vector<Transition> output_dir;
    std::vector<std::uint32_t> trigger_index;
    std::vector<TransistorType> trigger_type;
    std::vector<Ohms> total_r;
    std::vector<Farads> total_c;
    std::vector<Farads> dest_c;
    std::vector<Seconds> elmore;
    std::vector<Seconds> tp;

    template <typename F>
    void for_each(F&& f) {
      f(elem_type), f(elem_r), f(elem_c), f(offset);
      f(output_dir), f(trigger_index), f(trigger_type);
      f(total_r), f(total_c), f(dest_c), f(elmore), f(tp);
    }
  };
  template <typename F>
  void for_each_array(F&& f) const {
    f(elem_type_), f(elem_r_), f(elem_c_), f(offset_);
    f(output_dir_), f(trigger_index_), f(trigger_type_);
    f(total_r_), f(total_c_), f(dest_c_), f(elmore_), f(tp_);
  }
  /// Rebuilds a store from exported arrays.  Throws Error if the shapes
  /// are inconsistent (wrong per-stage array lengths, non-monotonic
  /// offsets) -- the snapshot loader's last line of defense.
  static StageStore from_arrays(RawArrays arrays);

 private:
  /// One stage's slope-independent caches.
  struct Caches {
    Ohms total_r = 0.0;
    Farads total_c = 0.0;
    Farads dest_c = 0.0;
    Seconds elmore = 0.0;
    Seconds tp = 0.0;
  };
  /// The one cache kernel (close_stage and rebake_stage): checks n > 0
  /// elements like validate() and derives their caches.
  static Caches bake_caches(const Ohms* r, const Farads* c, std::size_t n);

  // Concatenated element arrays; stage s owns [offset_[s], offset_[s+1]).
  std::vector<TransistorType> elem_type_;
  std::vector<Ohms> elem_r_;
  std::vector<Farads> elem_c_;
  std::vector<std::uint32_t> offset_{0};

  // Per-stage records.
  std::vector<Transition> output_dir_;
  std::vector<std::uint32_t> trigger_index_;
  std::vector<TransistorType> trigger_type_;
  std::vector<Ohms> total_r_;
  std::vector<Farads> total_c_;
  std::vector<Farads> dest_c_;
  std::vector<Seconds> elmore_;
  std::vector<Seconds> tp_;
};

}  // namespace sldm

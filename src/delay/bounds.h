// A bounds-based delay model built on the Rubinstein-Penfield-Horowitz
// inequalities: instead of a point estimate, each stage is priced at the
// provable upper (pessimistic verification) or lower (optimistic
// filtering) bound of its 50% crossing.
//
// Crystal offered a pessimistic mode for sign-off; this model is that
// mode, and Ablation B measures how loose the bounds are relative to
// the Elmore point estimate.
#pragma once

#include "delay/model.h"

namespace sldm {

class RphBoundsModel final : public DelayModel {
 public:
  enum class Mode { kUpper, kLower };

  explicit RphBoundsModel(Mode mode) : mode_(mode) {}

  std::string name() const override {
    return mode_ == Mode::kUpper ? "rph-upper" : "rph-lower";
  }

  /// delay = the RPH bound at 50% of the swing; output slope = the
  /// bound-consistent transition estimate (bound at 90% minus bound at
  /// 10%, scaled to a full swing).  Reads only the store's cached T_D
  /// and T_P; input slopes are ignored.
  void estimate_batch(const StageStore& store,
                      std::span<const StageStore::StageId> ids,
                      std::span<const Seconds> input_slopes,
                      std::span<DelayEstimate> out) const override;

  Mode mode() const { return mode_; }

 private:
  Mode mode_;
};

}  // namespace sldm

// The naive baseline the paper's introduction argues against: a fixed
// delay per stage, as used by unit-delay logic simulators.  Blind to
// resistance, capacitance, structure, and input speed alike -- included
// so the benches can show what the RC family already buys before the
// slope model refines it.
#pragma once

#include "delay/model.h"

namespace sldm {

class UnitDelayModel final : public DelayModel {
 public:
  /// `unit` is the fixed per-stage delay.  Precondition: unit > 0.
  explicit UnitDelayModel(Seconds unit);

  std::string name() const override { return "unit-delay"; }
  /// A constant fill (store stages are validated on insertion).
  void estimate_batch(const StageStore& store,
                      std::span<const StageStore::StageId> ids,
                      std::span<const Seconds> input_slopes,
                      std::span<DelayEstimate> out) const override;

  Seconds unit() const { return unit_; }

 private:
  Seconds unit_;
};

}  // namespace sldm

#include "delay/bounds.h"

#include "rc/rc_tree.h"
#include "util/contracts.h"

namespace sldm {

void RphBoundsModel::estimate_batch(
    const StageStore& store, std::span<const StageStore::StageId> ids,
    std::span<const Seconds> input_slopes,
    std::span<DelayEstimate> out) const {
  SLDM_EXPECTS(ids.size() == input_slopes.size());
  SLDM_EXPECTS(ids.size() == out.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const Seconds td = store.elmore(ids[i]);
    const Seconds tp = store.total_time_constant(ids[i]);
    const auto at = [this, td, tp](double v) {
      const RcTree::Bounds b = rph_bounds(td, tp, v);
      return mode_ == Mode::kUpper ? b.upper : b.lower;
    };
    DelayEstimate est;
    est.delay = at(0.5);
    // Transition-time estimate from the same bound family; guaranteed
    // non-negative because the bounds are monotone in v.
    est.output_slope = (at(0.9) - at(0.1)) / 0.8;
    if (est.output_slope <= 0.0) {
      est.output_slope = kSlopeFactor * td;
    }
    out[i] = est;
  }
}

}  // namespace sldm

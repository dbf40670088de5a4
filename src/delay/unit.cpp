#include "delay/unit.h"

#include "util/contracts.h"

namespace sldm {

UnitDelayModel::UnitDelayModel(Seconds unit) : unit_(unit) {
  SLDM_EXPECTS(unit > 0.0);
}

void UnitDelayModel::estimate_batch(const StageStore& store,
                                    std::span<const StageStore::StageId> ids,
                                    std::span<const Seconds> input_slopes,
                                    std::span<DelayEstimate> out) const {
  SLDM_EXPECTS(ids.size() == input_slopes.size());
  SLDM_EXPECTS(ids.size() == out.size());
  (void)store;  // stages were validated when the store was built
  for (std::size_t i = 0; i < ids.size(); ++i) {
    out[i] = {.delay = unit_, .output_slope = unit_};
  }
}

}  // namespace sldm

// Model 1 of the paper: lumped RC.
//
// Every resistance in the stage is summed into one R, every capacitance
// into one C, and the stage is treated as a single RC section:
// delay = ln(2) R C, output slope = ln(9)/0.8 R C.  Input slope is
// ignored entirely -- that blindness is what Table 2/Fig. 2 expose.
#pragma once

#include "delay/model.h"

namespace sldm {

class LumpedRcModel final : public DelayModel {
 public:
  std::string name() const override { return "lumped-rc"; }
  /// Prices each stage from the store's cached R/C totals.
  void estimate_batch(const StageStore& store,
                      std::span<const StageStore::StageId> ids,
                      std::span<const Seconds> input_slopes,
                      std::span<DelayEstimate> out) const override;

 private:
  /// Audit terms: tau_lumped, ln2.
  void append_audit_terms(const StageStore& store, StageStore::StageId id,
                          Seconds input_slope,
                          std::vector<AuditTerm>& terms) const override;
};

}  // namespace sldm

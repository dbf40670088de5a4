// Model 2 of the paper: distributed RC (RC-tree) analysis.
//
// The stage keeps its spatial structure: the Elmore time constant at the
// destination replaces the lumped product.  This fixes the ~2x
// pessimism of the lumped model on series pass-transistor chains
// (Table 3) but still knows nothing about the input transition time.
#pragma once

#include "delay/model.h"

namespace sldm {

class RcTreeModel final : public DelayModel {
 public:
  std::string name() const override { return "rc-tree"; }
  /// Prices each stage from the store's cached Elmore constant.
  void estimate_batch(const StageStore& store,
                      std::span<const StageStore::StageId> ids,
                      std::span<const Seconds> input_slopes,
                      std::span<DelayEstimate> out) const override;

 private:
  /// Audit terms: t_elmore, ln2.
  void append_audit_terms(const StageStore& store, StageStore::StageId id,
                          Seconds input_slope,
                          std::vector<AuditTerm>& terms) const override;
};

}  // namespace sldm

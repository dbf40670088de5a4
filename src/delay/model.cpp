#include "delay/model.h"

#include "delay/bounds.h"
#include "delay/lumped.h"
#include "delay/rctree.h"
#include "delay/unit.h"
#include "util/contracts.h"

namespace sldm {

std::unique_ptr<DelayModel> make_closed_form_model(const std::string& name) {
  if (name == "lumped") return std::make_unique<LumpedRcModel>();
  if (name == "rc-tree") return std::make_unique<RcTreeModel>();
  if (name == "rph-upper") {
    return std::make_unique<RphBoundsModel>(RphBoundsModel::Mode::kUpper);
  }
  if (name == "unit") return std::make_unique<UnitDelayModel>(1e-9);
  return nullptr;
}

DelayEstimate DelayModel::estimate(const Stage& stage) const {
  StageStore store;
  const StageStore::StageId id = store.add(stage);
  DelayEstimate out;
  estimate_batch(store, {&id, 1}, {&stage.input_slope, 1}, {&out, 1});
  return out;
}

DelayAudit DelayModel::audit(const StageStore& store,
                             StageStore::StageId id,
                             Seconds input_slope) const {
  SLDM_EXPECTS(id < store.size());
  DelayAudit audit;
  audit.model = name();
  audit.total_resistance = store.total_resistance(id);
  audit.total_cap = store.total_cap(id);
  audit.destination_cap = store.destination_cap(id);
  audit.elmore = store.elmore(id);
  audit.input_slope = input_slope;
  audit.path_devices = store.length(id);
  append_audit_terms(store, id, input_slope, audit.terms);
  estimate_batch(store, {&id, 1}, {&input_slope, 1}, {&audit.estimate, 1});
  return audit;
}

void DelayModel::require_covers(StageKinds /*used*/) const {}

void DelayModel::append_audit_terms(const StageStore& /*store*/,
                                    StageStore::StageId /*id*/,
                                    Seconds /*input_slope*/,
                                    std::vector<AuditTerm>& /*terms*/) const {
}

}  // namespace sldm

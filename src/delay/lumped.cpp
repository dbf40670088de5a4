#include "delay/lumped.h"

#include "rc/rc_tree.h"
#include "util/contracts.h"

namespace sldm {

void LumpedRcModel::estimate_batch(const StageStore& store,
                                   std::span<const StageStore::StageId> ids,
                                   std::span<const Seconds> input_slopes,
                                   std::span<DelayEstimate> out) const {
  SLDM_EXPECTS(ids.size() == input_slopes.size());
  SLDM_EXPECTS(ids.size() == out.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const Seconds tau =
        store.total_resistance(ids[i]) * store.total_cap(ids[i]);
    out[i] = {.delay = kLn2 * tau, .output_slope = kSlopeFactor * tau};
  }
}

void LumpedRcModel::append_audit_terms(const StageStore& store,
                                       StageStore::StageId id,
                                       Seconds /*input_slope*/,
                                       std::vector<AuditTerm>& terms) const {
  terms.push_back(
      {"tau_lumped", store.total_resistance(id) * store.total_cap(id), "s"});
  terms.push_back({"ln2", kLn2, ""});
}

}  // namespace sldm

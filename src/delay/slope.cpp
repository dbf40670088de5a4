#include "delay/slope.h"

#include "rc/rc_tree.h"
#include "util/contracts.h"
#include "util/error.h"

namespace sldm {

SlopeModel::SlopeModel(SlopeTables tables) : tables_(std::move(tables)) {}

SlopeModel::Factors SlopeModel::factors(const StageStore& store,
                                        StageStore::StageId id,
                                        Seconds input_slope) const {
  const Seconds td = store.elmore(id);
  const TransistorType trigger_type = store.trigger_type(id);
  SLDM_EXPECTS(tables_.has(trigger_type, store.output_dir(id)));
  const SlopeEntry& e = tables_.entry(trigger_type, store.output_dir(id));
  SLDM_EXPECTS(td > 0.0);
  const double rho = input_slope / td;
  const Factors f{td, rho, e.delay_mult(rho), e.slope_mult(rho)};
  SLDM_ENSURES(f.delay_mult > 0.0 && f.slope_mult > 0.0);
  return f;
}

void SlopeModel::require_covers(StageKinds used) const {
  for (const TransistorType type :
       {TransistorType::kNEnhancement, TransistorType::kNDepletion,
        TransistorType::kPEnhancement}) {
    for (const Transition dir : {Transition::kRise, Transition::kFall}) {
      if ((used & stage_kind_bit(type, dir)) && !tables_.has(type, dir)) {
        throw Error("slope tables have no entry for " + to_string(type) +
                    " " + to_string(dir) + " ('entry " + to_letter(type) +
                    " " + to_string(dir) +
                    "'), which this design's stages need");
      }
    }
  }
}

void SlopeModel::estimate_batch(const StageStore& store,
                                std::span<const StageStore::StageId> ids,
                                std::span<const Seconds> input_slopes,
                                std::span<DelayEstimate> out) const {
  SLDM_EXPECTS(ids.size() == input_slopes.size());
  SLDM_EXPECTS(ids.size() == out.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const Factors f = factors(store, ids[i], input_slopes[i]);
    out[i] = {.delay = kLn2 * f.delay_mult * f.t_elmore,
              .output_slope = kSlopeFactor * f.slope_mult * f.t_elmore};
  }
}

void SlopeModel::append_audit_terms(const StageStore& store,
                                    StageStore::StageId id,
                                    Seconds input_slope,
                                    std::vector<AuditTerm>& terms) const {
  const Factors f = factors(store, id, input_slope);
  terms.push_back({"t_elmore", f.t_elmore, "s"});
  terms.push_back({"rho", f.rho, ""});
  terms.push_back({"delay_mult", f.delay_mult, ""});
  terms.push_back({"slope_mult", f.slope_mult, ""});
}

}  // namespace sldm

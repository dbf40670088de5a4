// Model 3, the paper's contribution: the slope model.
//
// The stage keeps its distributed (Elmore) time constant, but the
// effective speed of the stage is modulated by how fast its trigger
// input moves: the slope ratio rho = input_slope / T_elmore selects a
// delay multiplier and an output-slope multiplier from per-device-type
// calibration tables.  A slow input (large rho) stretches both; a step
// input (rho -> 0) recovers the RC-tree behavior.  Slopes propagate:
// the estimated output slope becomes the next stage's input slope.
#pragma once

#include "delay/model.h"
#include "delay/slope_table.h"

namespace sldm {

class SlopeModel final : public DelayModel {
 public:
  /// `tables` must contain an entry for every (trigger type, direction)
  /// that will be priced; pricing enforces this per stage.
  explicit SlopeModel(SlopeTables tables);

  std::string name() const override { return "slope"; }
  /// delay = ln2 * delay_mult(rho) * T_elmore and output slope =
  /// kSlopeFactor * slope_mult(rho) * T_elmore, with
  /// rho = input_slope / T_elmore and the multipliers looked up in the
  /// trigger's (type, direction) table.
  void estimate_batch(const StageStore& store,
                      std::span<const StageStore::StageId> ids,
                      std::span<const Seconds> input_slopes,
                      std::span<DelayEstimate> out) const override;

  const SlopeTables& tables() const { return tables_; }

 private:
  /// The slope-model factors of one stage under one input slope.
  struct Factors {
    Seconds t_elmore;
    double rho;
    double delay_mult;
    double slope_mult;
  };
  Factors factors(const StageStore& store, StageStore::StageId id,
                  Seconds input_slope) const;

  /// Audit terms: t_elmore, rho, delay_mult, slope_mult.
  void append_audit_terms(const StageStore& store, StageStore::StageId id,
                          Seconds input_slope,
                          std::vector<AuditTerm>& terms) const override;

  SlopeTables tables_;
};

}  // namespace sldm

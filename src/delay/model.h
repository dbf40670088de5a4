// The DelayModel interface: the paper's three models (lumped RC,
// distributed RC tree, slope) are interchangeable behind it, and the
// timing analyzer, the experiment harness, and the examples all take a
// `const DelayModel&`.
//
// Each model is one formula over a stage's electrical summary, and it
// is written once: estimate_batch() prices a batch of stages resident
// in a StageStore (delay/stage_store.h) against per-item input slopes,
// reading the store's cached totals.  It is the only virtual that
// prices a stage.  The other entry points are non-virtual wrappers
// over it:
//
//  * estimate(stage) prices a standalone Stage as a one-element batch
//    over a one-stage store (tests, examples, the fuzz oracles);
//  * audit(store, id, slope) prices one store stage the same way and
//    also reports the electrical terms the verdict was built from: the
//    generic ones (path resistance, capacitances, Elmore constant) come
//    from the store caches, and a small virtual hook appends the
//    model's own factors (e.g. the slope model's rho and table
//    multipliers).  The explain pipeline (timing/explain.h) audits each
//    critical-path stage through it to produce the paper's
//    Section-6-style per-stage breakdown.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "delay/stage.h"
#include "delay/stage_store.h"
#include "util/units.h"

namespace sldm {

/// What a delay model predicts for one stage.
struct DelayEstimate {
  /// Time from the trigger's gate 50%-crossing to the destination
  /// node's 50%-crossing.
  Seconds delay = 0.0;
  /// Predicted transition time at the destination (full-swing-
  /// equivalent ramp time); feeds the next stage's input_slope.
  Seconds output_slope = 0.0;
};

/// One named quantity contributing to an audited estimate.  `name` and
/// `unit` are string literals owned by the model.
struct AuditTerm {
  const char* name = "";
  double value = 0.0;
  const char* unit = "";  ///< "s", "ohm", "F", or "" for dimensionless
};

/// The full accounting of one audited evaluation: the generic stage
/// electricals (filled for every model) plus the model's own terms, and
/// the resulting estimate.
struct DelayAudit {
  std::string model;              ///< DelayModel::name()
  Ohms total_resistance = 0.0;    ///< sum of path resistances
  Farads total_cap = 0.0;         ///< sum of path node capacitances
  Farads destination_cap = 0.0;   ///< capacitance at the switched node
  Seconds elmore = 0.0;           ///< Elmore constant at the destination
  Seconds input_slope = 0.0;      ///< trigger transition time seen
  std::size_t path_devices = 0;   ///< channel devices on the stage path
  /// Model-specific contributions in evaluation order (e.g. the slope
  /// model's rho and table multipliers).
  std::vector<AuditTerm> terms;
  DelayEstimate estimate;         ///< what estimate_batch prices
};

/// Interface of all switch-level delay models.
class DelayModel {
 public:
  virtual ~DelayModel() = default;

  /// Short identifier used in reports ("lumped-rc", "rc-tree", "slope").
  virtual std::string name() const = 0;

  /// Prices stage `ids[i]` of `store` with trigger input slope
  /// `input_slopes[i]` into `out[i]`, for every i.
  /// Preconditions: the three spans have equal length; every id is
  /// < store.size(); slopes are >= 0.  Ids may repeat and appear in any
  /// order, and the batch may be empty or larger than the store.
  /// Implementations are pure over (store, id, slope): concurrent calls
  /// on disjoint output spans are safe, and an element's result does
  /// not depend on the rest of the batch.
  virtual void estimate_batch(const StageStore& store,
                              std::span<const StageStore::StageId> ids,
                              std::span<const Seconds> input_slopes,
                              std::span<DelayEstimate> out) const = 0;

  /// Estimates delay and output slope for a standalone stage, priced as
  /// a one-element batch over a one-stage store.  Throws
  /// ContractViolation if the stage is invalid (see validate()).
  DelayEstimate estimate(const Stage& stage) const;

  /// Audited evaluation of store stage `id` under `input_slope`: the
  /// generic fields come from the store caches, `terms` from the
  /// model's hook, and `estimate` from a one-element estimate_batch.
  DelayAudit audit(const StageStore& store, StageStore::StageId id,
                   Seconds input_slope) const;

  /// Throws Error if the model cannot price some stage kind in `used`
  /// (a design's CompiledDesign::stage_kinds()).  A Session calls it
  /// where it meets a design, before any pricing.  The default prices
  /// every stage.
  virtual void require_covers(StageKinds used) const;

 protected:
  DelayModel() = default;
  DelayModel(const DelayModel&) = default;
  DelayModel& operator=(const DelayModel&) = default;

  /// Appends the model's own audit terms for stage `id` priced under
  /// `input_slope`.  The default appends none.
  virtual void append_audit_terms(const StageStore& store,
                                  StageStore::StageId id,
                                  Seconds input_slope,
                                  std::vector<AuditTerm>& terms) const;
};

/// The model a CLI or serve request names, for every name whose model
/// needs no calibration: "lumped", "rc-tree", "rph-upper" and "unit" (a
/// 1 ns unit delay).  nullptr for any other name, "slope" included:
/// where its tables come from is each caller's own policy.  One mapping
/// keeps serve answers byte-identical to cold CLI runs.
std::unique_ptr<DelayModel> make_closed_form_model(const std::string& name);

}  // namespace sldm

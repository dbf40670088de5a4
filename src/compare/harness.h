// The experiment harness: runs a generated benchmark through every delay
// model (inside the timing analyzer) and through the analog simulator,
// and reports paper-style accuracy/runtime rows.
//
// Protocol: the circuit's main input gets a rising edge with a given
// transition time; secondary inputs are held at their declared values;
// precharged nodes start at Vdd.  The analog 50%-crossing delay from the
// input edge to the observed output is the reference; each model's
// analyzer arrival time at the same (output, transition) is the
// prediction.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "calib/calibrate.h"
#include "delay/model.h"
#include "gen/generators.h"
#include "tech/tech.h"
#include "timing/analyzer.h"
#include "util/metrics.h"

namespace sldm {

/// A calibrated technology + the three models, shared across experiments.
class CompareContext {
 public:
  /// Calibrates the standard process for `style` (nmos4 / cmos3).
  /// Calibration runs a handful of analog simulations, so benches cache
  /// one context per style.
  static const CompareContext& get(Style style);

  /// Builds a context from an explicit calibration (tests).
  explicit CompareContext(Style style, CalibrationResult calibration);

  Style style() const { return style_; }
  const Tech& tech() const { return calibration_.tech; }
  const CalibrationResult& calibration() const { return calibration_; }

  /// The paper's three models, in presentation order.
  std::vector<const DelayModel*> models() const;

 private:
  Style style_;
  CalibrationResult calibration_;
  std::unique_ptr<DelayModel> lumped_;
  std::unique_ptr<DelayModel> rctree_;
  std::unique_ptr<DelayModel> slope_;
};

/// One model's prediction for a circuit.
struct ModelResult {
  std::string model;
  Seconds delay = 0.0;      ///< predicted input-to-output delay
  double error_pct = 0.0;   ///< signed % error vs the analog reference
  Seconds analyze_time = 0.0;  ///< analyzer wall time
  MetricsRegistry metrics;  ///< snapshot of this run's analyzer registry
};

/// Reference + predictions for one circuit.
struct ComparisonResult {
  std::string circuit;
  std::size_t devices = 0;
  Transition output_dir = Transition::kRise;  ///< observed at the output
  Seconds reference_delay = 0.0;              ///< analog simulator
  Seconds simulate_time = 0.0;                ///< simulator wall time
  std::vector<ModelResult> models;

  /// The entry for a model name.  Precondition: present.
  const ModelResult& model(const std::string& name) const;
};

/// Runs the full comparison.  `input_slope` is the transition time of
/// the stimulated input edge (also handed to the models).
/// Throws Error if the output never switches in simulation.
ComparisonResult run_comparison(const GeneratedCircuit& g,
                                const CompareContext& ctx,
                                Seconds input_slope);

/// Analyzer-only run (used by the runtime scaling bench where the
/// analog reference is measured separately or skipped).  Deliberately
/// carries no MetricsRegistry snapshot: this call sits inside timed
/// benchmark loops, so it must not pay for the registry's name table
/// (run_comparison captures per-model registries instead).
struct AnalyzeOnlyResult {
  Seconds delay = 0.0;
  Seconds analyze_time = 0.0;     ///< total wall time (extract + run)
  Seconds extract_time = 0.0;     ///< stage-extraction phase
  Seconds propagate_time = 0.0;   ///< arrival-propagation phase
  std::size_t stage_evaluations = 0;
  std::size_t stage_count = 0;
  std::size_t ccc_count = 0;
  AnalyzerStats stats;            ///< full counter set (analyzer_stats_json)
};
AnalyzeOnlyResult run_analyzer(const GeneratedCircuit& g, const Tech& tech,
                               const DelayModel& model, Seconds input_slope);

/// Analog-only run; returns the reference delay and wall time.
struct SimulateOnlyResult {
  Seconds delay = 0.0;
  Transition output_dir = Transition::kRise;
  Seconds simulate_time = 0.0;
};
SimulateOnlyResult run_simulation(const GeneratedCircuit& g, const Tech& tech,
                                  Seconds input_slope);

}  // namespace sldm

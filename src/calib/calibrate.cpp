#include "calib/calibrate.h"

#include <algorithm>
#include <cmath>

#include "analog/elaborate.h"
#include "analog/transient.h"
#include "rc/rc_tree.h"
#include "timing/stage_extract.h"
#include "util/contracts.h"
#include "util/error.h"

namespace sldm {
namespace {

/// A canonical one-stage measurement setup.
struct Canonical {
  Netlist nl;
  NodeId in;          ///< the trigger's gate (a chip input)
  Transition in_dir;  ///< gate transition that fires the stage
  NodeId observe;     ///< stage destination
  Transition out_dir;
  StageTable stage;  ///< exactly one stage: the one measured
};

/// Finds the unique stage at (observe, out_dir) triggered by `in`.
StageTable find_stage(const Netlist& nl, NodeId observe, Transition out_dir,
                      NodeId in) {
  const StageTable stages = stages_to(nl, observe, out_dir);
  StageTable found;
  for (const TimingStage& ts : stages) {
    if (nl.device(ts.trigger).gate != in) continue;
    if (!found.empty()) throw Error("canonical stage is not unique");
    found.append(ts);
  }
  if (found.empty()) throw Error("canonical stage not found");
  return found;
}

/// The inverter cell: covers (e, fall), (d, rise) for nMOS and
/// (e, fall), (p, rise) for CMOS.
Canonical make_inverter_case(Style style, Transition out_dir) {
  CircuitBuilder b(style);
  Canonical c;
  c.in = b.input("in");
  const NodeId out = b.inverter(c.in, "out");
  b.inverter(out, "obs");  // realistic observation load
  b.netlist().mark_output("out");
  c.observe = out;
  c.out_dir = out_dir;
  c.in_dir = opposite(out_dir);  // inverter: input and output oppose
  c.nl = std::move(b.netlist());
  c.stage = find_stage(c.nl, c.observe, c.out_dir, c.in);
  return c;
}

/// The pass-high cell: an n-enhancement device pulling its source
/// terminal toward Vdd when its gate rises -- covers (e, rise).
Canonical make_pass_high_case(Style style) {
  CircuitBuilder b(style);
  Canonical c;
  c.in = b.input("in");
  const NodeId out = b.node("out");
  const Sizing s = Sizing::standard(style);
  b.netlist().add_transistor(TransistorType::kNEnhancement, c.in, out,
                             b.vdd(), s.pass_w, s.pass_l);
  b.inverter(out, "obs");
  b.netlist().mark_output("out");
  c.observe = out;
  c.out_dir = Transition::kRise;
  c.in_dir = Transition::kRise;
  c.nl = std::move(b.netlist());
  c.stage = find_stage(c.nl, c.observe, c.out_dir, c.in);
  return c;
}

struct Measurement {
  Seconds delay = 0.0;
  Seconds out_slope = 0.0;
};

/// Simulates the canonical cell with an input edge of duration `ramp`
/// and measures the stage delay (50%-to-50%) and the output transition
/// time.  Retries with a longer run if the output never crosses.
Measurement measure(const Canonical& c, const Tech& tech, Seconds ramp,
                    const CalibrationOptions& options, Seconds t_d_guess) {
  SLDM_EXPECTS(ramp > 0.0);
  const Volts vdd = tech.vdd();
  const Volts v0 = c.in_dir == Transition::kRise ? 0.0 : vdd;
  const Volts v1 = vdd - v0;

  Seconds t_stop =
      options.t_edge + ramp + std::max(30.0 * t_d_guess, 10e-9);
  for (int attempt = 0; attempt < 4; ++attempt) {
    std::vector<Stimulus> stimuli;
    stimuli.push_back(
        {c.in, PwlSource::edge(v0, v1, options.t_edge, ramp)});
    const Elaboration elab = elaborate(c.nl, tech, stimuli);
    TransientOptions topt;
    topt.t_stop = t_stop;
    const TransientResult result = simulate(elab.circuit(), topt);

    const Waveform& w_in = result.at(elab.analog(c.in));
    const Waveform& w_out = result.at(elab.analog(c.observe));
    const auto delay = measure_delay_signed(w_in, c.in_dir, w_out, c.out_dir,
                                            vdd / 2.0, options.t_edge / 2.0);
    if (delay) {
      const Volts lo = w_out.min_value();
      const Volts hi = w_out.max_value();
      const auto slope =
          w_out.transition_time(lo, hi, c.out_dir, options.t_edge / 2.0);
      if (slope) {
        return {.delay = *delay, .out_slope = *slope};
      }
    }
    t_stop *= 3.0;
  }
  throw Error("calibration measurement failed: output never crossed");
}

/// Which (type, dir) pairs a style exercises, with their canonical cell.
struct Case {
  TransistorType type;
  Transition dir;
  Canonical canonical;
};

std::vector<Case> canonical_cases(Style style) {
  std::vector<Case> cases;
  cases.push_back({TransistorType::kNEnhancement, Transition::kFall,
                   make_inverter_case(style, Transition::kFall)});
  cases.push_back({TransistorType::kNEnhancement, Transition::kRise,
                   make_pass_high_case(style)});
  if (style == Style::kNmos) {
    cases.push_back({TransistorType::kNDepletion, Transition::kRise,
                     make_inverter_case(style, Transition::kRise)});
  } else {
    cases.push_back({TransistorType::kPEnhancement, Transition::kRise,
                     make_inverter_case(style, Transition::kRise)});
  }
  return cases;
}

}  // namespace

CalibrationResult calibrate(const Tech& tech, Style style,
                            const CalibrationOptions& options) {
  SLDM_EXPECTS(!options.ratios.empty());
  SLDM_EXPECTS(std::is_sorted(options.ratios.begin(), options.ratios.end()));
  SLDM_EXPECTS(options.ratios.front() > 0.0);

  CalibrationResult result;
  result.tech = tech;
  result.tables = SlopeTables::unit();

  for (Case& c : canonical_cases(style)) {
    // --- 1. Effective resistance from a near-step input. ---------------
    Stage stage0 = make_stage(c.canonical.nl, result.tech,
                              c.canonical.stage[0], /*input_slope=*/0.0);
    Seconds t_d = stage_elmore(stage0);
    const Measurement step =
        measure(c.canonical, result.tech, std::max(1e-12, 0.01 * t_d),
                options, t_d);
    const double r_correction = step.delay / (kLn2 * t_d);
    SLDM_ASSERT(r_correction > 0.0);
    result.tech.set_resistance_sq(
        c.type, c.dir,
        result.tech.resistance_sq(c.type, c.dir) * r_correction);

    // Recompute the stage with the calibrated resistance.
    stage0 =
        make_stage(c.canonical.nl, result.tech, c.canonical.stage[0], 0.0);
    t_d = stage_elmore(stage0);

    // --- 2. Slope-ratio sweep -> multiplier tables. ---------------------
    CalibrationCurve curve;
    curve.type = c.type;
    curve.dir = c.dir;
    std::vector<double> xs;
    std::vector<double> dm;
    std::vector<double> sm;
    for (double rho : options.ratios) {
      const Seconds ramp = rho * t_d;
      const Measurement m =
          measure(c.canonical, result.tech, ramp, options, t_d);
      const double delay_mult =
          std::max(options.min_multiplier, m.delay / (kLn2 * t_d));
      const double slope_mult = std::max(
          options.min_multiplier, m.out_slope / (kSlopeFactor * t_d));
      curve.points.push_back({rho, delay_mult, slope_mult});
      xs.push_back(rho);
      dm.push_back(delay_mult);
      sm.push_back(slope_mult);
    }
    result.curves.push_back(curve);
    result.tables.set(c.type, c.dir,
                      SlopeEntry{PiecewiseLinear(xs, dm),
                                 PiecewiseLinear(std::move(xs), sm)});
  }
  return result;
}

}  // namespace sldm

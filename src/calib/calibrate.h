// Calibration of the delay models against the analog simulator -- the
// reproduction of how Crystal's effective resistances and slope tables
// were fit from SPICE runs.
//
// For every (device type, output transition) the library exercises, a
// canonical one-stage circuit is built, simulated, and measured:
//  1. with a near-step input, the effective resistance per square is
//     adjusted so the RC-tree model's 50% delay matches the simulator;
//  2. the input ramp is then swept over a grid of slope ratios and the
//     measured delay / output-slope, normalized by the stage's Elmore
//     time constant, become the slope model's multiplier tables.
#pragma once

#include <vector>

#include "delay/slope_table.h"
#include "gen/builder.h"
#include "tech/tech.h"

namespace sldm {

/// Calibration controls.
struct CalibrationOptions {
  /// Slope-ratio grid for the tables (must be increasing, > 0).  The
  /// top of the grid bounds how slow an input the model can follow
  /// before the table clamps.
  std::vector<double> ratios = {0.05, 0.1,  0.2,  0.5,  1.0, 2.0,
                                4.0,  8.0,  16.0, 32.0, 64.0};
  /// Input edge start time (settling margin before the edge).
  Seconds t_edge = 2e-9;
  /// Lower clamp on measured multipliers (slow inputs can make the
  /// 50%-to-50% delay arbitrarily small or negative; the tables stay
  /// positive).
  double min_multiplier = 0.05;
};

/// One measured calibration curve (feeds the Fig. 1 bench).
struct CalibrationCurve {
  TransistorType type = TransistorType::kNEnhancement;
  Transition dir = Transition::kRise;
  struct Point {
    double rho = 0.0;         ///< input slope / stage Elmore constant
    double delay_mult = 0.0;  ///< measured delay / (ln2 * Elmore)
    double slope_mult = 0.0;  ///< measured out slope / (ln9/.8 * Elmore)
  };
  std::vector<Point> points;
};

/// Everything calibration produces.
struct CalibrationResult {
  Tech tech;          ///< input tech with calibrated effective resistances
  SlopeTables tables;  ///< calibrated (unit entries for unexercised combos)
  std::vector<CalibrationCurve> curves;
};

/// The logic style whose circuits calibrate `tech`: CMOS when it has
/// p-channel devices, nMOS otherwise.
Style style_for(const Tech& tech);

/// Calibrates `tech` for circuits in logic style `style`.
/// Which entries are calibrated depends on the style:
///  * nMOS: (e, fall), (e, rise: pass-high), (d, rise: load pull-up);
///  * CMOS: (e, fall), (e, rise: pass-high), (p, rise).
/// Throws Error / NumericalError if a canonical measurement fails.
CalibrationResult calibrate(const Tech& tech, Style style,
                            const CalibrationOptions& options = {});

}  // namespace sldm

// Technology description: the electrical parameters that turn a
// dimensionless switch-level netlist into resistances, capacitances, and
// analog device models.
//
// A Tech carries, per transistor type:
//  * level-1 model parameters for the analog simulator (threshold,
//    transconductance, channel-length modulation, gate-oxide and parasitic
//    capacitances), and
//  * effective switch resistances for the delay models, expressed per
//    square (multiply by drawn L/W), one per output transition direction.
//
// Effective resistances start from an analytic estimate
// (see analytic_resistance) and are normally replaced by calibration
// against the analog simulator (src/calib), mirroring how Crystal's
// values were fit from SPICE runs.
#pragma once

#include <array>
#include <string>

#include "netlist/netlist.h"
#include "util/units.h"

namespace sldm {

/// Per-transistor-type electrical parameters.
struct DeviceParams {
  Volts vt = 0.0;        ///< threshold voltage (negative for dep / PMOS)
  double kp = 0.0;       ///< transconductance KP = mu*Cox  [A/V^2]
  double lambda = 0.0;   ///< channel-length modulation  [1/V]
  double cox = 0.0;      ///< gate-oxide capacitance per area  [F/m^2]
  double cov_w = 0.0;    ///< gate-source/drain overlap cap per width  [F/m]
  double cj_w = 0.0;     ///< source/drain junction cap per width  [F/m]
  /// Effective switch resistance per square when the device pulls its
  /// output high / low.  Multiply by L/W for a specific device.
  Ohms r_up_sq = 0.0;
  Ohms r_down_sq = 0.0;
};

/// A named process.
class Tech {
 public:
  /// Constructs with all-zero parameters; use the factory functions
  /// nmos4()/cmos3() or tech_io to obtain a usable process.
  Tech() = default;
  Tech(std::string name, Volts vdd);

  const std::string& name() const { return name_; }
  Volts vdd() const { return vdd_; }
  /// The logic switching threshold used for delay measurement (50% of
  /// swing by convention).
  Volts v_switch() const { return vdd_ / 2.0; }

  DeviceParams& params(TransistorType t);
  const DeviceParams& params(TransistorType t) const;

  /// True if this process has any device of type `t` (kp > 0).
  bool has(TransistorType t) const { return params(t).kp > 0.0; }

  /// True if the delay models can price a device of type `t`: positive
  /// switch resistances in both directions, and a positive junction
  /// capacitance (so every node a channel touches has a positive C).
  bool prices(TransistorType t) const {
    const DeviceParams& p = params(t);
    return p.r_up_sq > 0.0 && p.r_down_sq > 0.0 && p.cj_w > 0.0;
  }

  // --- Derived per-device quantities --------------------------------------

  /// Gate capacitance of one transistor: Cox*W*L plus two overlaps.
  Farads gate_cap(const Transistor& t) const;

  /// Diffusion capacitance contributed by one channel terminal.
  Farads diffusion_cap(const Transistor& t) const;

  /// Total lumped capacitance at a node: explicit cap + gate caps of
  /// devices gated by it + diffusion caps of channels touching it.
  /// This is the "C" the paper's models operate on.
  Farads node_capacitance(const Netlist& nl, NodeId n) const;

  /// Effective switch resistance of `t` when its output makes `dir`:
  /// r_sq(type, dir) * L/W.
  Ohms resistance(const Transistor& t, Transition dir) const;

  /// Per-square resistance for a type/direction.
  Ohms resistance_sq(TransistorType type, Transition dir) const;
  void set_resistance_sq(TransistorType type, Transition dir, Ohms r_sq);

 private:
  std::string name_;
  Volts vdd_ = 0.0;
  std::array<DeviceParams, 3> params_{};
};

/// Analytic seed for an effective resistance per square: the average
/// resistance seen while the output traverses half the supply swing,
/// approximated as R = 3/4 * Vdd / Idsat(full gate drive) for a unit
/// (W/L = 1) device.  Returns +inf-free positive value; throws via
/// contract if the device cannot conduct in that direction.
Ohms analytic_resistance_sq(const Tech& tech, TransistorType type,
                            Transition dir);

/// Installs analytic seeds for every device type present in `tech`.
void seed_analytic_resistances(Tech& tech);

/// A 4-micron E/D nMOS process with 1984-era MOSIS-like parameters.
/// Types present: n-enhancement, n-depletion.
Tech nmos4();

/// A 3-micron CMOS process.  Types present: n-enhancement, p-enhancement.
Tech cmos3();

}  // namespace sldm

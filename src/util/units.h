// Unit conventions and literal-style helpers.
//
// All physical quantities in sldm are SI doubles: seconds, volts, ohms,
// farads, amperes, meters.  The aliases below document intent at interfaces
// (Core Guidelines P.1) without the cost of full strong types in the hot
// numerical kernels; strong identifiers are reserved for graph handles
// (see netlist/types.h).
#pragma once

#include <chrono>

namespace sldm {

using Seconds = double;
using Volts = double;
using Ohms = double;
using Farads = double;
using Amperes = double;
using Meters = double;

/// Monotonic wall clock in seconds (steady_clock; only differences
/// mean anything).  Phase timings and bench loops measure with this.
inline Seconds now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace units {

// Scale factors: multiply a number expressed in the named unit to get SI.
inline constexpr double ns = 1e-9;   ///< nanoseconds -> seconds
inline constexpr double ps = 1e-12;  ///< picoseconds -> seconds
inline constexpr double us = 1e-6;   ///< microseconds -> seconds
inline constexpr double fF = 1e-15;  ///< femtofarads -> farads
inline constexpr double pF = 1e-12;  ///< picofarads -> farads
inline constexpr double um = 1e-6;   ///< micrometers -> meters
inline constexpr double nm = 1e-9;   ///< nanometers -> meters
inline constexpr double kOhm = 1e3;  ///< kiloohms -> ohms
inline constexpr double mA = 1e-3;   ///< milliamperes -> amperes
inline constexpr double uA = 1e-6;   ///< microamperes -> amperes

}  // namespace units

/// Converts seconds to nanoseconds for reporting.
inline constexpr double to_ns(Seconds s) { return s / units::ns; }
/// Converts farads to femtofarads for reporting.
inline constexpr double to_fF(Farads f) { return f / units::fF; }
/// Converts ohms to kiloohms for reporting.
inline constexpr double to_kohm(Ohms r) { return r / units::kOhm; }

}  // namespace sldm

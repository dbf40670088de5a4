#include "tech/tech_io.h"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>

#include "util/contracts.h"
#include "util/error.h"
#include "util/file_io.h"
#include "util/strings.h"

namespace sldm {
namespace {

TransistorType type_from_letter(const std::string& s, const std::string& origin,
                                int lineno) {
  if (s == "e" || s == "n") return TransistorType::kNEnhancement;
  if (s == "d") return TransistorType::kNDepletion;
  if (s == "p") return TransistorType::kPEnhancement;
  throw ParseError(origin, lineno, "unknown device type '" + s + "'");
}

/// A device field's key, its member, and its physical range
/// (FORMATS.md section 2): (lo, hi] when lo is open, else [lo, hi].
/// Far wider than any MOS process, and narrow enough that no
/// resistance, capacitance or delay derived from them overflows.
struct DeviceField {
  const char* key;
  double DeviceParams::*member;
  double lo;
  bool lo_open;
  double hi;
  const char* unit;
};

constexpr DeviceField kDeviceFields[] = {
    {"vt", &DeviceParams::vt, -100.0, false, 100.0, "V"},
    {"kp", &DeviceParams::kp, 0.0, true, 1.0, "A/V^2"},
    {"lambda", &DeviceParams::lambda, 0.0, false, 10.0, "1/V"},
    {"cox", &DeviceParams::cox, 0.0, true, 1.0, "F/m^2"},
    {"cov_w", &DeviceParams::cov_w, 0.0, true, 1e-6, "F/m"},
    {"cj_w", &DeviceParams::cj_w, 0.0, true, 1e-6, "F/m"},
    {"r_up_sq", &DeviceParams::r_up_sq, 0.0, true, 1e9, "ohm"},
    {"r_down_sq", &DeviceParams::r_down_sq, 0.0, true, 1e9, "ohm"},
};

/// Largest supply voltage a tech header may declare.
constexpr double kMaxVdd = 1000.0;

}  // namespace

void write_tech(const Tech& tech, std::ostream& out) {
  out << "# sldm technology description\n";
  out << "tech " << tech.name() << " vdd " << format("%.6g", tech.vdd())
      << '\n';
  for (TransistorType type :
       {TransistorType::kNEnhancement, TransistorType::kNDepletion,
        TransistorType::kPEnhancement}) {
    if (!tech.has(type)) continue;
    const DeviceParams& p = tech.params(type);
    out << "device " << to_letter(type)
        << format(
               " vt %.6g kp %.6g lambda %.6g cox %.6g cov_w %.6g cj_w %.6g"
               " r_up_sq %.6g r_down_sq %.6g",
               p.vt, p.kp, p.lambda, p.cox, p.cov_w, p.cj_w, p.r_up_sq,
               p.r_down_sq)
        << '\n';
  }
}

void write_tech_file(const Tech& tech, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw Error("cannot create tech file: " + path);
  write_tech(tech, out);
}

Tech read_tech(std::istream& in, const std::string& origin) {
  Tech tech;
  bool have_header = false;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string stripped = trim(line);
    if (stripped.empty() || stripped[0] == '#') continue;
    const auto tokens = split_ws(stripped);
    SLDM_ASSERT(!tokens.empty());

    if (tokens[0] == "tech") {
      if (tokens.size() != 4 || tokens[2] != "vdd") {
        throw ParseError(origin, lineno, "expected: tech <name> vdd <volts>");
      }
      const auto vdd = parse_finite_double(tokens[3]);
      if (!vdd) throw ParseError(origin, lineno, "bad vdd");
      if (!(*vdd > 0.0 && *vdd <= kMaxVdd)) {
        throw ParseError(origin, lineno,
                         format("vdd %s outside the physical range (0, %g] V",
                                tokens[3].c_str(), kMaxVdd));
      }
      tech = Tech(tokens[1], *vdd);
      have_header = true;
      continue;
    }

    if (tokens[0] == "device") {
      if (!have_header) {
        throw ParseError(origin, lineno, "device record before tech header");
      }
      if (tokens.size() < 2 || tokens.size() % 2 != 0) {
        throw ParseError(origin, lineno,
                         "device record needs a type and key/value pairs");
      }
      const TransistorType type = type_from_letter(tokens[1], origin, lineno);
      DeviceParams& p = tech.params(type);
      for (std::size_t i = 2; i + 1 < tokens.size(); i += 2) {
        const auto v = parse_finite_double(tokens[i + 1]);
        if (!v) {
          throw ParseError(origin, lineno, "bad value for " + tokens[i]);
        }
        const std::string& key = tokens[i];
        const auto field =
            std::find_if(std::begin(kDeviceFields), std::end(kDeviceFields),
                         [&](const DeviceField& f) { return key == f.key; });
        if (field == std::end(kDeviceFields)) {
          throw ParseError(origin, lineno, "unknown device field " + key);
        }
        const bool above_lo =
            field->lo_open ? *v > field->lo : *v >= field->lo;
        if (!(above_lo && *v <= field->hi)) {
          throw ParseError(
              origin, lineno,
              format("device %s %s %s outside the physical range %c%g, %g] "
                     "%s",
                     tokens[1].c_str(), key.c_str(), tokens[i + 1].c_str(),
                     field->lo_open ? '(' : '[', field->lo, field->hi,
                     field->unit));
        }
        p.*(field->member) = *v;
      }
      continue;
    }

    throw ParseError(origin, lineno, "unknown record '" + tokens[0] + "'");
  }
  if (!have_header) throw ParseError(origin, lineno, "missing tech header");
  return tech;
}

Tech read_tech_file(const std::string& path) {
  std::istringstream in(std::string(read_regular_file(path, "tech").view()));
  return read_tech(in, path);
}

Tech read_tech_spec(const std::string& spec) {
  if (spec == "nmos") return nmos4();
  if (spec == "cmos") return cmos3();
  return read_tech_file(spec);
}

}  // namespace sldm

#include "netlist/sim_io.h"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "util/contracts.h"
#include "util/error.h"
#include "util/strings.h"
#include "util/units.h"

namespace sldm {
namespace {

constexpr double kCentimicron = 1e-8;  // meters

// Physical ranges (FORMATS.md section 1).  Far wider than any MOS
// process, yet narrow enough that no resistance, capacitance, or delay
// the engine derives from them can overflow to inf.
constexpr double kMinDimension = 1e-9;  // meters (1 nm)
constexpr double kMaxDimension = 1e-2;  // meters (1 cm)
constexpr double kMaxCap = 1e-9;        // farads (1 nF) per record

/// A transistor length or width in meters: finite, and within the
/// physical range once scaled by the units header.
double parse_dimension(const std::string& token, double unit_m,
                       const char* what, const std::string& origin,
                       int lineno) {
  const auto v = parse_finite_double(token);
  if (!v || *v <= 0.0) {
    throw ParseError(origin, lineno, "bad transistor dimensions");
  }
  const double meters = *v * unit_m;
  if (!(meters >= kMinDimension && meters <= kMaxDimension)) {
    throw ParseError(
        origin, lineno,
        format("transistor %s %s (%g um) outside the physical range "
               "[%g, %g] um",
               what, token.c_str(), meters / units::um,
               kMinDimension / units::um, kMaxDimension / units::um));
  }
  return meters;
}

/// A capacitance record value in farads: finite, within [0, kMaxCap].
double parse_cap(const std::string& token, const std::string& origin,
                 int lineno) {
  const auto v = parse_finite_double(token);
  if (!v || *v < 0.0) throw ParseError(origin, lineno, "bad cap");
  const double farads = *v * units::fF;
  if (!(farads <= kMaxCap)) {
    throw ParseError(origin, lineno,
                     format("cap %s fF outside the physical range "
                            "[0, %g] fF",
                            token.c_str(), kMaxCap / units::fF));
  }
  return farads;
}

bool is_power_name(const std::string& name) {
  const std::string n = to_lower(name);
  return n == "vdd" || n == "vdd!";
}

bool is_ground_name(const std::string& name) {
  const std::string n = to_lower(name);
  return n == "gnd" || n == "gnd!" || n == "vss" || n == "vss!";
}

NodeId intern_node(Netlist& nl, const std::string& name) {
  const NodeId id = nl.add_node(name);
  if (is_power_name(name)) nl.node(id).is_power = true;
  if (is_ground_name(name)) nl.node(id).is_ground = true;
  return id;
}

}  // namespace

Netlist read_sim(std::istream& in, const std::string& origin) {
  Netlist nl;
  double unit_m = 100.0 * kCentimicron;  // default: 1 file unit = 1 micron
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string stripped = trim(line);
    if (stripped.empty()) continue;
    if (stripped[0] == '|') {
      // Comment; may carry the units header.
      const auto tokens = split_ws(stripped.substr(1));
      for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
        if (to_lower(tokens[i]) == "units:") {
          const auto v = parse_finite_double(tokens[i + 1]);
          if (!v || *v <= 0.0) {
            throw ParseError(origin, lineno, "bad units value");
          }
          unit_m = *v * kCentimicron;
        }
      }
      continue;
    }
    const auto tokens = split_ws(stripped);
    SLDM_ASSERT(!tokens.empty());
    const std::string kind = tokens[0];

    if (kind == "e" || kind == "n" || kind == "d" || kind == "p") {
      if (tokens.size() < 6) {
        throw ParseError(origin, lineno,
                         "transistor record needs gate src drn length width");
      }
      const double l =
          parse_dimension(tokens[4], unit_m, "length", origin, lineno);
      const double w =
          parse_dimension(tokens[5], unit_m, "width", origin, lineno);
      TransistorType type = TransistorType::kNEnhancement;
      if (kind == "d") type = TransistorType::kNDepletion;
      if (kind == "p") type = TransistorType::kPEnhancement;
      Flow flow = Flow::kBidirectional;
      for (std::size_t i = 6; i < tokens.size(); ++i) {
        if (tokens[i] == "flow=s>d") {
          flow = Flow::kSourceToDrain;
        } else if (tokens[i] == "flow=d>s") {
          flow = Flow::kDrainToSource;
        } else {
          throw ParseError(origin, lineno,
                           "unknown device attribute '" + tokens[i] + "'");
        }
      }
      const NodeId gate = intern_node(nl, tokens[1]);
      const NodeId src = intern_node(nl, tokens[2]);
      const NodeId drn = intern_node(nl, tokens[3]);
      if (src == drn) {
        throw ParseError(origin, lineno,
                         "transistor source and drain are the same node");
      }
      nl.add_transistor(type, gate, src, drn, w, l, flow);
      continue;
    }

    if (kind == "c") {
      if (tokens.size() != 3) {
        throw ParseError(origin, lineno, "cap record: c <node> <cap_fF>");
      }
      nl.add_cap(intern_node(nl, tokens[1]),
                 parse_cap(tokens[2], origin, lineno));
      continue;
    }

    if (kind == "C") {
      if (tokens.size() != 4) {
        throw ParseError(origin, lineno,
                         "cap record: C <node1> <node2> <cap_fF>");
      }
      const double cap = parse_cap(tokens[3], origin, lineno);
      // Crystal lumps internodal capacitance to ground at both ends.
      nl.add_cap(intern_node(nl, tokens[1]), cap);
      nl.add_cap(intern_node(nl, tokens[2]), cap);
      continue;
    }

    if (kind == "@set") {
      if (tokens.size() < 2) {
        throw ParseError(origin, lineno,
                         "@set record needs <name>=<0|1> entries");
      }
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        const std::size_t eq = tokens[i].find('=');
        const std::string value =
            eq == std::string::npos ? "" : tokens[i].substr(eq + 1);
        if (eq == 0 || (value != "0" && value != "1")) {
          throw ParseError(origin, lineno,
                           "@set entry must be <name>=<0|1>, got '" +
                               tokens[i] + "'");
        }
        nl.set_fixed(intern_node(nl, tokens[i].substr(0, eq)), value == "1");
      }
      continue;
    }

    if (kind[0] == '@') {
      if (tokens.size() < 2) {
        throw ParseError(origin, lineno, "role record needs node names");
      }
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        if (kind == "@vdd") {
          nl.mark_power(tokens[i]);
        } else if (kind == "@gnd") {
          nl.mark_ground(tokens[i]);
        } else if (kind == "@in") {
          nl.mark_input(tokens[i]);
        } else if (kind == "@out") {
          nl.mark_output(tokens[i]);
        } else if (kind == "@precharged") {
          nl.mark_precharged(tokens[i]);
        } else {
          throw ParseError(origin, lineno, "unknown role record " + kind);
        }
      }
      continue;
    }

    throw ParseError(origin, lineno, "unknown record type '" + kind + "'");
  }
  return nl;
}

Netlist read_sim_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open .sim file: " + path);
  return read_sim(in, path);
}

void write_sim(const Netlist& nl, std::ostream& out) {
  out << "| units: 100 (1 unit = 1 micron); written by sldm\n";
  for (DeviceId d : nl.all_devices()) {
    const Transistor& t = nl.device(d);
    out << to_letter(t.type) << ' ' << nl.node(t.gate).name << ' '
        << nl.node(t.source).name << ' ' << nl.node(t.drain).name << ' '
        << format("%.6g %.6g", t.length / units::um, t.width / units::um);
    if (t.flow != Flow::kBidirectional) {
      out << " flow=" << to_string(t.flow);
    }
    out << '\n';
  }
  for (NodeId n : nl.all_nodes()) {
    const Node& info = nl.node(n);
    if (info.cap > 0.0) {
      out << "c " << info.name << ' ' << format("%.6g", to_fF(info.cap))
          << '\n';
    }
  }
  auto emit_role = [&](const char* tag, auto pred) {
    bool any = false;
    for (NodeId n : nl.all_nodes()) {
      if (pred(nl.node(n))) {
        if (!any) out << tag;
        any = true;
        out << ' ' << nl.node(n).name;
      }
    }
    if (any) out << '\n';
  };
  emit_role("@vdd", [](const Node& n) { return n.is_power; });
  emit_role("@gnd", [](const Node& n) { return n.is_ground; });
  emit_role("@in", [](const Node& n) { return n.is_input; });
  emit_role("@out", [](const Node& n) { return n.is_output; });
  emit_role("@precharged", [](const Node& n) { return n.is_precharged; });
  bool any_set = false;
  for (NodeId n : nl.all_nodes()) {
    const Node& info = nl.node(n);
    if (info.fixed < 0) continue;
    if (!any_set) out << "@set";
    any_set = true;
    out << ' ' << info.name << '=' << (info.fixed != 0 ? '1' : '0');
  }
  if (any_set) out << '\n';
}

void write_sim_file(const Netlist& nl, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw Error("cannot create .sim file: " + path);
  write_sim(nl, out);
}

Netlist reparse(const Netlist& nl) {
  std::stringstream ss;
  write_sim(nl, ss);
  return read_sim(ss, "<reparse>");
}

}  // namespace sldm

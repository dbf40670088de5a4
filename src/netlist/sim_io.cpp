#include "netlist/sim_io.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <ostream>
#include <sstream>

#include "netlist/lexer.h"
#include "util/error.h"
#include "util/file_io.h"
#include "util/strings.h"
#include "util/trace.h"
#include "util/units.h"

namespace sldm {
namespace {

constexpr double kCentimicron = 1e-8;  // meters
/// One file unit under the "units: 100" header write_sim emits.
constexpr double kWrittenUnit = 100.0 * kCentimicron;

bool is_power_name(std::string_view name) {
  return iequals(name, "vdd") || iequals(name, "vdd!");
}

bool is_ground_name(std::string_view name) {
  return iequals(name, "gnd") || iequals(name, "gnd!") ||
         iequals(name, "vss") || iequals(name, "vss!");
}

/// Parses one .sim buffer.  Nodes are interned in line order; devices
/// are staged and added in one bulk call at the end, which builds the
/// adjacency in one pass.  The parse is the netlist's construction, so
/// it is not journaled (ChangeLog baseline).
Netlist parse_sim(std::string_view text, const std::string& origin) {
  Netlist nl;
  nl.set_journaling(false);
  // The node a device, cap or @set record names, created on first use.
  // Such a record makes a rail-named node (vdd, gnd!, ...) that rail
  // (role records alone do not): the name is classified when such a
  // record creates the node, or first meets one a role record created
  // (`unmet`), not on every reference.
  std::vector<NodeId> unmet;
  const auto intern = [&nl, &unmet](std::string_view name) {
    const std::size_t before = nl.node_count();
    const NodeId id = nl.add_node(name);
    if (id.index() != before) {
      const auto it = std::ranges::find(unmet, id);
      if (it == unmet.end()) return id;
      unmet.erase(it);
    }
    if (is_power_name(name)) nl.node(id).is_power = true;
    if (is_ground_name(name)) nl.node(id).is_ground = true;
    return id;
  };
  // Nearly every line of a large netlist is a transistor record.  None
  // is shorter than "e a b c 1 1", so a file of blank lines cannot
  // reserve more than a few times its own size.
  constexpr std::size_t kShortestDeviceRecord = 11;
  const auto lines =
      static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
  std::vector<Transistor> devices;
  devices.reserve(std::min(lines + 1, text.size() / kShortestDeviceRecord));
  double unit_m = 100.0 * kCentimicron;  // default: 1 file unit = 1 micron
  LineLexer lex(text);
  while (lex.next()) {
    const int lineno = lex.line();
    const std::vector<std::string_view>& tokens = lex.tokens();
    const std::string_view kind = tokens[0];

    if (kind[0] == '|') {
      // Comment; may carry the units header: a "units:" key followed by
      // its value anywhere among the words after the '|'.
      std::string_view key = kind.substr(1);
      std::size_t i = 1;
      if (key.empty()) {
        if (tokens.size() < 2) continue;
        key = tokens[1];
        i = 2;
      }
      for (; i < tokens.size(); key = tokens[i++]) {
        if (!iequals(key, "units:")) continue;
        const auto v = parse_finite_double(tokens[i]);
        if (!v || *v <= 0.0) {
          throw ParseError(origin, lineno, "bad units value");
        }
        unit_m = *v * kCentimicron;
      }
      continue;
    }

    if (kind == "e" || kind == "n" || kind == "d" || kind == "p") {
      if (tokens.size() < 6) {
        throw ParseError(origin, lineno,
                         "transistor record needs gate src drn length width");
      }
      Transistor t;
      t.length = parse_dimension(tokens[4], unit_m, "length", origin, lineno);
      t.width = parse_dimension(tokens[5], unit_m, "width", origin, lineno);
      if (kind == "d") t.type = TransistorType::kNDepletion;
      if (kind == "p") t.type = TransistorType::kPEnhancement;
      for (std::size_t i = 6; i < tokens.size(); ++i) {
        if (tokens[i] == "flow=s>d") {
          t.flow = Flow::kSourceToDrain;
        } else if (tokens[i] == "flow=d>s") {
          t.flow = Flow::kDrainToSource;
        } else {
          throw ParseError(origin, lineno,
                           "unknown device attribute '" +
                               std::string(tokens[i]) + "'");
        }
      }
      t.gate = intern(tokens[1]);
      t.source = intern(tokens[2]);
      t.drain = intern(tokens[3]);
      if (t.source == t.drain) {
        throw ParseError(origin, lineno,
                         "transistor source and drain are the same node");
      }
      devices.push_back(t);
      continue;
    }

    if (kind == "c") {
      if (tokens.size() != 3) {
        throw ParseError(origin, lineno, "cap record: c <node> <cap_fF>");
      }
      nl.add_cap(intern(tokens[1]), parse_cap(tokens[2], origin, lineno));
      continue;
    }

    if (kind == "C") {
      if (tokens.size() != 4) {
        throw ParseError(origin, lineno,
                         "cap record: C <node1> <node2> <cap_fF>");
      }
      const double cap = parse_cap(tokens[3], origin, lineno);
      // Crystal lumps internodal capacitance to ground at both ends.
      nl.add_cap(intern(tokens[1]), cap);
      nl.add_cap(intern(tokens[2]), cap);
      continue;
    }

    if (kind == "@set") {
      if (tokens.size() < 2) {
        throw ParseError(origin, lineno,
                         "@set record needs <name>=<0|1> entries");
      }
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        const std::string_view entry = tokens[i];
        const std::size_t eq = entry.find('=');
        const std::string_view value =
            eq == std::string_view::npos ? "" : entry.substr(eq + 1);
        if (eq == 0 || (value != "0" && value != "1")) {
          throw ParseError(origin, lineno,
                           "@set entry must be <name>=<0|1>, got '" +
                               std::string(entry) + "'");
        }
        nl.set_fixed(intern(entry.substr(0, eq)), value == "1");
      }
      continue;
    }

    if (kind[0] == '@') {
      if (tokens.size() < 2) {
        throw ParseError(origin, lineno, "role record needs node names");
      }
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        const std::size_t before = nl.node_count();
        NodeId id;
        if (kind == "@vdd") {
          id = nl.mark_power(tokens[i]);
        } else if (kind == "@gnd") {
          id = nl.mark_ground(tokens[i]);
        } else if (kind == "@in") {
          id = nl.mark_input(tokens[i]);
        } else if (kind == "@out") {
          id = nl.mark_output(tokens[i]);
        } else if (kind == "@precharged") {
          id = nl.mark_precharged(tokens[i]);
        } else {
          throw ParseError(origin, lineno,
                           "unknown role record " + std::string(kind));
        }
        if (id.index() == before &&
            (is_power_name(tokens[i]) || is_ground_name(tokens[i]))) {
          unmet.push_back(id);
        }
      }
      continue;
    }

    throw ParseError(origin, lineno,
                     "unknown record type '" + std::string(kind) + "'");
  }
  nl.add_transistors(std::move(devices));
  nl.set_journaling(true);
  return nl;
}

/// `value / unit` in the fewest significant digits (6 up to 17) that
/// parse_sim reads back, as text * unit, to exactly `value`, so a
/// written design re-loads with the same fingerprint (a value that
/// round-trips at 6 digits keeps its %.6g text); "" if none does, as a
/// sum of caps may not.
std::string exact_text(double value, double unit) {
  char buf[32];
  for (int digits = 6; digits <= 17; ++digits) {
    char* end = std::to_chars(buf, buf + sizeof buf, value / unit,
                              std::chars_format::general, digits).ptr;
    std::string text(buf, end);
    if (*parse_double(text) * unit == value) return text;
  }
  return "";
}

/// The `c` records that give `cap` back.  parse_sim adds up a node's
/// records, so a cap no one record reaches is written as the largest
/// one-record cap below it plus the (exact) rest.
void write_cap(std::ostream& out, std::string_view name, double cap) {
  if (const std::string text = exact_text(cap, units::fF); !text.empty()) {
    out << "c " << name << ' ' << text << '\n';
    return;
  }
  double base = cap / units::fF;
  while (base * units::fF >= cap) base = std::nextafter(base, 0.0);
  const double rest = cap - base * units::fF;
  out << "c " << name << ' ' << format("%.17g", base) << "\nc " << name
      << ' ' << format("%.17g", rest / units::fF) << '\n';
}

}  // namespace

Netlist read_sim(std::istream& in, const std::string& origin) {
  return parse_sim(read_stream(in), origin);
}

Netlist read_sim_file(const std::string& path) {
  TraceSpan span("read_sim", "netlist");
  return parse_sim(read_regular_file(path, ".sim").view(), path);
}

void write_sim(const Netlist& nl, std::ostream& out) {
  const auto dimension = [](double meters) {
    const std::string text = exact_text(meters, kWrittenUnit);
    return text.empty() ? format("%.17g", meters / kWrittenUnit) : text;
  };
  out << "| units: 100 (1 unit = 1 micron); written by sldm\n";
  for (DeviceId d : nl.all_devices()) {
    const Transistor& t = nl.device(d);
    out << to_letter(t.type) << ' ' << nl.node(t.gate).name << ' '
        << nl.node(t.source).name << ' ' << nl.node(t.drain).name << ' '
        << dimension(t.length) << ' ' << dimension(t.width);
    if (t.flow != Flow::kBidirectional) {
      out << " flow=" << to_string(t.flow);
    }
    out << '\n';
  }
  for (NodeId n : nl.all_nodes()) {
    const Node& info = nl.node(n);
    if (info.cap > 0.0) write_cap(out, info.name, info.cap);
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

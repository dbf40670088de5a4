#include "netlist/eco_io.h"

#include <vector>

#include "netlist/lexer.h"
#include "util/error.h"
#include "util/file_io.h"
#include "util/strings.h"
#include "util/units.h"

namespace sldm {
namespace {

NodeId lookup(const Netlist& nl, std::string_view name,
              const std::string& origin, int lineno) {
  const auto id = nl.find_node(name);
  if (!id) {
    throw ParseError(origin, lineno,
                     "unknown node '" + std::string(name) + "'");
  }
  return *id;
}

/// All devices whose (gate, source, drain) names match, channel
/// terminals in either order, in ascending id order (gated_by's order):
/// only the gate's fan-out is searched.
std::vector<DeviceId> match_devices(const Netlist& nl, NodeId gate,
                                    NodeId src, NodeId drn) {
  std::vector<DeviceId> out;
  for (DeviceId d : nl.gated_by(gate)) {
    const Transistor& t = nl.device(d);
    if ((t.source == src && t.drain == drn) ||
        (t.source == drn && t.drain == src)) {
      out.push_back(d);
    }
  }
  return out;
}

std::vector<DeviceId> require_devices(
    const Netlist& nl, const std::vector<std::string_view>& tokens,
    const std::string& origin, int lineno) {
  const NodeId gate = lookup(nl, tokens[1], origin, lineno);
  const NodeId src = lookup(nl, tokens[2], origin, lineno);
  const NodeId drn = lookup(nl, tokens[3], origin, lineno);
  std::vector<DeviceId> devices = match_devices(nl, gate, src, drn);
  if (devices.empty()) {
    throw ParseError(origin, lineno,
                     "no device matches gate=" + std::string(tokens[1]) +
                         " channel=" + std::string(tokens[2]) + "/" +
                         std::string(tokens[3]));
  }
  return devices;
}

/// Applies the records of one buffer.
std::size_t apply_eco_text(std::string_view text, Netlist& nl,
                           const std::string& origin) {
  std::size_t applied = 0;
  LineLexer lex(text);
  while (lex.next()) {
    const int lineno = lex.line();
    const std::vector<std::string_view>& tokens = lex.tokens();
    const std::string_view kind = tokens[0];
    if (kind[0] == '|') continue;

    if (kind == "width" || kind == "length") {
      const char* what = kind == "width" ? "width" : "length";
      if (tokens.size() != 5) {
        throw ParseError(origin, lineno,
                         format("%s record: %s <gate> <src> <drn> <microns>",
                                what, what));
      }
      const double meters =
          parse_dimension(tokens[4], units::um, what, origin, lineno);
      for (DeviceId d : require_devices(nl, tokens, origin, lineno)) {
        if (kind == "width") {
          nl.set_width(d, meters);
        } else {
          nl.set_length(d, meters);
        }
      }
    } else if (kind == "flow") {
      if (tokens.size() != 5) {
        throw ParseError(origin, lineno,
                         "flow record: flow <gate> <src> <drn> <s>d|d>s|both>");
      }
      Flow flow;
      if (tokens[4] == "s>d") {
        flow = Flow::kSourceToDrain;
      } else if (tokens[4] == "d>s") {
        flow = Flow::kDrainToSource;
      } else if (tokens[4] == "both") {
        flow = Flow::kBidirectional;
      } else {
        throw ParseError(origin, lineno,
                         "bad flow value '" + std::string(tokens[4]) + "'");
      }
      for (DeviceId d : require_devices(nl, tokens, origin, lineno)) {
        nl.set_flow(d, flow);
      }
    } else if (kind == "cap" || kind == "addcap") {
      if (tokens.size() != 3) {
        const std::string name(kind);
        throw ParseError(origin, lineno,
                         name + " record: " + name + " <node> <fF>");
      }
      const double farads = parse_cap(tokens[2], origin, lineno);
      const NodeId n = lookup(nl, tokens[1], origin, lineno);
      if (kind == "cap") {
        nl.set_capacitance(n, farads);
      } else {
        nl.add_cap(n, farads);
      }
    } else if (kind == "set") {
      if (tokens.size() != 3) {
        throw ParseError(origin, lineno, "set record: set <node> <0|1|free>");
      }
      const NodeId n = lookup(nl, tokens[1], origin, lineno);
      if (tokens[2] == "0") {
        nl.set_fixed(n, false);
      } else if (tokens[2] == "1") {
        nl.set_fixed(n, true);
      } else if (tokens[2] == "free") {
        nl.set_fixed(n, std::nullopt);
      } else {
        throw ParseError(origin, lineno,
                         "bad set value '" + std::string(tokens[2]) +
                             "' (0, 1, or free)");
      }
    } else if (kind == "node") {
      if (tokens.size() != 2) {
        throw ParseError(origin, lineno, "node record: node <name>");
      }
      nl.add_node(tokens[1]);
    } else if (kind == "transistor") {
      if (tokens.size() < 7 || tokens.size() > 8) {
        throw ParseError(origin, lineno,
                         "transistor record: transistor <e|n|d|p> <gate> "
                         "<src> <drn> <l_um> <w_um> [flow=s>d|d>s]");
      }
      TransistorType type;
      if (tokens[1] == "e" || tokens[1] == "n") {
        type = TransistorType::kNEnhancement;
      } else if (tokens[1] == "d") {
        type = TransistorType::kNDepletion;
      } else if (tokens[1] == "p") {
        type = TransistorType::kPEnhancement;
      } else {
        throw ParseError(origin, lineno,
                         "bad transistor type '" + std::string(tokens[1]) +
                             "'");
      }
      const double l =
          parse_dimension(tokens[5], units::um, "length", origin, lineno);
      const double w =
          parse_dimension(tokens[6], units::um, "width", origin, lineno);
      Flow flow = Flow::kBidirectional;
      if (tokens.size() == 8) {
        if (tokens[7] == "flow=s>d") {
          flow = Flow::kSourceToDrain;
        } else if (tokens[7] == "flow=d>s") {
          flow = Flow::kDrainToSource;
        } else {
          throw ParseError(origin, lineno,
                           "unknown device attribute '" +
                               std::string(tokens[7]) + "'");
        }
      }
      // New terminals may be created on the fly (like .sim parsing).
      const NodeId gate = nl.add_node(tokens[2]);
      const NodeId src = nl.add_node(tokens[3]);
      const NodeId drn = nl.add_node(tokens[4]);
      if (src == drn) {
        throw ParseError(origin, lineno,
                         "transistor source and drain are the same node");
      }
      nl.add_transistor(type, gate, src, drn, w, l, flow);
    } else {
      throw ParseError(origin, lineno,
                       "unknown eco record '" + std::string(kind) + "'");
    }
    ++applied;
  }
  return applied;
}

}  // namespace

std::size_t apply_eco(std::istream& in, Netlist& nl,
                      const std::string& origin) {
  return apply_eco_text(read_stream(in), nl, origin);
}

std::size_t apply_eco_file(const std::string& path, Netlist& nl) {
  return apply_eco_text(read_regular_file(path, "eco script").view(), nl,
                        path);
}

}  // namespace sldm

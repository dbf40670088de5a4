#include "timing/constraints.h"

#include <istream>
#include <ostream>
#include <sstream>

#include "util/contracts.h"
#include "util/error.h"
#include "util/file_io.h"
#include "util/strings.h"

namespace sldm {

void Constraints::apply(const Netlist& nl, Session& session) const {
  for (const InputConstraint& c : inputs) {
    const auto node = nl.find_node(c.node);
    if (!node) throw Error("constraint names unknown node '" + c.node + "'");
    if (!nl.node(*node).is_input) {
      throw Error("constraint node '" + c.node + "' is not a chip input");
    }
    if (c.dir) {
      session.add_input_event(*node, *c.dir, c.time, c.slope);
    } else {
      session.add_input_event(*node, Transition::kRise, c.time, c.slope);
      session.add_input_event(*node, Transition::kFall, c.time, c.slope);
    }
  }
}

Constraints read_constraints(std::istream& in, const std::string& origin) {
  Constraints out;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string stripped = trim(line);
    if (stripped.empty() || stripped[0] == '#') continue;
    const auto tokens = split_ws(stripped);
    SLDM_ASSERT(!tokens.empty());

    if (tokens[0] == "input") {
      if (tokens.size() != 7 || tokens[3] != "at" || tokens[5] != "slope") {
        throw ParseError(origin, lineno,
                         "expected: input <node> <rise|fall|both> at <ns> "
                         "slope <ns>");
      }
      InputConstraint c;
      c.node = tokens[1];
      if (tokens[2] == "rise") {
        c.dir = Transition::kRise;
      } else if (tokens[2] == "fall") {
        c.dir = Transition::kFall;
      } else if (tokens[2] == "both") {
        c.dir = std::nullopt;
      } else {
        throw ParseError(origin, lineno,
                         "bad transition '" + tokens[2] + "'");
      }
      const auto t = parse_finite_double(tokens[4]);
      const auto s = parse_finite_double(tokens[6]);
      if (!t) throw ParseError(origin, lineno, "bad time");
      if (!s || *s < 0.0) throw ParseError(origin, lineno, "bad slope");
      c.time = *t * units::ns;
      c.slope = *s * units::ns;
      out.inputs.push_back(std::move(c));
      continue;
    }

    if (tokens[0] == "require") {
      if (tokens.size() != 2) {
        throw ParseError(origin, lineno, "expected: require <ns>");
      }
      const auto r = parse_finite_double(tokens[1]);
      if (!r || *r <= 0.0) throw ParseError(origin, lineno, "bad budget");
      out.required = *r * units::ns;
      continue;
    }

    throw ParseError(origin, lineno, "unknown directive '" + tokens[0] + "'");
  }
  return out;
}

Constraints read_constraints_file(const std::string& path) {
  std::istringstream in(
      std::string(read_regular_file(path, "constraints").view()));
  return read_constraints(in, path);
}

void write_constraints(const Constraints& c, std::ostream& out) {
  out << "# sldm timing constraints\n";
  for (const InputConstraint& i : c.inputs) {
    const char* dir = !i.dir ? "both"
                     : *i.dir == Transition::kRise ? "rise"
                                                   : "fall";
    out << format("input %s %s at %.6g slope %.6g\n", i.node.c_str(), dir,
                  to_ns(i.time), to_ns(i.slope));
  }
  if (c.required) {
    out << format("require %.6g\n", to_ns(*c.required));
  }
}

}  // namespace sldm

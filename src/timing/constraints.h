// Timing-constraint files: the reproduction of Crystal's command files,
// which declared when each chip input switches and what cycle budget
// the outputs must meet.
//
// Format (one directive per line, '#' comments):
//
//   input <node> <rise|fall|both> at <ns> slope <ns>
//   require <ns>
//
// Example:
//   input phi1 rise at 0 slope 1.5
//   input data both at 2 slope 2
//   require 45
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "design/session.h"
#include "netlist/netlist.h"
#include "util/units.h"

namespace sldm {

/// One declared input event.
struct InputConstraint {
  std::string node;
  /// nullopt = both transitions.
  std::optional<Transition> dir;
  Seconds time = 0.0;
  Seconds slope = 0.0;
};

/// A parsed constraint set.
struct Constraints {
  std::vector<InputConstraint> inputs;
  std::optional<Seconds> required;  ///< cycle budget, if declared

  /// Seeds the session with every declared event.  Throws Error if a
  /// named node does not exist or is not an input.
  void apply(const Netlist& nl, Session& session) const;
};

/// Parses a constraint stream.  Throws ParseError on malformed input.
Constraints read_constraints(std::istream& in,
                             const std::string& origin = "<stream>");
Constraints read_constraints_file(const std::string& path);

/// Writes the set back out in the same format.
void write_constraints(const Constraints& c, std::ostream& out);

}  // namespace sldm

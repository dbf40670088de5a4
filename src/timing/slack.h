// Slack analysis on top of the arrival-time fixpoint: given a cycle
// budget (required time at the observation points), report per-output
// slack and the paths that violate it -- the "does this chip make its
// clock" question Crystal was built to answer.
#pragma once

#include <string>
#include <vector>

#include "design/session.h"

namespace sldm {

/// Slack at one observed (node, transition).
struct SlackEntry {
  NodeId node = NodeId::invalid();
  Transition dir = Transition::kRise;
  Seconds arrival = 0.0;
  Seconds required = 0.0;
  Seconds slack = 0.0;  ///< required - arrival; negative = violation
};

/// The whole report.
struct SlackReport {
  Seconds required = 0.0;  ///< the budget the report was computed for
  std::vector<SlackEntry> entries;  ///< sorted, most critical first

  /// Entries with negative slack.
  std::vector<SlackEntry> violations() const;
  /// The minimum slack over all entries (0 entries -> nullopt).
  std::optional<Seconds> worst_slack() const;
};

/// Computes slack at every output-marked node (both transitions that
/// have arrivals) against a single required time.
/// Precondition: session.run() has completed; required > 0.
SlackReport compute_slack(const Netlist& nl, const Session& session,
                          Seconds required);

/// Renders the report; violating entries are flagged, and for the worst
/// violation the full critical path is appended.
std::string format_slack(const Netlist& nl, const Session& session,
                         const SlackReport& report);

}  // namespace sldm

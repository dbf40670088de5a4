#include "timing/slack.h"

#include <algorithm>
#include <sstream>

#include "timing/report.h"
#include "util/contracts.h"
#include "util/strings.h"

namespace sldm {

std::vector<SlackEntry> SlackReport::violations() const {
  std::vector<SlackEntry> out;
  for (const SlackEntry& e : entries) {
    if (e.slack < 0.0) out.push_back(e);
  }
  return out;
}

std::optional<Seconds> SlackReport::worst_slack() const {
  if (entries.empty()) return std::nullopt;
  return entries.front().slack;
}

SlackReport compute_slack(const Netlist& nl, const Session& session,
                          Seconds required) {
  SLDM_EXPECTS(required > 0.0);
  SlackReport report;
  report.required = required;
  for (NodeId n : nl.all_nodes()) {
    if (!nl.node(n).is_output) continue;
    for (Transition dir : {Transition::kRise, Transition::kFall}) {
      const auto info = session.arrival(n, dir);
      if (!info) continue;
      SlackEntry e;
      e.node = n;
      e.dir = dir;
      e.arrival = info->time;
      e.required = required;
      e.slack = required - info->time;
      report.entries.push_back(e);
    }
  }
  std::sort(report.entries.begin(), report.entries.end(),
            [](const SlackEntry& a, const SlackEntry& b) {
              return a.slack < b.slack;
            });
  return report;
}

std::string format_slack(const Netlist& nl, const Session& session,
                         const SlackReport& report) {
  std::ostringstream os;
  os << format("required time: %.3f ns\n", to_ns(report.required));
  for (const SlackEntry& e : report.entries) {
    os << format("%-12s %-5s arrival %8.3f ns  slack %8.3f ns%s\n",
                 nl.node(e.node).name.c_str(), to_string(e.dir).c_str(),
                 to_ns(e.arrival), to_ns(e.slack),
                 e.slack < 0.0 ? "  ** VIOLATION" : "");
  }
  if (!report.entries.empty() && report.entries.front().slack < 0.0) {
    const SlackEntry& worst = report.entries.front();
    os << "\nworst violating path:\n"
       << format_path(nl, session.critical_path(worst.node, worst.dir));
  }
  return os.str();
}

}  // namespace sldm

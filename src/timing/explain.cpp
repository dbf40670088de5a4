#include "timing/explain.h"

#include <sstream>

#include "util/contracts.h"
#include "util/error.h"
#include "util/json.h"
#include "util/strings.h"

namespace sldm {
namespace {

std::string audit_json(const DelayAudit& audit) {
  std::ostringstream os;
  os << '{' << format("\"model\":\"%s\"", json_escape(audit.model).c_str())
     << ",\"r_total_ohm\":" << json_number(audit.total_resistance)
     << ",\"c_total_f\":" << json_number(audit.total_cap)
     << ",\"c_dest_f\":" << json_number(audit.destination_cap)
     << ",\"t_elmore_s\":" << json_number(audit.elmore)
     << ",\"input_slope_s\":" << json_number(audit.input_slope)
     << format(",\"path_devices\":%zu", audit.path_devices)
     << ",\"terms\":[";
  for (std::size_t i = 0; i < audit.terms.size(); ++i) {
    const AuditTerm& t = audit.terms[i];
    if (i > 0) os << ',';
    os << format("{\"name\":\"%s\",\"value\":", json_escape(t.name).c_str())
       << json_number(t.value)
       << format(",\"unit\":\"%s\"}", json_escape(t.unit).c_str());
  }
  os << "],\"delay_s\":" << json_number(audit.estimate.delay)
     << ",\"output_slope_s\":" << json_number(audit.estimate.output_slope)
     << '}';
  return os.str();
}

}  // namespace

ExplainReport explain_arrival(const Session& session, NodeId node,
                              Transition dir) {
  const Netlist& nl = session.netlist();
  if (!session.arrival(node, dir)) {
    throw Error("no arrival at node '" + nl.node(node).name + "' " +
                to_string(dir) + "; nothing to explain");
  }

  // Collect the event chain destination-first (same walk as
  // critical_path, bounded the same way).
  std::vector<std::pair<NodeId, Transition>> chain;
  NodeId cur = node;
  Transition cdir = dir;
  for (std::size_t guard = 0;; ++guard) {
    SLDM_ASSERT(guard <= 2 * nl.node_count());
    chain.emplace_back(cur, cdir);
    const auto info = session.arrival(cur, cdir);
    SLDM_EXPECTS(info.has_value());
    if (!info->from_node.valid()) break;
    cur = info->from_node;
    cdir = info->from_dir;
  }

  ExplainReport report;
  report.node = node;
  report.dir = dir;
  report.arrival = session.arrival(node, dir)->time;
  report.steps.reserve(chain.size());
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    const ArrivalInfo info = *session.arrival(it->first, it->second);
    ExplainStep step;
    step.node = it->first;
    step.dir = it->second;
    step.arrival = info.time;
    step.slope = info.slope;
    if (info.via_stage == SIZE_MAX) {
      step.is_seed = true;
    } else {
      const TimingStage& ts = session.stages()[info.via_stage];
      // The predecessor's committed slope is exactly what fed this
      // stage during propagation, so the audit (the same batch kernel
      // over the same store stage) reproduces the committed delay.
      const ArrivalInfo from =
          *session.arrival(info.from_node, info.from_dir);
      step.audit = session.delay_model().audit(
          session.stage_store(),
          static_cast<StageStore::StageId>(info.via_stage), from.slope);
      step.delay = step.audit.estimate.delay;
      step.stage = describe(nl, ts);
    }
    report.steps.push_back(std::move(step));
  }
  return report;
}

ExplainReport explain_arrival(const TimingAnalyzer& analyzer, NodeId node,
                              Transition dir) {
  return explain_arrival(analyzer.session(), node, dir);
}

std::string format_explain(const Netlist& nl, const ExplainReport& report) {
  std::ostringstream os;
  os << format("explain: %s %s  arrival %.6f ns  (%zu events)\n",
               nl.node(report.node).name.c_str(),
               to_string(report.dir).c_str(), to_ns(report.arrival),
               report.steps.size());
  Seconds sum = 0.0;
  for (std::size_t i = 0; i < report.steps.size(); ++i) {
    const ExplainStep& s = report.steps[i];
    if (s.is_seed) {
      sum = s.arrival;
      os << format("  #%-2zu %10.6f ns  %-6s %-12s <- input (slope %.6f "
                   "ns)\n",
                   i, to_ns(s.arrival), to_string(s.dir).c_str(),
                   nl.node(s.node).name.c_str(), to_ns(s.slope));
      continue;
    }
    sum += s.delay;
    const DelayAudit& a = s.audit;
    os << format("  #%-2zu %10.6f ns  %-6s %-12s +%.6f ns  %s\n", i,
                 to_ns(s.arrival), to_string(s.dir).c_str(),
                 nl.node(s.node).name.c_str(), to_ns(s.delay),
                 s.stage.c_str())
       << format("      model %s: R_path %.4g ohm  C_path %.4g fF "
                 "(dest %.4g fF)  t_elmore %.6f ns  slope_in %.6f ns  "
                 "%zu device%s\n",
                 a.model.c_str(), a.total_resistance, a.total_cap * 1e15,
                 a.destination_cap * 1e15, to_ns(a.elmore),
                 to_ns(a.input_slope), a.path_devices,
                 a.path_devices == 1 ? "" : "s");
    if (!a.terms.empty()) {
      os << "      terms:";
      for (std::size_t t = 0; t < a.terms.size(); ++t) {
        const AuditTerm& term = a.terms[t];
        os << format("%s %s = %.6g%s%s", t > 0 ? "," : "", term.name,
                     term.value, term.unit[0] ? " " : "", term.unit);
      }
      os << '\n';
    }
  }
  os << format("  sum of stage delays: %.6f ns (arrival %.6f ns)\n",
               to_ns(sum), to_ns(report.arrival));
  return os.str();
}

std::string explain_json(const Netlist& nl, const ExplainReport& report) {
  std::ostringstream os;
  os << '{'
     << format("\"node\":\"%s\"",
               json_escape(nl.node(report.node).name).c_str())
     << format(",\"dir\":\"%s\"", to_string(report.dir).c_str())
     << ",\"arrival_s\":" << json_number(report.arrival) << ",\"steps\":[";
  for (std::size_t i = 0; i < report.steps.size(); ++i) {
    const ExplainStep& s = report.steps[i];
    if (i > 0) os << ',';
    os << '{'
       << format("\"node\":\"%s\"",
                 json_escape(nl.node(s.node).name).c_str())
       << format(",\"dir\":\"%s\"", to_string(s.dir).c_str())
       << ",\"arrival_s\":" << json_number(s.arrival)
       << ",\"slope_s\":" << json_number(s.slope)
       << format(",\"seed\":%s", s.is_seed ? "true" : "false");
    if (!s.is_seed) {
      os << ",\"delay_s\":" << json_number(s.delay)
         << format(",\"stage\":\"%s\"", json_escape(s.stage).c_str())
         << ",\"audit\":" << audit_json(s.audit);
    }
    os << '}';
  }
  os << "]}";
  return os.str();
}

}  // namespace sldm

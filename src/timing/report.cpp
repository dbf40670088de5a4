#include "timing/report.h"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "util/json.h"
#include "util/strings.h"
#include "util/text_table.h"

namespace sldm {

std::string format_path(const Netlist& nl, const std::vector<PathStep>& path) {
  std::ostringstream os;
  for (const PathStep& s : path) {
    os << format("%10.3f ns  %-6s %-12s slope %.3f ns  %s\n",
                 to_ns(s.time), to_string(s.dir).c_str(),
                 nl.node(s.node).name.c_str(), to_ns(s.slope),
                 s.description.c_str());
  }
  return os.str();
}

std::string format_output_arrivals(const Netlist& nl, const Session& session) {
  TextTable table({"output", "rise (ns)", "fall (ns)"});
  for (NodeId n : nl.all_nodes()) {
    if (!nl.node(n).is_output) continue;
    const auto rise = session.arrival(n, Transition::kRise);
    const auto fall = session.arrival(n, Transition::kFall);
    table.add_row({nl.node(n).name.str(),
                   rise ? format("%.3f", to_ns(rise->time)) : "-",
                   fall ? format("%.3f", to_ns(fall->time)) : "-"});
  }
  return table.to_string();
}

std::string format_all_arrivals(const Netlist& nl, const Session& session) {
  TextTable table({"node", "rise (ns)", "rise slope", "fall (ns)",
                   "fall slope"});
  for (NodeId n : nl.all_nodes()) {
    if (nl.node(n).is_input || nl.is_rail(n)) continue;
    const auto rise = session.arrival(n, Transition::kRise);
    const auto fall = session.arrival(n, Transition::kFall);
    if (!rise && !fall) continue;
    table.add_row({nl.node(n).name.str(),
                   rise ? format("%.3f", to_ns(rise->time)) : "-",
                   rise ? format("%.3f", to_ns(rise->slope)) : "-",
                   fall ? format("%.3f", to_ns(fall->time)) : "-",
                   fall ? format("%.3f", to_ns(fall->slope)) : "-"});
  }
  return table.to_string();
}

std::string format_analyzer_stats(const Netlist& nl, const Session& session,
                                  std::size_t max_cccs) {
  const AnalyzerStats& st = session.stats();
  std::ostringstream os;
  os << "analyzer stats:\n"
     << format("  extraction : %9.3f ms  (%zu stages, %zu CCCs)\n",
               st.extract_seconds * 1e3, st.stage_count, st.ccc_count)
     << format("  propagation: %9.3f ms  (%zu stage evaluations, "
               "%zu keys priced, %zu arrival updates)\n",
               st.propagate_seconds * 1e3, st.stage_evaluations,
               st.keys_priced, st.arrival_updates);
  if (st.batches > 0) {
    os << format("  levels     : %9zu batches  (mean %.1f, max %zu "
                 "evaluations per batch)\n",
                 st.batches, st.mean_batch_size, st.max_batch_size);
  }
  if (st.incremental_updates > 0) {
    os << format("  eco update : %9.3f ms  (%zu absorbed; last: %zu dirty "
                 "CCC%s, %zu reused / %zu re-extracted stages, "
                 "%zu re-priced arrivals)\n",
                 st.update_seconds * 1e3, st.incremental_updates,
                 st.dirty_cccs, st.dirty_cccs == 1 ? "" : "s",
                 st.reused_stages, st.reextracted_stages, st.frontier_keys);
  }

  // Per-CCC census, largest stage contribution first.
  const std::vector<std::size_t>& per_ccc = session.design().stages_per_ccc();
  std::vector<std::size_t> order(per_ccc.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return per_ccc[a] > per_ccc[b];
                   });
  if (order.size() > max_cccs) order.resize(max_cccs);
  const CccPartition& ccc = session.components();
  TextTable table({"ccc", "nodes", "devices", "stages", "example node"});
  for (std::size_t c : order) {
    table.add_row({std::to_string(c),
                   std::to_string(ccc.members(c).size()),
                   std::to_string(ccc.device_count(c)),
                   std::to_string(per_ccc[c]),
                   nl.node(ccc.members(c).front()).name.str()});
  }
  os << table.to_string();
  return os.str();
}

std::string analyzer_stats_json(const AnalyzerStats& st) {
  std::ostringstream os;
  os << '{' << format("\"ccc_count\":%zu", st.ccc_count)
     << format(",\"widest_ccc\":%zu", st.widest_ccc)
     << format(",\"stage_count\":%zu", st.stage_count)
     << format(",\"stage_evaluations\":%zu", st.stage_evaluations)
     << format(",\"keys_priced\":%zu", st.keys_priced)
     << format(",\"arrival_updates\":%zu", st.arrival_updates)
     << format(",\"batches\":%zu", st.batches)
     << ",\"mean_batch_size\":" << json_number(st.mean_batch_size)
     << format(",\"max_batch_size\":%zu", st.max_batch_size)
     << ",\"extract_seconds\":" << json_number(st.extract_seconds)
     << ",\"propagate_seconds\":" << json_number(st.propagate_seconds)
     << format(",\"incremental_updates\":%zu", st.incremental_updates)
     << format(",\"dirty_cccs\":%zu", st.dirty_cccs)
     << format(",\"reextracted_stages\":%zu", st.reextracted_stages)
     << format(",\"reused_stages\":%zu", st.reused_stages)
     << format(",\"frontier_keys\":%zu", st.frontier_keys)
     << ",\"update_seconds\":" << json_number(st.update_seconds) << '}';
  return os.str();
}

std::string analyzer_stats_json(const Session& session) {
  std::string json = analyzer_stats_json(session.stats());
  json.pop_back();  // drop the closing brace
  json += ",\"metrics\":";
  json += session.metrics().to_json();
  json += '}';
  return json;
}

}  // namespace sldm

// Incremental ECO timing vs full re-analysis.
//
// The use case behind TimingAnalyzer::update(): a designer nudges one
// transistor and asks for new arrival times.  Crystal rebuilt its whole
// analysis; the incremental path re-extracts only the dirty
// channel-connected components and re-propagates from the damage
// frontier.  This bench measures both on the random-logic scaling
// family and checks that the answers stay bit-identical.
#include <chrono>
#include <iostream>
#include <vector>

#include "bench_io.h"
#include "delay/rctree.h"
#include "design/compiled_design.h"
#include "gen/generators.h"
#include "tech/tech.h"
#include "timing/analyzer.h"
#include "util/strings.h"
#include "util/text_table.h"

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sldm;
  benchio::BenchMain bench("bench_eco_incremental", argc, argv);
  std::cout << "Extension: incremental ECO update vs full rebuild "
               "(single-device width edits, rc-tree model, 1 ns edge)\n\n";
  const Tech tech = cmos3();
  const RcTreeModel model;

  struct Config {
    int layers;
    int width;
  };
  const std::vector<Config> configs = {{6, 10}, {9, 16}, {12, 24}, {64, 256}};
  constexpr int kEdits = 40;

  TextTable table({"circuit", "devices", "rebuild (us)", "update (us)",
                   "speedup", "dirty CCCs", "reused stages"});
  bool all_identical = true;
  for (const Config& c : configs) {
    const GeneratedCircuit g =
        random_logic(Style::kCmos, c.layers, c.width, 0xEC0);
    Netlist nl = g.netlist;
    benchio::note_circuit(g.name, nl.device_count(),
                          design_fingerprint(nl, tech));

    TimingAnalyzer inc(nl, tech, model);
    inc.add_input_event(g.input, Transition::kRise, 0.0, 1e-9);
    inc.run();

    double update_total = 0.0;
    double rebuild_total = 0.0;
    std::size_t dirty_total = 0;
    std::size_t reused_total = 0;
    for (int i = 0; i < kEdits; ++i) {
      // Walk the device list so successive edits hit different CCCs.
      const DeviceId d(static_cast<std::uint32_t>(
          (static_cast<std::size_t>(i) * 7919u) % nl.device_count()));
      nl.set_width(d, nl.device(d).width * (i % 2 == 0 ? 1.25 : 0.8));

      double t0 = now_seconds();
      inc.update();
      update_total += now_seconds() - t0;
      dirty_total += inc.stats().dirty_cccs;
      reused_total += inc.stats().reused_stages;

      t0 = now_seconds();
      TimingAnalyzer fresh(nl, tech, model);
      fresh.add_input_event(g.input, Transition::kRise, 0.0, 1e-9);
      fresh.run();
      rebuild_total += now_seconds() - t0;

      for (NodeId n : nl.all_nodes()) {
        for (Transition dir : {Transition::kRise, Transition::kFall}) {
          const auto a = inc.arrival(n, dir);
          const auto b = fresh.arrival(n, dir);
          if (a.has_value() != b.has_value() ||
              (a && (a->time != b->time || a->slope != b->slope))) {
            all_identical = false;
          }
        }
      }
    }
    const double update_us = update_total / kEdits * 1e6;
    const double rebuild_us = rebuild_total / kEdits * 1e6;
    table.add_row({g.name, std::to_string(nl.device_count()),
                   format("%.1f", rebuild_us), format("%.1f", update_us),
                   format("%.1fx", rebuild_us / update_us),
                   format("%.1f", static_cast<double>(dirty_total) / kEdits),
                   format("%.0f",
                          static_cast<double>(reused_total) / kEdits)});
  }
  std::cout << table.to_string();
  std::cout << "\narrivals bit-identical to rebuild after every edit: "
            << (all_identical ? "yes" : "NO (BUG)") << '\n';
  return all_identical ? 0 : 1;
}

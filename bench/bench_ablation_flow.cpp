// Ablation C: the effect of flow attributes on pass-transistor arrays.
//
// Without annotations the analyzer must assume signals can move both
// ways through every pass device, so an N x N barrel shifter yields a
// combinatorial pile of backward paths; annotating data->output flow
// (Crystal's fix for exactly this structure) collapses the stage count
// and the analysis time while leaving the reported arrival intact.
#include <iostream>

#include "bench_io.h"
#include "compare/harness.h"
#include "delay/rctree.h"
#include "timing/analyzer.h"
#include "util/strings.h"
#include "util/text_table.h"

namespace {

using namespace sldm;

/// Annotates every select-gated pass device with data->output flow.
void annotate(GeneratedCircuit& g) {
  for (DeviceId d : g.netlist.device_ids()) {
    const Transistor& t = g.netlist.device(d);
    if (t.type != TransistorType::kNEnhancement) continue;
    const std::string_view gate = g.netlist.node(t.gate).name;
    if (gate.starts_with("sh")) {
      g.netlist.set_flow(d, Flow::kSourceToDrain);
    }
  }
}

struct Row {
  std::size_t stages = 0;
  Seconds arrival = 0.0;
  double seconds = 0.0;
};

Row analyze(const GeneratedCircuit& g, const Tech& tech) {
  const RcTreeModel model;
  const double t0 = now_seconds();
  TimingAnalyzer an(g.netlist, tech, model);
  an.add_input_event(g.input, Transition::kRise, 0.0, 1e-9);
  an.run();
  Row row;
  row.seconds = now_seconds() - t0;
  row.stages = an.stages().size();
  const auto worst = an.worst_arrival(true);
  row.arrival = worst ? worst->time : 0.0;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  sldm::benchio::BenchMain bench("bench_ablation_flow", argc, argv);
  std::cout << "Ablation C: flow attributes on barrel shifters (nMOS, "
               "rc-tree model)\n\n";
  const Tech tech = nmos4();
  TextTable table({"bits", "stages (plain)", "stages (flow)",
                   "time plain (s)", "time flow (s)", "arrival plain (ns)",
                   "arrival flow (ns)"});
  for (int bits : {2, 3, 4, 5, 6}) {
    GeneratedCircuit plain = barrel_shifter(Style::kNmos, bits);
    GeneratedCircuit flow = barrel_shifter(Style::kNmos, bits);
    annotate(flow);
    sldm::benchio::note_circuit(plain.name,
                                plain.netlist.device_count());
    const Row a = analyze(plain, tech);
    const Row b = analyze(flow, tech);
    table.add_row({std::to_string(bits), std::to_string(a.stages),
                   std::to_string(b.stages), format("%.4f", a.seconds),
                   format("%.4f", b.seconds),
                   format("%.3f", to_ns(a.arrival)),
                   format("%.3f", to_ns(b.arrival))});
  }
  std::cout << table.to_string();
  std::cout << "\n(the analyzed worst path is forward in both cases; the "
               "annotation removes only false backward stages)\n";
  return 0;
}

// Table 5 (reconstruction): analyzer speed vs circuit-level simulation.
//
// The paper's speed claim: switch-level timing analysis runs orders of
// magnitude faster than circuit simulation, with the gap widening with
// circuit size.  google-benchmark measures the analyzer per model on
// growing random-logic networks; the simulator is timed directly (it is
// far too slow to iterate) and a speedup table is printed at the end,
// followed by a cold-vs-warm table (full .sim parse + extraction
// against a .sldc snapshot load) and a phase table that sets stage
// extraction beside propagation (AnalyzerStats).
#include <benchmark/benchmark.h>

#include "bench_io.h"

#include <algorithm>
#include <chrono>
#include <iostream>
#include <sstream>
#include <vector>

#include "calib/calibrate.h"
#include "compare/harness.h"
#include "delay/slope.h"
#include "design/compiled_design.h"
#include "design/session.h"
#include "design/snapshot.h"
#include "netlist/sim_io.h"
#include "util/strings.h"
#include "util/text_table.h"

namespace {

using namespace sldm;

const GeneratedCircuit& circuit_for(int layers, int width) {
  static std::map<std::pair<int, int>, GeneratedCircuit> cache;
  auto& slot = cache[{layers, width}];
  if (slot.netlist.node_count() == 0) {
    slot = random_logic(Style::kCmos, layers, width,
                        /*seed=*/0x5DCu + static_cast<unsigned>(layers));
  }
  return slot;
}

void BM_Analyzer(benchmark::State& state) {
  const auto layers = static_cast<int>(state.range(0));
  const auto width = static_cast<int>(state.range(1));
  const auto model_index = static_cast<std::size_t>(state.range(2));
  const CompareContext& ctx = CompareContext::get(Style::kCmos);
  const GeneratedCircuit& g = circuit_for(layers, width);
  const DelayModel* model = ctx.models()[model_index];

  for (auto _ : state) {
    const AnalyzeOnlyResult r = run_analyzer(g, ctx.tech(), *model, 1e-9);
    benchmark::DoNotOptimize(r.delay);
  }
  state.counters["devices"] =
      static_cast<double>(g.netlist.device_count());
  state.SetLabel(model->name());
}

BENCHMARK(BM_Analyzer)
    ->ArgsProduct({{2, 4, 8}, {4, 8, 16}, {0, 1, 2}})
    ->Unit(benchmark::kMillisecond);

/// Best-of-n analyzer run (the analyzer is fast enough to repeat).
AnalyzeOnlyResult best_analyzer_run(const GeneratedCircuit& g,
                                    const CompareContext& ctx, int n) {
  AnalyzeOnlyResult best;
  best.analyze_time = 1e9;
  for (int i = 0; i < n; ++i) {
    const AnalyzeOnlyResult r =
        run_analyzer(g, ctx.tech(), *ctx.models()[2], 1e-9);
    if (r.analyze_time < best.analyze_time) best = r;
  }
  return best;
}

void print_speedup_table() {
  const CompareContext& ctx = CompareContext::get(Style::kCmos);
  std::cout << "\nTable 5 (reconstructed): wall-clock, timing analyzer vs "
               "analog simulator\n\n";
  TextTable table({"circuit", "devices", "sim (s)", "analyze slope (s)",
                   "speedup"});
  // Circuits whose observed output reliably switches (the simulator leg
  // needs a real transition to time).
  std::vector<GeneratedCircuit> circuits;
  circuits.push_back(inverter_chain(Style::kCmos, 6, 1));
  circuits.push_back(inverter_chain(Style::kCmos, 12, 2));
  circuits.push_back(barrel_shifter(Style::kCmos, 6));
  circuits.push_back(inverter_chain(Style::kCmos, 24, 4));
  for (const GeneratedCircuit& g : circuits) {
    benchio::note_circuit(g.name, g.netlist.device_count(),
                          design_fingerprint(g.netlist, ctx.tech()));
    const SimulateOnlyResult sim = run_simulation(g, ctx.tech(), 1e-9);
    const AnalyzeOnlyResult ar = best_analyzer_run(g, ctx, 3);
    table.add_row({g.name, std::to_string(g.netlist.device_count()),
                   format("%.4f", sim.simulate_time),
                   format("%.6f", ar.analyze_time),
                   format("%.0fx", sim.simulate_time / ar.analyze_time)});
  }
  std::cout << table.to_string();
}

/// Where the analyzer's time goes: stage extraction (sequential, in
/// node order) beside propagation, best of 5 by total analysis time.
void print_phase_table() {
  const CompareContext& ctx = CompareContext::get(Style::kCmos);
  std::cout << "\nAnalyzer phases (slope model, best of 5):\n\n";
  TextTable table({"circuit", "devices", "stages", "cccs", "extract (ms)",
                   "prop (ms)"});
  std::vector<GeneratedCircuit> circuits;
  circuits.push_back(inverter_chain(Style::kCmos, 24, 4));
  circuits.push_back(barrel_shifter(Style::kCmos, 6));
  circuits.push_back(random_logic(Style::kCmos, 8, 16, 0x5DC + 8u));
  circuits.push_back(random_logic(Style::kCmos, 12, 24, 0x5DC + 12u));
  for (const GeneratedCircuit& g : circuits) {
    const AnalyzeOnlyResult r = best_analyzer_run(g, ctx, 5);
    table.add_row({g.name, std::to_string(g.netlist.device_count()),
                   std::to_string(r.stage_count), std::to_string(r.ccc_count),
                   format("%.3f", r.extract_time * 1e3),
                   format("%.3f", r.propagate_time * 1e3)});
  }
  std::cout << table.to_string();
}

/// Cold start vs warm start, measured as the CLI pays them.  Cold is
/// `sldm time circuit.sim` with the default (slope) model: calibrate
/// against the analog simulator, parse the .sim text, partition into
/// CCCs, extract stages, propagate.  Warm is `sldm time --load`:
/// deserialize a .sldc snapshot (StageStore restored verbatim, slope
/// tables embedded -- no recalibration), open a Session, propagate.
/// Both legs run from memory (string stream vs byte buffer) so the
/// table compares pipelines, not disk caches.
void print_cold_warm_table() {
  const CompareContext& ctx = CompareContext::get(Style::kCmos);
  std::cout << "\nCold start (calibrate + .sim parse + extract + analyze) "
               "vs warm start\n(.sldc load + Session; calibration tables "
               "embedded in the snapshot):\nbest of 5, slope model, "
               "single thread\n\n";
  TextTable table({"circuit", "devices", "cold (ms)", "warm (ms)",
                   "speedup"});

  std::vector<GeneratedCircuit> circuits;
  circuits.push_back(inverter_chain(Style::kCmos, 6, 1));
  circuits.push_back(inverter_chain(Style::kCmos, 12, 2));
  circuits.push_back(barrel_shifter(Style::kCmos, 6));
  circuits.push_back(inverter_chain(Style::kCmos, 24, 4));
  circuits.push_back(random_logic(Style::kCmos, 8, 16, 0x5DC + 8u));
  for (const GeneratedCircuit& g : circuits) {
    std::ostringstream sim_text;
    write_sim(g.netlist, sim_text);
    const std::string sim = sim_text.str();
    // Compile with the calibrated tech -- exactly what `sldm compile`
    // bakes -- so both legs analyze the same electrical quantities.
    const auto design = CompiledDesign::compile(g.netlist, ctx.tech());
    const std::vector<std::uint8_t> snapshot =
        serialize_design(*design, &ctx.calibration().tables);

    using clock = std::chrono::steady_clock;
    Seconds cold = 1e9;
    Seconds warm = 1e9;
    for (int i = 0; i < 5; ++i) {
      {
        const auto t0 = clock::now();
        const CalibrationResult cal = calibrate(cmos3(), Style::kCmos);
        const SlopeModel model(cal.tables);
        std::istringstream in(sim);
        const Netlist nl = read_sim(in, g.name);
        TimingAnalyzer analyzer(nl, cal.tech, model);
        analyzer.add_all_input_events(1e-9);
        analyzer.run();
        benchmark::DoNotOptimize(analyzer.worst_arrival(false));
        cold = std::min(
            cold, std::chrono::duration<double>(clock::now() - t0).count());
      }
      {
        const auto t0 = clock::now();
        const LoadedDesign loaded = deserialize_design(snapshot, g.name);
        const SlopeModel model(*loaded.slope_tables);
        Session session(loaded.design, model);
        session.add_all_input_events(1e-9);
        session.run();
        benchmark::DoNotOptimize(session.worst_arrival(false));
        warm = std::min(
            warm, std::chrono::duration<double>(clock::now() - t0).count());
      }
    }
    table.add_row({g.name, std::to_string(g.netlist.device_count()),
                   format("%.4f", cold * 1e3), format("%.4f", warm * 1e3),
                   format("%.0fx", cold / warm)});
  }
  std::cout << table.to_string();
}

}  // namespace

int main(int argc, char** argv) {
  benchio::BenchMain bench("bench_table5_runtime", argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_speedup_table();
  print_cold_warm_table();
  print_phase_table();
  return 0;
}

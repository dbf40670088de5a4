#include "compare/harness.h"

#include <map>
#include <mutex>

#include "analog/elaborate.h"
#include "analog/transient.h"
#include "delay/lumped.h"
#include "delay/rctree.h"
#include "delay/slope.h"
#include "timing/analyzer.h"
#include "util/contracts.h"
#include "util/error.h"

namespace sldm {
namespace {

constexpr Seconds kEdgeTime = 2e-9;  ///< input edge start (settling margin)

std::vector<Stimulus> build_stimuli(const GeneratedCircuit& g,
                                    const Tech& tech, Seconds input_slope) {
  std::vector<Stimulus> stimuli;
  const Seconds ramp = std::max(input_slope, 1e-12);
  stimuli.push_back(
      {g.input, PwlSource::edge(0.0, tech.vdd(), kEdgeTime, ramp)});
  for (NodeId n : g.high_inputs) {
    stimuli.push_back({n, PwlSource::dc(tech.vdd())});
  }
  for (NodeId n : g.low_inputs) {
    stimuli.push_back({n, PwlSource::dc(0.0)});
  }
  return stimuli;
}

}  // namespace

CompareContext::CompareContext(Style style, CalibrationResult calibration)
    : style_(style), calibration_(std::move(calibration)) {
  lumped_ = std::make_unique<LumpedRcModel>();
  rctree_ = std::make_unique<RcTreeModel>();
  slope_ = std::make_unique<SlopeModel>(calibration_.tables);
}

const CompareContext& CompareContext::get(Style style) {
  static std::mutex mutex;
  static std::map<Style, std::unique_ptr<CompareContext>> cache;
  std::lock_guard<std::mutex> lock(mutex);
  auto& slot = cache[style];
  if (!slot) {
    const Tech base = style == Style::kNmos ? nmos4() : cmos3();
    slot = std::make_unique<CompareContext>(style, calibrate(base, style));
  }
  return *slot;
}

std::vector<const DelayModel*> CompareContext::models() const {
  return {lumped_.get(), rctree_.get(), slope_.get()};
}

const ModelResult& ComparisonResult::model(const std::string& name) const {
  for (const ModelResult& m : models) {
    if (m.model == name) return m;
  }
  SLDM_EXPECTS(false && "model not present in comparison result");
  return models.front();  // unreachable
}

AnalyzeOnlyResult run_analyzer(const GeneratedCircuit& g, const Tech& tech,
                               const DelayModel& model, Seconds input_slope) {
  const Seconds t0 = now_seconds();
  TimingAnalyzer analyzer(g.netlist, tech, model);
  analyzer.add_input_event(g.input, Transition::kRise, 0.0, input_slope);
  analyzer.run();
  AnalyzeOnlyResult out;
  const auto worst = analyzer.worst_arrival(/*outputs_only=*/true);
  out.delay = worst ? worst->time : 0.0;
  out.analyze_time = now_seconds() - t0;
  const AnalyzerStats& st = analyzer.stats();
  out.extract_time = st.extract_seconds;
  out.propagate_time = st.propagate_seconds;
  out.stage_evaluations = st.stage_evaluations;
  out.stage_count = st.stage_count;
  out.ccc_count = st.ccc_count;
  out.stats = st;
  return out;
}

SimulateOnlyResult run_simulation(const GeneratedCircuit& g, const Tech& tech,
                                  Seconds input_slope) {
  const Seconds t_start = now_seconds();
  const auto stimuli = build_stimuli(g, tech, input_slope);
  const Elaboration elab = elaborate(g.netlist, tech, stimuli);

  TransientOptions topt;
  elab.apply_precharge(g.netlist, tech.vdd(), topt);
  Seconds t_stop = kEdgeTime + input_slope + 40e-9;
  const Volts v_mid = tech.vdd() / 2.0;

  for (int attempt = 0; attempt < 4; ++attempt) {
    topt.t_stop = t_stop;
    const TransientResult result = simulate(elab.circuit(), topt);
    const Waveform& w_in = result.at(elab.analog(g.input));
    const Waveform& w_out = result.at(elab.analog(g.output));

    // Output direction: where does the output settle relative to where
    // it started when the edge launched?
    const Volts v_start = w_out.at(kEdgeTime);
    const Volts v_end = w_out.value(w_out.size() - 1);
    if (std::abs(v_end - v_start) > 0.5) {
      const Transition dir =
          v_end > v_start ? Transition::kRise : Transition::kFall;
      // Signed measurement: with a slow input edge, the output's 50%
      // crossing can legitimately precede the input's.
      const auto delay = measure_delay_signed(w_in, Transition::kRise, w_out,
                                              dir, v_mid, kEdgeTime / 2.0);
      if (delay) {
        SimulateOnlyResult out;
        out.delay = *delay;
        out.output_dir = dir;
        out.simulate_time = now_seconds() - t_start;
        return out;
      }
    }
    t_stop *= 3.0;
  }
  throw Error("simulation of '" + g.name + "': output never switched");
}

ComparisonResult run_comparison(const GeneratedCircuit& g,
                                const CompareContext& ctx,
                                Seconds input_slope) {
  ComparisonResult out;
  out.circuit = g.name;
  out.devices = g.netlist.device_count();

  const SimulateOnlyResult sim =
      run_simulation(g, ctx.tech(), input_slope);
  out.reference_delay = sim.delay;
  out.output_dir = sim.output_dir;
  out.simulate_time = sim.simulate_time;

  for (const DelayModel* model : ctx.models()) {
    const Seconds t0 = now_seconds();
    TimingAnalyzer analyzer(g.netlist, ctx.tech(), *model);
    analyzer.add_input_event(g.input, Transition::kRise, 0.0, input_slope);
    analyzer.run();
    const auto arrival = analyzer.arrival(g.output, sim.output_dir);
    if (!arrival) {
      throw Error("analyzer found no arrival at output of '" + g.name +
                  "' (" + model->name() + ")");
    }
    ModelResult mr;
    mr.model = model->name();
    mr.delay = arrival->time;
    mr.error_pct =
        100.0 * (arrival->time - sim.delay) / sim.delay;
    mr.analyze_time = now_seconds() - t0;
    mr.metrics = analyzer.metrics();
    out.models.push_back(std::move(mr));
  }
  return out;
}

}  // namespace sldm

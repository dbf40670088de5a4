// Observability contracts: the metrics registry, the span tracer (and
// its Chrome trace-event JSON export, round-tripped through the strict
// util/json parser), and the explain traces, whose per-stage delay
// breakdown must sum to the reported arrival on every generator
// circuit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cli/cli.h"
#include "delay/bounds.h"
#include "delay/lumped.h"
#include "delay/rctree.h"
#include "delay/slope.h"
#include "delay/unit.h"
#include "gen/generators.h"
#include "tech/tech.h"
#include "timing/analyzer.h"
#include "timing/explain.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace sldm {
namespace {

/// A scratch file deleted at scope exit.
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_("/tmp/sldm_obs_test_" + name) {}
  TempFile(const std::string& name, const std::string& contents)
      : TempFile(name) {
    std::ofstream out(path_);
    out << contents;
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

constexpr const char* kChainSim =
    "e in gnd s1 4 8\n"
    "d s1 s1 vdd 8 4\n"
    "e s1 gnd out 4 8\n"
    "d out out vdd 8 4\n"
    "@in in\n"
    "@out out\n";

int run(const std::vector<std::string>& args, std::string* out_text) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = run_cli(args, out, err);
  if (out_text) *out_text = out.str();
  EXPECT_EQ(err.str().find("error:"), std::string::npos) << err.str();
  return code;
}

/// One circuit per generator in src/gen (mirrors eco_timing_test).
std::vector<GeneratedCircuit> generator_suite() {
  std::vector<GeneratedCircuit> out;
  out.push_back(inverter_chain(Style::kCmos, 8, 3));
  out.push_back(inverter_chain(Style::kNmos, 6, 2));
  out.push_back(nand_chain(Style::kCmos, 3));
  out.push_back(nor_chain(Style::kNmos, 3));
  out.push_back(pass_chain(Style::kNmos, 5));
  out.push_back(barrel_shifter(Style::kCmos, 4));
  out.push_back(manchester_carry(Style::kNmos, 6));
  out.push_back(precharged_bus(Style::kCmos, 5));
  out.push_back(driver_chain(Style::kCmos, 4, 2.5, 80.0));
  out.push_back(address_decoder(Style::kCmos, 3));
  out.push_back(pla(Style::kCmos, 4, 5, 3, 0x1234));
  out.push_back(shift_register(Style::kCmos, 3));
  out.push_back(sram_read_column(Style::kNmos, 6));
  out.push_back(random_logic(Style::kCmos, 6, 10, 0xABCD));
  return out;
}

const Tech& tech_for(const GeneratedCircuit& g) {
  static const Tech nmos = nmos4();
  static const Tech cmos = cmos3();
  return g.style == Style::kNmos ? nmos : cmos;
}

// ---------------------------------------------------------------------
// Metrics registry.

TEST(Metrics, CountersGaugesAndHistogramsByName) {
  MetricsRegistry reg;
  EXPECT_TRUE(reg.empty());
  Counter& c = reg.counter("a.count");
  c.add();
  c.add(4);
  EXPECT_EQ(reg.counter("a.count").value(), 5u);  // same object by name
  reg.gauge("a.seconds").set(0.25);
  Histogram& h = reg.histogram("a.dist", 0.0, 10.0, 5);
  h.add(1.0);
  h.add(9.0);
  EXPECT_FALSE(reg.empty());

  EXPECT_EQ(reg.find_counter("a.count")->value(), 5u);
  EXPECT_EQ(reg.find_gauge("a.seconds")->value(), 0.25);
  EXPECT_EQ(reg.find_histogram("a.dist")->total(), 2u);
  EXPECT_EQ(reg.find_counter("missing"), nullptr);
  EXPECT_EQ(reg.find_gauge("missing"), nullptr);
  EXPECT_EQ(reg.find_histogram("missing"), nullptr);
}

TEST(Metrics, RegistryIsCopyableSnapshot) {
  MetricsRegistry reg;
  reg.counter("n").add(7);
  MetricsRegistry snap = reg;
  reg.counter("n").add(1);
  EXPECT_EQ(snap.find_counter("n")->value(), 7u);
  EXPECT_EQ(reg.find_counter("n")->value(), 8u);
}

TEST(Metrics, ToJsonRoundTrips) {
  MetricsRegistry reg;
  reg.counter("evals").add(42);
  reg.gauge("seconds").set(1.5);
  Histogram& h = reg.histogram("depth", 0.0, 8.0, 4);
  h.add(1.0);
  h.add(3.0);
  h.add(100.0);  // clamps into the last bucket

  const JsonValue doc = parse_json(reg.to_json());
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("counters").at("evals").as_number(), 42.0);
  EXPECT_EQ(doc.at("gauges").at("seconds").as_number(), 1.5);
  const JsonValue& depth = doc.at("histograms").at("depth");
  EXPECT_EQ(depth.at("lo").as_number(), 0.0);
  EXPECT_EQ(depth.at("hi").as_number(), 8.0);
  EXPECT_EQ(depth.at("total").as_number(), 3.0);
  ASSERT_EQ(depth.at("counts").items().size(), 4u);
  double total = 0.0;
  for (const JsonValue& b : depth.at("counts").items()) {
    total += b.as_number();
  }
  EXPECT_EQ(total, 3.0);
}

TEST(Metrics, AnalyzerRegistryCarriesTheDocumentedNames) {
  const RcTreeModel model;
  const GeneratedCircuit g = inverter_chain(Style::kCmos, 4, 1);
  TimingAnalyzer an(g.netlist, tech_for(g), model);
  an.add_input_event(g.input, Transition::kRise, 0.0, 1e-9);
  an.run();

  const MetricsRegistry& m = an.metrics();
  for (const char* name :
       {"propagate.stage_evaluations", "propagate.keys_priced",
        "propagate.arrival_updates", "eco.updates"}) {
    ASSERT_NE(m.find_counter(name), nullptr) << name;
  }
  for (const char* name : {"extract.seconds", "propagate.seconds",
                           "eco.update_seconds", "eco.dirty_cccs",
                           "eco.reextracted_stages", "eco.reused_stages",
                           "eco.frontier_keys"}) {
    ASSERT_NE(m.find_gauge(name), nullptr) << name;
  }
  for (const char* name :
       {"extract.stage_fan_in", "propagate.rc_path_depth",
        "propagate.eval_us", "propagate.queue_depth", "eco.frontier_size"}) {
    ASSERT_NE(m.find_histogram(name), nullptr) << name;
  }
  EXPECT_GT(m.find_counter("propagate.stage_evaluations")->value(), 0u);
  EXPECT_GT(m.find_histogram("extract.stage_fan_in")->total(), 0u);
  EXPECT_GT(m.find_histogram("propagate.rc_path_depth")->total(), 0u);
}

// ---------------------------------------------------------------------
// Span tracer.

/// Restores the global tracer to off+empty around a test body.
class TracerSandbox {
 public:
  TracerSandbox() {
    Tracer::instance().disable();
    Tracer::instance().clear();
  }
  ~TracerSandbox() {
    Tracer::instance().disable();
    Tracer::instance().clear();
  }
};

TEST(Trace, DisabledSpansRecordNothing) {
  TracerSandbox sandbox;
  {
    TraceSpan span("noop", "test");
    EXPECT_FALSE(span.armed());
    span.arg("k", 1.0);  // must be a no-op, not a crash
  }
  EXPECT_EQ(Tracer::instance().event_count(), 0u);
}

TEST(Trace, EnabledSpansExportChromeTraceJson) {
  TracerSandbox sandbox;
  Tracer& tracer = Tracer::instance();
  tracer.enable();
  {
    TraceSpan span("phase-a", "test");
    EXPECT_TRUE(span.armed());
    span.arg("items", 3.0);
  }
  { TraceSpan span("phase-b", "test"); }
  tracer.disable();
  EXPECT_EQ(tracer.event_count(), 2u);

  const JsonValue doc = parse_json(tracer.to_json());
  const std::vector<JsonValue>& events = doc.at("traceEvents").items();
  std::map<std::string, const JsonValue*> spans;
  for (const JsonValue& e : events) {
    if (e.at("ph").as_string() == "X") {
      spans[e.at("name").as_string()] = &e;
    }
  }
  ASSERT_EQ(spans.size(), 2u);
  const JsonValue& a = *spans.at("phase-a");
  EXPECT_EQ(a.at("cat").as_string(), "test");
  EXPECT_GE(a.at("dur").as_number(), 0.0);
  EXPECT_EQ(a.at("args").at("items").as_number(), 3.0);
  // Both spans ran on this (registered) thread.
  EXPECT_EQ(a.at("tid").as_number(),
            spans.at("phase-b")->at("tid").as_number());
}

TEST(Trace, PoolWorkersAreNamedAndAttributed) {
  TracerSandbox sandbox;
  Tracer& tracer = Tracer::instance();
  tracer.enable();
  const int main_tid = tracer.thread_id();
  {
    ThreadPool pool(3);  // spawns two workers ("sldm-w0", "sldm-w1")
    for (int i = 0; i < 8; ++i) {
      pool.submit([] { TraceSpan span("chunk", "test"); });
    }
    pool.wait();
  }
  tracer.disable();

  const JsonValue doc = parse_json(tracer.to_json());
  std::map<int, std::string> thread_names;
  std::set<int> span_tids;
  for (const JsonValue& e : doc.at("traceEvents").items()) {
    if (e.at("ph").as_string() == "M") {
      ASSERT_EQ(e.at("name").as_string(), "thread_name");
      thread_names[static_cast<int>(e.at("tid").as_number())] =
          e.at("args").at("name").as_string();
    } else {
      span_tids.insert(static_cast<int>(e.at("tid").as_number()));
    }
  }
  ASSERT_FALSE(span_tids.empty());
  for (const int tid : span_tids) {
    ASSERT_NE(thread_names.find(tid), thread_names.end())
        << "span on unregistered thread " << tid;
    if (tid != main_tid) {
      EXPECT_EQ(thread_names[tid].rfind("sldm-w", 0), 0u)
          << thread_names[tid];
    }
  }
}

TEST(Trace, ClearDropsEventsButKeepsThreadIds) {
  TracerSandbox sandbox;
  Tracer& tracer = Tracer::instance();
  const int tid = tracer.thread_id();
  tracer.enable();
  { TraceSpan span("x", "test"); }
  EXPECT_EQ(tracer.event_count(), 1u);
  tracer.clear();
  EXPECT_EQ(tracer.event_count(), 0u);
  EXPECT_EQ(tracer.thread_id(), tid);
}

/// The acceptance contract for `sldm time/eco --trace`: the file parses
/// as Chrome trace-event JSON and carries the engine's phase spans with
/// registered thread ids.
TEST(Trace, CliTraceFileRoundTripsWithEnginePhases) {
  TracerSandbox sandbox;
  TempFile sim("chain.sim", kChainSim);
  TempFile trace("trace.json");

  std::string out;
  ASSERT_EQ(run({"time", sim.path(), "--model", "rc-tree", "--trace",
                 trace.path()},
                &out),
            0);
  EXPECT_NE(out.find("wrote trace"), std::string::npos);

  const JsonValue doc = parse_json_file(trace.path());
  std::map<int, std::string> thread_names;
  std::set<std::string> span_names;
  // [ts, ts + dur] of every span, by name.
  std::map<std::string, std::vector<std::pair<double, double>>> intervals;
  for (const JsonValue& e : doc.at("traceEvents").items()) {
    if (e.at("ph").as_string() == "M") {
      thread_names[static_cast<int>(e.at("tid").as_number())] =
          e.at("args").at("name").as_string();
    } else {
      ASSERT_EQ(e.at("ph").as_string(), "X");
      span_names.insert(e.at("name").as_string());
      EXPECT_GE(e.at("dur").as_number(), 0.0);
      EXPECT_GE(e.at("ts").as_number(), 0.0);
      ASSERT_NE(
          thread_names.find(static_cast<int>(e.at("tid").as_number())),
          thread_names.end())
          << e.at("name").as_string() << " on unregistered thread";
      const double ts = e.at("ts").as_number();
      intervals[e.at("name").as_string()].emplace_back(
          ts, ts + e.at("dur").as_number());
    }
  }
  for (const char* phase : {"ccc-partition", "extract", "propagate"}) {
    EXPECT_NE(span_names.find(phase), span_names.end()) << phase;
  }
  // Extraction is one sequential pass: no per-chunk spans, no stitch.
  EXPECT_EQ(span_names.count("extract-chunk"), 0u);
  EXPECT_EQ(span_names.count("extract-stitch"), 0u);
  // The extract span's named children all run inside it.  Timestamps
  // are printed to the nanosecond, hence the slack.
  const auto inside_extract = [&](const std::pair<double, double>& span) {
    constexpr double kSlackUs = 0.01;
    for (const auto& [begin, end] : intervals["extract"]) {
      if (span.first >= begin - kSlackUs && span.second <= end + kSlackUs) {
        return true;
      }
    }
    return false;
  };
  for (const char* child :
       {"ccc-partition", "trigger-index", "levels", "build-store"}) {
    ASSERT_FALSE(intervals[child].empty()) << child;
    for (const auto& span : intervals[child]) {
      EXPECT_TRUE(inside_extract(span)) << child << " outside extract";
    }
  }
  // The capture is scoped to the traced analysis: no stale spans from
  // other tests, and the file ends the capture.
  EXPECT_FALSE(Tracer::instance().enabled());
}

// In-process calibration (the default slope model with no --tables) is
// one `calibrate` span, and every analog elaboration it runs lies
// inside it.
TEST(Trace, CalibrationIsOneSpanAroundItsElaborations) {
  TracerSandbox sandbox;
  TempFile trace("calibrate_trace.json");
  ASSERT_EQ(run({"time",
                 std::string(SLDM_SOURCE_DIR) + "/testdata/sample_datapath.sim",
                 "--trace", trace.path()},
                nullptr),
            0);
  const JsonValue doc = parse_json_file(trace.path());
  std::vector<std::pair<double, double>> calib_spans;
  std::vector<std::pair<double, double>> elab_spans;
  for (const JsonValue& e : doc.at("traceEvents").items()) {
    if (e.at("ph").as_string() != "X") continue;
    const double ts = e.at("ts").as_number();
    const std::pair<double, double> span{ts, ts + e.at("dur").as_number()};
    if (e.at("name").as_string() == "calibrate") {
      EXPECT_EQ(e.at("cat").as_string(), "calib");
      calib_spans.push_back(span);
    }
    if (e.at("name").as_string() == "elaborate") elab_spans.push_back(span);
  }
  ASSERT_EQ(calib_spans.size(), 1u);
  ASSERT_FALSE(elab_spans.empty());
  constexpr double kSlackUs = 0.01;  // timestamps print to the nanosecond
  for (const auto& [begin, end] : elab_spans) {
    EXPECT_GE(begin, calib_spans[0].first - kSlackUs);
    EXPECT_LE(end, calib_spans[0].second + kSlackUs);
  }
}

/// The span names of a traced `sldm eco` run of `script` on the chain,
/// appending to a run ledger when `ledger` is set.
std::set<std::string> eco_span_names(const std::string& tag,
                                     const std::string& script,
                                     bool ledger = false) {
  TempFile sim(tag + ".sim", kChainSim);
  TempFile eco(tag + ".eco", script);
  TempFile trace(tag + "_trace.json");
  TempFile ledger_file(tag + "_ledger.jsonl");
  std::vector<std::string> args = {"eco",     sim.path(), eco.path(),
                                   "--model", "rc-tree",  "--trace",
                                   trace.path()};
  if (ledger) {
    args.push_back("--ledger");
    args.push_back(ledger_file.path());
  }
  std::string out;
  EXPECT_EQ(run(args, &out), 0);
  const JsonValue doc = parse_json_file(trace.path());
  std::set<std::string> span_names;
  for (const JsonValue& e : doc.at("traceEvents").items()) {
    if (e.at("ph").as_string() == "X") {
      span_names.insert(e.at("name").as_string());
    }
  }
  return span_names;
}

TEST(Trace, CliEcoTraceCarriesUpdatePhases) {
  TracerSandbox sandbox;
  // Sizes and capacitances keep every stage path: the dirty stages are
  // re-baked in place, with no re-extraction and no splice.
  const std::set<std::string> parametric = eco_span_names(
      "eco_param", "width in gnd s1 16\ncap s1 25\naddcap out 3\n");
  for (const char* phase : {"update", "update-partition", "update-rebake",
                            "update-invalidate", "update-propagate"}) {
    EXPECT_NE(parametric.find(phase), parametric.end()) << phase;
  }
  for (const char* phase : {"update-extract", "update-splice"}) {
    EXPECT_EQ(parametric.find(phase), parametric.end()) << phase;
  }

  // A new device may change paths: re-extract and splice instead.  The
  // ledger record's design fingerprint is traced too.
  const std::set<std::string> structural = eco_span_names(
      "eco_struct", "transistor e in gnd out 4 8\n", /*ledger=*/true);
  for (const char* phase :
       {"update", "update-partition", "update-extract", "update-splice",
        "update-invalidate", "update-propagate", "fingerprint"}) {
    EXPECT_NE(structural.find(phase), structural.end()) << phase;
  }
  EXPECT_EQ(structural.find("update-rebake"), structural.end());
}

// ---------------------------------------------------------------------
// Explain traces.

/// Acceptance criterion: on every generator circuit, the per-stage
/// delays reported by explain_arrival() sum to the committed arrival
/// within 1e-9 s (they are in fact bit-identical re-evaluations).
TEST(Explain, StageDelaysSumToArrivalOnEveryGenerator) {
  const RcTreeModel model;
  for (const GeneratedCircuit& g : generator_suite()) {
    TimingAnalyzer an(g.netlist, tech_for(g), model);
    an.add_input_event(g.input, Transition::kRise, 0.0, 1e-9);
    an.run();

    // Check the worst arrival and every output the circuit declares.
    std::vector<std::pair<NodeId, Transition>> targets;
    const auto worst = an.worst_arrival(/*outputs_only=*/false);
    ASSERT_TRUE(worst.has_value()) << g.name;
    targets.emplace_back(worst->node, worst->dir);
    for (NodeId n : g.netlist.all_nodes()) {
      if (!g.netlist.node(n).is_output) continue;
      for (Transition dir : {Transition::kRise, Transition::kFall}) {
        if (an.arrival(n, dir)) targets.emplace_back(n, dir);
      }
    }

    for (const auto& [node, dir] : targets) {
      const ExplainReport report = explain_arrival(an, node, dir);
      ASSERT_FALSE(report.steps.empty()) << g.name;
      EXPECT_TRUE(report.steps.front().is_seed) << g.name;
      Seconds sum = 0.0;
      for (const ExplainStep& step : report.steps) {
        sum += step.is_seed ? step.arrival : step.delay;
      }
      EXPECT_NEAR(sum, report.arrival, 1e-9)
          << g.name << ' ' << g.netlist.node(node).name << ' '
          << to_string(dir);
      // Each step's audited estimate matches the committed arrival
      // delta exactly (same model, same inputs, same arithmetic).
      for (std::size_t i = 1; i < report.steps.size(); ++i) {
        const ExplainStep& step = report.steps[i];
        EXPECT_EQ(step.audit.estimate.output_slope, step.slope)
            << g.name << " step " << i;
        EXPECT_EQ(step.audit.model, model.name()) << g.name;
      }
    }
  }
}

/// One case per delay model: every audited step's generic fields are
/// the store caches of the stage that committed the arrival, and the
/// audit is priced with the committed predecessor slope.
class ExplainAudit : public ::testing::TestWithParam<const char*> {
 protected:
  static std::unique_ptr<DelayModel> make(const std::string& name) {
    if (name == "lumped-rc") return std::make_unique<LumpedRcModel>();
    if (name == "rc-tree") return std::make_unique<RcTreeModel>();
    if (name == "slope") {
      return std::make_unique<SlopeModel>(SlopeTables::unit());
    }
    if (name == "rph-upper") {
      return std::make_unique<RphBoundsModel>(RphBoundsModel::Mode::kUpper);
    }
    if (name == "rph-lower") {
      return std::make_unique<RphBoundsModel>(RphBoundsModel::Mode::kLower);
    }
    return std::make_unique<UnitDelayModel>(1e-9);
  }
};

TEST_P(ExplainAudit, GenericFieldsAreStoreCachesOfViaStage) {
  const std::unique_ptr<DelayModel> model = make(GetParam());
  ASSERT_EQ(model->name(), GetParam());
  const GeneratedCircuit g = random_logic(Style::kCmos, 6, 10, 0xABCD);
  TimingAnalyzer an(g.netlist, tech_for(g), *model);
  an.add_all_input_events(1e-9);
  an.run();
  const auto worst = an.worst_arrival(/*outputs_only=*/false);
  ASSERT_TRUE(worst.has_value());
  const ExplainReport report = explain_arrival(an, worst->node, worst->dir);
  ASSERT_GT(report.steps.size(), 1u);
  const StageStore& store = an.stage_store();
  for (const ExplainStep& step : report.steps) {
    if (step.is_seed) continue;
    const ArrivalInfo info = *an.arrival(step.node, step.dir);
    const auto id = static_cast<StageStore::StageId>(info.via_stage);
    const DelayAudit& a = step.audit;
    EXPECT_EQ(a.model, model->name());
    EXPECT_EQ(a.total_resistance, store.total_resistance(id));
    EXPECT_EQ(a.total_cap, store.total_cap(id));
    EXPECT_EQ(a.destination_cap, store.destination_cap(id));
    EXPECT_EQ(a.elmore, store.elmore(id));
    EXPECT_EQ(a.path_devices, store.length(id));
    EXPECT_EQ(a.input_slope, an.arrival(info.from_node, info.from_dir)->slope);
    EXPECT_EQ(a.estimate.output_slope, info.slope);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ExplainAudit,
    ::testing::Values("lumped-rc", "rc-tree", "slope", "rph-upper",
                      "rph-lower", "unit-delay"),
    [](const ::testing::TestParamInfo<const char*>& param) {
      std::string name = param.param;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(Explain, ReportsSeedAndAuditTermsForSlopeModel) {
  TempFile sim("explain_chain.sim", kChainSim);
  std::string out;
  ASSERT_EQ(run({"explain", sim.path(), "out", "--model", "slope"}, &out),
            0);
  EXPECT_NE(out.find("explain: out"), std::string::npos);
  EXPECT_NE(out.find("<- input"), std::string::npos);
  EXPECT_NE(out.find("rho"), std::string::npos);
  EXPECT_NE(out.find("sum of stage delays"), std::string::npos);
}

TEST(Explain, JsonBreakdownRoundTripsAndSums) {
  TempFile sim("explain_json.sim", kChainSim);
  std::string out;
  ASSERT_EQ(run({"explain", sim.path(), "out", "--model", "rc-tree",
                 "--json"},
                &out),
            0);
  const JsonValue doc = parse_json(out);
  EXPECT_EQ(doc.at("node").as_string(), "out");
  const double arrival = doc.at("arrival_s").as_number();
  double sum = 0.0;
  for (const JsonValue& step : doc.at("steps").items()) {
    if (step.at("seed").as_bool()) {
      sum += step.at("arrival_s").as_number();
      EXPECT_EQ(step.find("audit"), nullptr);
    } else {
      sum += step.at("delay_s").as_number();
      const JsonValue& audit = step.at("audit");
      EXPECT_GT(audit.at("r_total_ohm").as_number(), 0.0);
      EXPECT_GT(audit.at("c_total_f").as_number(), 0.0);
      EXPECT_EQ(audit.at("model").as_string(), "rc-tree");
    }
  }
  EXPECT_NEAR(sum, arrival, 1e-9);
}

TEST(Explain, UnknownNodeIsAnalysisError) {
  TempFile sim("explain_bad.sim", kChainSim);
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(run_cli({"explain", sim.path(), "nope"}, out, err), 1);
  EXPECT_NE(err.str().find("error:"), std::string::npos);
}

// ---------------------------------------------------------------------
// Stats JSON: the CLI's --stats --json object embeds the registry.

TEST(StatsJson, EmbedsMetricsRegistry) {
  TempFile sim("statsjson.sim", kChainSim);
  std::string out;
  ASSERT_EQ(
      run({"time", sim.path(), "--model", "rc-tree", "--stats", "--json"},
          &out),
      0);
  // The JSON object is one line of the report; pick it out.
  std::string json_line;
  std::istringstream lines(out);
  for (std::string line; std::getline(lines, line);) {
    if (!line.empty() && line.front() == '{') json_line = line;
  }
  ASSERT_FALSE(json_line.empty()) << out;
  const JsonValue doc = parse_json(json_line);
  EXPECT_GE(doc.at("stage_count").as_number(), 1.0);
  const JsonValue& metrics = doc.at("metrics");
  EXPECT_EQ(
      metrics.at("counters").at("propagate.stage_evaluations").as_number(),
      doc.at("stage_evaluations").as_number());
  EXPECT_EQ(metrics.at("gauges").at("extract.seconds").as_number(),
            doc.at("extract_seconds").as_number());
  ASSERT_NE(metrics.at("histograms").find("extract.stage_fan_in"), nullptr);
}

/// FORMATS.md section 6 after an ECO: the scalar members come in the
/// documented order, and each one that the registry also names carries
/// the same value there.  The structural edit dirties one component and
/// keeps the other, so every ECO field is non-zero.
TEST(StatsJson, EcoScalarsFollowTheDocumentedOrderAndTheRegistry) {
  TempFile sim("statsjson_eco.sim", kChainSim);
  TempFile eco("statsjson_eco.eco", "transistor e in gnd out 4 8\n");
  std::string out;
  ASSERT_EQ(run({"eco", sim.path(), eco.path(), "--model", "rc-tree",
                 "--stats", "--json"},
                &out),
            0);
  std::string json_line;
  std::istringstream lines(out);
  for (std::string line; std::getline(lines, line);) {
    if (!line.empty() && line.front() == '{') json_line = line;
  }
  ASSERT_FALSE(json_line.empty()) << out;
  const JsonValue doc = parse_json(json_line);

  const std::vector<std::string> documented = {
      "ccc_count",         "widest_ccc",      "stage_count",
      "stage_evaluations", "keys_priced",     "arrival_updates",
      "batches",           "mean_batch_size", "max_batch_size",
      "extract_seconds",   "propagate_seconds",
      "incremental_updates", "dirty_cccs",    "reextracted_stages",
      "reused_stages",     "frontier_keys",   "update_seconds",
      "metrics"};
  std::vector<std::string> keys;
  for (const auto& [key, value] : doc.members()) keys.push_back(key);
  EXPECT_EQ(keys, documented);

  const JsonValue& metrics = doc.at("metrics");
  const std::vector<std::pair<std::string, std::string>> counters = {
      {"stage_evaluations", "propagate.stage_evaluations"},
      {"keys_priced", "propagate.keys_priced"},
      {"arrival_updates", "propagate.arrival_updates"},
      {"batches", "propagate.batches"},
      {"incremental_updates", "eco.updates"}};
  for (const auto& [field, name] : counters) {
    EXPECT_EQ(doc.at(field).as_number(),
              metrics.at("counters").at(name).as_number())
        << field;
  }
  const std::vector<std::pair<std::string, std::string>> gauges = {
      {"max_batch_size", "propagate.max_batch_size"},
      {"dirty_cccs", "eco.dirty_cccs"},
      {"reextracted_stages", "eco.reextracted_stages"},
      {"reused_stages", "eco.reused_stages"},
      {"frontier_keys", "eco.frontier_keys"},
      {"extract_seconds", "extract.seconds"},
      {"propagate_seconds", "propagate.seconds"},
      {"update_seconds", "eco.update_seconds"}};
  for (const auto& [field, name] : gauges) {
    EXPECT_EQ(doc.at(field).as_number(),
              metrics.at("gauges").at(name).as_number())
        << field;
  }
  EXPECT_EQ(doc.at("incremental_updates").as_number(), 1.0);
  for (const char* field :
       {"dirty_cccs", "reextracted_stages", "reused_stages", "frontier_keys",
        "stage_evaluations", "batches", "max_batch_size"}) {
    EXPECT_GT(doc.at(field).as_number(), 0.0) << field;
  }
}

}  // namespace
}  // namespace sldm

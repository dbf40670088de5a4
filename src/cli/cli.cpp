#include "cli/cli.h"

#include <climits>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <set>
#include <sstream>

#include "analog/elaborate.h"
#include "analog/export.h"
#include "analog/transient.h"
#include "calib/calibrate.h"
#include "delay/slope.h"
#include "design/compiled_design.h"
#include "design/snapshot.h"
#include "fuzz/fuzz.h"
#include "gen/generators.h"
#include "netlist/checks.h"
#include "netlist/eco_io.h"
#include "netlist/sim_io.h"
#include "netlist/stats.h"
#include "serve/server.h"
#include "serve/service.h"
#include "tech/tech_io.h"
#include "timing/analyzer.h"
#include "timing/charge_sharing.h"
#include "timing/constraints.h"
#include "timing/explain.h"
#include "timing/report.h"
#include "timing/slack.h"
#include "util/contracts.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/json.h"
#include "util/ledger.h"
#include "util/strings.h"
#include "util/telemetry.h"
#include "util/text_table.h"
#include "util/trace.h"
#include "util/version.h"

namespace sldm {
namespace {

/// Bad invocation (wrong arguments), as opposed to analysis failures.
class UsageError : public Error {
 public:
  using Error::Error;
};

/// Boolean options (present/absent, no value token follows).
const std::set<std::string> kFlagOptions = {"stats", "json", "verify"};

/// Parsed --key value options, --flag switches, and positional
/// arguments.
struct Options {
  std::vector<std::string> positional;
  std::map<std::string, std::string> values;
  std::set<std::string> flags;

  std::optional<std::string> get(const std::string& key) const {
    const auto it = values.find(key);
    if (it == values.end()) return std::nullopt;
    return it->second;
  }
  bool flag(const std::string& key) const { return flags.count(key) > 0; }
};

Options parse_options(const std::vector<std::string>& args,
                      std::size_t first) {
  Options out;
  for (std::size_t i = first; i < args.size(); ++i) {
    if (args[i] == "-o") {  // short form of --out
      if (i + 1 >= args.size()) throw UsageError("option -o needs a value");
      out.values["out"] = args[++i];
      continue;
    }
    if (starts_with(args[i], "--")) {
      const std::string key = args[i].substr(2);
      if (kFlagOptions.count(key) > 0) {
        out.flags.insert(key);
        continue;
      }
      if (i + 1 >= args.size()) {
        throw UsageError("option --" + key + " needs a value");
      }
      out.values[key] = args[++i];
    } else {
      out.positional.push_back(args[i]);
    }
  }
  return out;
}

/// Loads --tech (default nmos): a preset name or a .tech file path.
Tech load_tech(const Options& opts) {
  return read_tech_spec(opts.get("tech").value_or("nmos"));
}

/// Builds the requested delay model; calibrates if the slope model is
/// requested without a tables file.  `tech` may be updated by
/// calibration.
std::unique_ptr<DelayModel> make_model(const Options& opts, Tech& tech,
                                       std::ostream& err) {
  const std::string name = opts.get("model").value_or("slope");
  if (auto model = make_closed_form_model(name)) return model;
  if (name != "slope") throw Error("unknown model '" + name + "'");
  if (const auto tables = opts.get("tables")) {
    return std::make_unique<SlopeModel>(SlopeTables::read_file(*tables));
  }
  err << "(no --tables given; calibrating " << tech.name()
      << " in-process)\n";
  CalibrationResult cal = calibrate(tech, style_for(tech));
  tech = cal.tech;
  return std::make_unique<SlopeModel>(std::move(cal.tables));
}

/// `--prom <file|->`: renders the whole telemetry hub in Prometheus
/// text exposition (FORMATS.md section 13) to the file, or to stdout
/// for "-".
void write_prometheus(const Options& opts, std::ostream& out) {
  const auto dest = opts.get("prom");
  if (!dest) return;
  const std::string text = TelemetryHub::instance().to_prometheus();
  if (*dest == "-") {
    out << text;
    return;
  }
  std::ofstream file(*dest);
  if (!file) throw Error("cannot open " + *dest + " for writing");
  file << text;
  if (!file) throw Error("short write to " + *dest);
  out << "wrote " << *dest << '\n';
}

int cmd_check(const Options& opts, std::ostream& out, std::ostream&) {
  if (opts.positional.size() != 1) throw UsageError("usage: check <file.sim>");
  const Netlist nl = read_sim_file(opts.positional[0]);
  const auto ds = check(nl);
  out << to_string(nl, ds);
  out << (all_ok(ds) ? "ok" : "errors found") << '\n';
  return all_ok(ds) ? 0 : 1;
}

int cmd_stats(const Options& opts, std::ostream& out, std::ostream&) {
  if (opts.positional.empty()) {
    // No netlist: render the process-wide telemetry hub instead (the
    // in-process embedding surface -- a host that ran analyses through
    // run_cli or the library reads them all back here).
    const TelemetryHub& hub = TelemetryHub::instance();
    if (opts.get("prom")) {
      write_prometheus(opts, out);
    } else if (opts.flag("json")) {
      out << hub.aggregate().to_json() << '\n';
    } else {
      out << hub.to_string();
    }
    return 0;
  }
  if (opts.positional.size() != 1) {
    throw UsageError(
        "usage: stats <file.sim>  (netlist census)\n"
        "       stats [--json | --prom <file|->]  (telemetry hub)");
  }
  const Netlist nl = read_sim_file(opts.positional[0]);
  out << to_string(compute_stats(nl));
  return 0;
}

/// Scoped span capture for --trace <out.json>: enables the process
/// tracer for the command's lifetime and writes the Chrome trace-event
/// file on write() (the destructor only disables, so a command that
/// throws leaves no half-written file behind).
class TraceCapture {
 public:
  explicit TraceCapture(std::optional<std::string> path)
      : path_(std::move(path)) {
    if (path_) {
      Tracer::instance().clear();
      Tracer::instance().enable();
    }
  }
  ~TraceCapture() {
    if (path_) Tracer::instance().disable();
  }

  /// Stops collecting, writes the file, and reports it.
  void write(std::ostream& out) {
    if (!path_) return;
    Tracer::instance().disable();
    Tracer::instance().write_file(*path_);
    out << "wrote trace " << *path_ << " ("
        << Tracer::instance().event_count() << " spans)\n";
    path_.reset();
  }

 private:
  std::optional<std::string> path_;
};

/// Scoped run-ledger append (`--ledger <file>` or SLDM_LEDGER,
/// FORMATS.md section 12): the command fills record() as results become
/// known and the destructor appends exactly one line -- with the
/// default outcome "error" unless complete() ran, so aborted analyses
/// still leave a trace.  Inactive (and free) when neither source names
/// a path.
class LedgerScope {
 public:
  LedgerScope(const Options& opts, const char* kind) {
    std::optional<std::string> path = opts.get("ledger");
    if (!path) {
      if (const char* env = std::getenv("SLDM_LEDGER");
          env != nullptr && *env != '\0') {
        path = std::string(env);
      }
    }
    if (!path) return;
    path_ = std::move(path);
    record_.kind = kind;
    record_.version = sldm_version();
    record_.outcome = "error";
  }
  ~LedgerScope() {
    if (!path_) return;
    // Best-effort by design: a failing ledger append must not turn a
    // finished analysis into an error exit -- but it is surfaced
    // (ledger.append_failures counter, one stderr warning) instead of
    // silently losing history.
    try_append_ledger_record(*path_, record_);
  }
  LedgerScope(const LedgerScope&) = delete;
  LedgerScope& operator=(const LedgerScope&) = delete;

  bool active() const { return path_.has_value(); }
  LedgerRecord& record() { return record_; }
  void complete(const char* outcome) { record_.outcome = outcome; }

 private:
  std::optional<std::string> path_;
  LedgerRecord record_;
};

/// Seeds input events from --constraints or --slope-ns (both commands
/// share the convention).  Returns the constraints for slack reporting.
Constraints seed_events(const Options& opts, const Netlist& nl,
                        Session& session) {
  Constraints constraints;
  if (const auto ct = opts.get("constraints")) {
    constraints = read_constraints_file(*ct);
    constraints.apply(nl, session);
  } else {
    const auto slope_opt = opts.get("slope-ns");
    double slope_ns = 1.0;
    if (slope_opt) {
      const auto v = parse_finite_double(*slope_opt);
      if (!v || *v < 0.0) throw Error("bad --slope-ns value");
      slope_ns = *v;
    }
    session.add_all_input_events(slope_ns * 1e-9);
  }
  return constraints;
}

/// With --load, an explicit --tech must agree with the technology the
/// snapshot was compiled against; anything else would silently analyze
/// under parameters the baked caches don't reflect.
void check_tech_override(const Options& opts, const CompiledDesign& design,
                         const std::string& load_path) {
  if (!opts.get("tech")) return;
  const Tech requested = load_tech(opts);
  if (tech_fingerprint(requested) != design.fingerprint()) {
    throw Error("--tech '" + *opts.get("tech") +
                "' does not match the technology compiled into " +
                load_path + "; drop the option or recompile the snapshot");
  }
}

/// Everything a timing command runs over, built from either a .sim
/// positional (compile in-process, analyzer borrows the locals here)
/// or a --load snapshot (analyzer adopts the restored design; an
/// embedded calibration is reused instead of recalibrating).
struct AnalysisSetup {
  std::unique_ptr<Netlist> nl;    // direct path only
  std::unique_ptr<Tech> tech;     // direct path only
  std::unique_ptr<DelayModel> model;
  std::unique_ptr<TimingAnalyzer> analyzer;

  const Netlist& netlist() const { return analyzer->netlist(); }
};

AnalysisSetup open_analysis(const Options& opts, const char* usage_msg,
                            std::size_t extra_positionals,
                            std::ostream& err) {
  AnalysisSetup s;
  const auto load = opts.get("load");
  if (opts.positional.size() != extra_positionals + (load ? 0u : 1u)) {
    throw UsageError(usage_msg);
  }
  if (load) {
    LoadedDesign loaded = load_design_file(*load);
    check_tech_override(opts, *loaded.design, *load);
    const std::string model_name = opts.get("model").value_or("slope");
    if (model_name == "slope" && !opts.get("tables")) {
      if (!loaded.slope_tables) {
        throw Error("snapshot " + *load +
                    " carries no calibration tables; pass --tables or "
                    "recompile it with `sldm compile`");
      }
      s.model =
          std::make_unique<SlopeModel>(std::move(*loaded.slope_tables));
    } else {
      // Every remaining model choice leaves the tech untouched, so the
      // scratch copy never diverges from the design's baked one.
      Tech scratch = loaded.design->tech();
      s.model = make_model(opts, scratch, err);
    }
    s.analyzer =
        std::make_unique<TimingAnalyzer>(std::move(loaded.design), *s.model);
  } else {
    s.nl = std::make_unique<Netlist>(read_sim_file(opts.positional[0]));
    s.tech = std::make_unique<Tech>(load_tech(opts));
    s.model = make_model(opts, *s.tech, err);
    s.analyzer = std::make_unique<TimingAnalyzer>(*s.nl, *s.tech, *s.model);
  }
  return s;
}

/// Fills a ledger record from a finished analysis: input identity
/// (path + design fingerprint), model, phase timings, and the worst
/// output arrival.  Commands call it before writing --trace, so the
/// fingerprint's span lands in the trace.
void note_analysis(LedgerScope& ledger, const Options& opts,
                   const AnalysisSetup& s) {
  if (!ledger.active()) return;
  LedgerRecord& r = ledger.record();
  r.source = opts.get("load").value_or(
      opts.positional.empty() ? std::string() : opts.positional[0]);
  r.model = s.model->name();
  const Session& session = *s.analyzer;
  r.fingerprint = design_fingerprint(session.netlist(), session.tech());
  const AnalyzerStats& stats = session.stats();
  r.extract_seconds = stats.extract_seconds;
  r.propagate_seconds = stats.propagate_seconds;
  r.update_seconds = stats.update_seconds;
  r.stage_evaluations = stats.stage_evaluations;
  if (const auto worst = session.worst_arrival(true)) {
    r.has_critical = true;
    r.critical_node = session.netlist().node(worst->node).name.str();
    r.critical_dir = to_string(worst->dir);
    r.critical_arrival_s = worst->time;
  }
}

void emit_stats(const Options& opts, const Netlist& nl,
                const Session& session, std::ostream& out) {
  if (!opts.flag("stats") && !opts.flag("json")) return;
  if (opts.flag("json")) {
    out << analyzer_stats_json(session) << '\n';
  } else {
    out << format_analyzer_stats(nl, session) << '\n';
  }
}

int cmd_time(const Options& opts, std::ostream& out, std::ostream& err) {
  TelemetryHub::instance().enable();
  LedgerScope ledger(opts, "run");
  TraceCapture trace(opts.get("trace"));
  const AnalysisSetup s = open_analysis(
      opts, "usage: time <file.sim> | time --load <design.sldc> [options]",
      0, err);
  const Netlist& nl = s.netlist();
  TimingAnalyzer& analyzer = *s.analyzer;
  const DelayModel& model = *s.model;
  const Constraints constraints = seed_events(opts, nl, analyzer);
  analyzer.run();
  note_analysis(ledger, opts, s);
  trace.write(out);

  out << "model: " << model.name() << "\n\n"
      << format_output_arrivals(nl, analyzer) << '\n';
  emit_stats(opts, nl, analyzer, out);
  ledger.complete("ok");
  write_prometheus(opts, out);
  if (constraints.required) {
    const SlackReport slack =
        compute_slack(nl, analyzer, *constraints.required);
    out << format_slack(nl, analyzer, slack) << '\n';
    if (!slack.violations().empty()) {
      ledger.complete("violations");
      return 1;
    }
  }
  if (const auto k_opt = opts.get("paths")) {
    const auto k = parse_long(*k_opt);
    if (!k || *k < 1) throw Error("bad --paths value");
    if (const auto worst = analyzer.worst_arrival(true)) {
      const auto paths = analyzer.k_worst_paths(
          worst->node, worst->dir, static_cast<std::size_t>(*k));
      out << paths.size() << " worst path(s):\n";
      for (const auto& p : paths) {
        out << format("arrival %.3f ns:\n", to_ns(p.arrival))
            << format_path(nl, p.steps) << '\n';
      }
    }
  }
  return 0;
}

int cmd_explain(const Options& opts, std::ostream& out, std::ostream& err) {
  const AnalysisSetup s = open_analysis(
      opts,
      "usage: explain <file.sim>|--load <design.sldc> <node> "
      "[--dir rise|fall] [--json]",
      1, err);
  const Netlist& nl = s.netlist();
  TimingAnalyzer& analyzer = *s.analyzer;
  seed_events(opts, nl, analyzer);
  analyzer.run();

  const std::string& node_name = opts.positional.back();
  const auto node = nl.find_node(node_name);
  if (!node) throw Error("unknown node '" + node_name + "'");
  std::optional<Transition> dir;
  if (const auto d = opts.get("dir")) {
    if (*d == "rise") {
      dir = Transition::kRise;
    } else if (*d == "fall") {
      dir = Transition::kFall;
    } else {
      throw UsageError("bad --dir value '" + *d + "' (want rise|fall)");
    }
  } else {
    // Default to the later (worst) of the node's two arrivals.
    const auto rise = analyzer.arrival(*node, Transition::kRise);
    const auto fall = analyzer.arrival(*node, Transition::kFall);
    if (!rise && !fall) {
      throw Error("no arrival at node '" + node_name +
                  "'; it never switches under the declared events");
    }
    dir = (!fall || (rise && rise->time >= fall->time)) ? Transition::kRise
                                                        : Transition::kFall;
  }

  const ExplainReport report = explain_arrival(analyzer, *node, *dir);
  if (opts.flag("json")) {
    out << explain_json(nl, report) << '\n';
  } else {
    out << format_explain(nl, report);
  }
  return 0;
}

int cmd_eco(const Options& opts, std::ostream& out, std::ostream& err) {
  TelemetryHub::instance().enable();
  LedgerScope ledger(opts, "eco");
  TraceCapture trace(opts.get("trace"));
  const AnalysisSetup s = open_analysis(
      opts,
      "usage: eco <file.sim>|--load <design.sldc> <file.eco> [options]",
      1, err);
  TimingAnalyzer& analyzer = *s.analyzer;
  const DelayModel& model = *s.model;
  // The ECO edit surface: the caller-owned netlist on the direct path,
  // the design-owned one after --load.
  Netlist& nl = s.nl ? *s.nl : analyzer.mutable_netlist();
  const Tech& tech = s.tech ? *s.tech : analyzer.tech();
  seed_events(opts, nl, analyzer);
  analyzer.run();
  out << "model: " << model.name() << "\n\nbaseline:\n"
      << format_output_arrivals(nl, analyzer) << '\n';

  const std::size_t applied = apply_eco_file(opts.positional.back(), nl);
  analyzer.update();
  note_analysis(ledger, opts, s);
  trace.write(out);
  out << "applied " << applied << " edit(s); incremental re-timing:\n"
      << format_output_arrivals(nl, analyzer) << '\n';
  emit_stats(opts, nl, analyzer, out);
  ledger.complete("ok");
  write_prometheus(opts, out);

  if (opts.flag("verify")) {
    TimingAnalyzer fresh(nl, tech, model);
    seed_events(opts, nl, fresh);
    fresh.run();
    std::size_t mismatches = 0;
    for (NodeId n : nl.all_nodes()) {
      for (Transition dir : {Transition::kRise, Transition::kFall}) {
        const auto a = analyzer.arrival(n, dir);
        const auto b = fresh.arrival(n, dir);
        const bool same =
            a.has_value() == b.has_value() &&
            (!a || (a->time == b->time && a->slope == b->slope &&
                    a->from_node == b->from_node &&
                    a->from_dir == b->from_dir &&
                    a->via_stage == b->via_stage));
        if (!same) {
          ++mismatches;
          err << "verify mismatch at " << nl.node(n).name << ' '
              << to_string(dir) << '\n';
        }
      }
    }
    if (mismatches > 0) {
      err << "verify FAILED: " << mismatches
          << " arrival(s) differ from a full rebuild\n";
      ledger.complete("mismatch");
      return 1;
    }
    out << "verify: incremental update is bit-identical to a full "
           "rebuild\n";
  }
  if (const auto path = opts.get("write")) {
    write_sim_file(nl, *path);
    out << "wrote " << *path << '\n';
  }
  return 0;
}

int cmd_chargeshare(const Options& opts, std::ostream& out, std::ostream&) {
  if (opts.positional.size() != 1) {
    throw UsageError("usage: chargeshare <file.sim> [--tech ...]");
  }
  const Netlist nl = read_sim_file(opts.positional[0]);
  const Tech tech = load_tech(opts);
  const auto results = analyze_all_charge_sharing(nl, tech);
  if (results.empty()) {
    out << "no precharged nodes\n";
    return 0;
  }
  out << format_charge_sharing(nl, results, tech.v_switch());
  for (const auto& r : results) {
    if (r.fails(tech.v_switch())) return 1;
  }
  return 0;
}

int cmd_sim(const Options& opts, std::ostream& out, std::ostream&) {
  const auto load = opts.get("load");
  if (opts.positional.size() != (load ? 0u : 1u)) {
    throw UsageError(
        "usage: sim <file.sim> | sim --load <design.sldc> [options]");
  }
  std::optional<LoadedDesign> loaded;
  std::optional<Netlist> parsed;
  if (load) {
    loaded = load_design_file(*load);
    check_tech_override(opts, *loaded->design, *load);
  } else {
    parsed = read_sim_file(opts.positional[0]);
  }
  const Netlist& nl = load ? loaded->design->netlist() : *parsed;
  const Tech tech = load ? loaded->design->tech() : load_tech(opts);

  // Stimuli: constraints file if given, otherwise every input rises at
  // 2 ns with a 1 ns edge.
  std::vector<Stimulus> stimuli;
  if (const auto ct = opts.get("constraints")) {
    const Constraints constraints = read_constraints_file(*ct);
    for (const InputConstraint& c : constraints.inputs) {
      const auto node = nl.find_node(c.node);
      if (!node) throw Error("constraint names unknown node " + c.node);
      const bool rising = !c.dir || *c.dir == Transition::kRise;
      stimuli.push_back(
          {*node, PwlSource::edge(rising ? 0.0 : tech.vdd(),
                                  rising ? tech.vdd() : 0.0,
                                  2e-9 + c.time,
                                  std::max(c.slope, 1e-12))});
    }
  } else {
    for (NodeId n : nl.all_nodes()) {
      if (nl.node(n).is_input) {
        stimuli.push_back(
            {n, PwlSource::edge(0.0, tech.vdd(), 2e-9, 1e-9)});
      }
    }
  }

  const Elaboration elab = elaborate(nl, tech, stimuli);
  TransientOptions topt;
  double tstop_ns = 40.0;
  if (const auto t = opts.get("tstop-ns")) {
    const auto v = parse_finite_double(*t);
    if (!v || *v <= 0.0) throw Error("bad --tstop-ns value");
    tstop_ns = *v;
  }
  topt.t_stop = tstop_ns * 1e-9;
  elab.apply_precharge(nl, tech.vdd(), topt);
  const TransientResult result = simulate(elab.circuit(), topt);

  // Export watched nodes: inputs + outputs + precharged.
  std::vector<WaveformColumn> columns;
  for (NodeId n : nl.all_nodes()) {
    const Node& info = nl.node(n);
    if (info.is_input || info.is_output || info.is_precharged) {
      columns.push_back({info.name.str(), &result.at(elab.analog(n))});
    }
  }
  if (const auto csv = opts.get("csv")) {
    write_waveforms_csv_file(columns, *csv);
    out << "wrote " << *csv << '\n';
  }
  if (const auto vcd = opts.get("vcd")) {
    write_waveforms_vcd_file(columns, tech.vdd(), *vcd);
    out << "wrote " << *vcd << '\n';
  }
  out << format("simulated %.1f ns: %zu steps, %zu newton iterations\n",
                tstop_ns, result.accepted_steps, result.newton_iterations);
  // Final levels of the outputs.
  for (NodeId n : nl.all_nodes()) {
    if (!nl.node(n).is_output) continue;
    const Waveform& w = result.at(elab.analog(n));
    out << format("%s settles at %.2f V\n", nl.node(n).name.c_str(),
                  w.value(w.size() - 1));
  }
  return 0;
}

int cmd_calibrate(const Options& opts, std::ostream& out, std::ostream&) {
  if (opts.positional.size() != 1 ||
      (opts.positional[0] != "nmos" && opts.positional[0] != "cmos")) {
    throw UsageError("usage: calibrate nmos|cmos --out <prefix>");
  }
  const auto prefix = opts.get("out");
  if (!prefix) throw UsageError("calibrate needs --out <prefix>");
  const bool is_nmos = opts.positional[0] == "nmos";
  const Tech base = is_nmos ? nmos4() : cmos3();
  const CalibrationResult result =
      calibrate(base, is_nmos ? Style::kNmos : Style::kCmos);
  const std::string tech_path = *prefix + ".tech";
  const std::string table_path = *prefix + ".slopes";
  write_tech_file(result.tech, tech_path);
  result.tables.write_file(table_path);
  out << "wrote " << tech_path << " and " << table_path << '\n';
  return 0;
}

int cmd_fuzz(const Options& opts, std::ostream& out, std::ostream& err) {
  if (!opts.positional.empty()) {
    throw UsageError(
        "usage: fuzz [--seed N] [--iterations N] [--out DIR] "
        "[--analog-every K] [--slope-ns X] | fuzz --replay <case.repro|dir>");
  }
  if (const auto path = opts.get("replay")) {
    return replay_path(*path, out) == 0 ? 0 : 1;
  }
  FuzzOptions fopts;
  if (const auto seed = opts.get("seed")) {
    const auto v = parse_long(*seed);
    if (!v || *v < 0) throw Error("bad --seed value");
    fopts.seed = static_cast<std::uint64_t>(*v);
  }
  if (const auto iters = opts.get("iterations")) {
    const auto v = parse_long(*iters);
    if (!v || *v < 1) throw Error("bad --iterations value");
    fopts.iterations = static_cast<int>(*v);
  }
  if (const auto every = opts.get("analog-every")) {
    const auto v = parse_long(*every);
    if (!v || *v < 0) throw Error("bad --analog-every value");
    fopts.analog_every = static_cast<int>(*v);
  }
  if (const auto slope = opts.get("slope-ns")) {
    const auto v = parse_finite_double(*slope);
    if (!v || *v < 0.0) throw Error("bad --slope-ns value");
    fopts.input_slope = *v * 1e-9;
  }
  if (const auto dir = opts.get("out")) fopts.out_dir = *dir;

  LedgerScope ledger(opts, "fuzz");
  const FuzzReport report = run_fuzz(fopts, err);
  out << report.to_string();
  if (ledger.active()) {
    LedgerRecord& r = ledger.record();
    r.detail = format("%d iteration(s), %zu failure(s)", report.iterations,
                      report.failures.size());
  }
  ledger.complete(report.clean() ? "clean" : "failures");
  return report.clean() ? 0 : 1;
}

int cmd_compile(const Options& opts, std::ostream& out, std::ostream& err) {
  TelemetryHub::instance().enable();
  LedgerScope ledger(opts, "compile");
  TraceCapture trace(opts.get("trace"));
  if (opts.positional.size() != 1) {
    throw UsageError(
        "usage: compile <file.sim> -o <design.sldc> [--tech ...] "
        "[--tables <file.slopes>] [--trace <out.json>]");
  }
  const auto out_path = opts.get("out");
  if (!out_path) throw UsageError("compile needs -o <design.sldc>");
  Netlist nl = read_sim_file(opts.positional[0]);
  Tech tech = load_tech(opts);

  // Mirror make_model's tech semantics exactly, or loaded analyses
  // would diverge from direct ones: only the slope model calibrates,
  // and calibration rewrites the tech's effective resistances.  The
  // fitted tables are baked into the snapshot so a load never re-runs
  // the calibration (which would both cost the compile's main saving
  // and drift the tech away from the fingerprint recorded here).
  std::optional<SlopeTables> tables;
  if (opts.get("model").value_or("slope") == "slope") {
    if (const auto path = opts.get("tables")) {
      tables = SlopeTables::read_file(*path);
    } else {
      err << "(no --tables given; calibrating " << tech.name()
          << " in-process)\n";
      CalibrationResult cal = calibrate(tech, style_for(tech));
      tech = cal.tech;
      tables = std::move(cal.tables);
    }
  }

  const std::shared_ptr<const CompiledDesign> design =
      CompiledDesign::compile(std::move(nl), std::move(tech));
  // Tables that cannot price every stage would fail each later load.
  if (tables) SlopeModel(*tables).require_covers(design->stage_kinds());
  save_design_file(*design, *out_path, tables ? &*tables : nullptr);
  if (ledger.active()) {
    LedgerRecord& r = ledger.record();
    r.source = opts.positional[0];
    r.model = opts.get("model").value_or("slope");
    r.fingerprint = design_fingerprint(design->netlist(), design->tech());
    r.extract_seconds = design->extract_seconds();
    r.detail = format("%zu stage(s) -> %s", design->stages().size(),
                      out_path->c_str());
  }
  trace.write(out);
  out << format(
      "compiled %zu node(s), %zu device(s) -> %zu ccc(s), %zu stage(s)\n",
      design->netlist().node_count(), design->netlist().device_count(),
      design->components().count(), design->stages().size());
  out << "wrote " << *out_path << '\n';

  // Telemetry for the build phase: compiles have no Session, so the
  // snapshot is assembled here (same names the session registry uses
  // where the meaning coincides).
  TelemetryHub& hub = TelemetryHub::instance();
  if (hub.enabled()) {
    MetricsRegistry reg;
    reg.gauge("extract.seconds").set(design->extract_seconds());
    reg.counter("compile.stages").set(design->stages().size());
    reg.counter("compile.cccs").set(design->components().count());
    TelemetryLabels labels;
    labels.session = "compile";
    labels.model = opts.get("model").value_or("slope");
    hub.publish(labels, reg);
  }
  ledger.complete("ok");
  write_prometheus(opts, out);
  return 0;
}

int cmd_ledger(const Options& opts, std::ostream& out, std::ostream&) {
  if (opts.positional.size() != 2 || opts.positional[0] != "summarize") {
    throw UsageError("usage: ledger summarize <ledger.jsonl>");
  }
  out << summarize_ledger(read_ledger_file(opts.positional[1]));
  return 0;
}

/// The best (minimum) wall time per bench name in a bench-record JSONL
/// file (FORMATS.md, "Bench records").  Minimum, not mean: wall-clock
/// noise is one-sided, so the fastest observation is the stable one.
std::map<std::string, double> read_bench_best(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open bench records file '" + path + "'");
  std::map<std::string, double> best;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (trim(line).empty()) continue;
    JsonValue obj;
    try {
      obj = parse_json(line);
    } catch (const Error& e) {
      throw Error(path + ":" + std::to_string(lineno) + ": " + e.what());
    }
    const JsonValue* bench = obj.is_object() ? obj.find("bench") : nullptr;
    const JsonValue* seconds =
        obj.is_object() ? obj.find("wall_seconds") : nullptr;
    if (!bench || bench->kind() != JsonValue::Kind::kString || !seconds ||
        seconds->kind() != JsonValue::Kind::kNumber) {
      throw Error(path + ":" + std::to_string(lineno) +
                  ": bench record needs a string \"bench\" and a numeric "
                  "\"wall_seconds\" member");
    }
    const std::string name = bench->as_string();
    const double wall = seconds->as_number();
    const auto it = best.find(name);
    if (it == best.end() || wall < it->second) best[name] = wall;
  }
  return best;
}

int cmd_bench(const Options& opts, std::ostream& out, std::ostream& err) {
  if (opts.positional.size() != 3 || opts.positional[0] != "diff") {
    throw UsageError(
        "usage: bench diff <old.jsonl> <new.jsonl> [--max-regress <pct>]");
  }
  double max_regress = 10.0;
  if (const auto pct = opts.get("max-regress")) {
    const auto v = parse_finite_double(*pct);
    if (!v || *v < 0.0) throw Error("bad --max-regress value");
    max_regress = *v;
  }
  const std::map<std::string, double> old_best =
      read_bench_best(opts.positional[1]);
  const std::map<std::string, double> new_best =
      read_bench_best(opts.positional[2]);

  TextTable table({"bench", "old (s)", "new (s)", "delta"});
  std::size_t joined = 0;
  std::size_t regressions = 0;
  for (const auto& [name, new_wall] : new_best) {
    const auto it = old_best.find(name);
    if (it == old_best.end()) continue;
    ++joined;
    const double old_wall = it->second;
    const double pct =
        old_wall > 0.0 ? (new_wall - old_wall) / old_wall * 100.0 : 0.0;
    const bool regressed = pct > max_regress;
    if (regressed) ++regressions;
    table.add_row({name, format("%.4f", old_wall),
                   format("%.4f", new_wall),
                   format("%+.1f%%%s", pct,
                          regressed ? "  REGRESSED" : "")});
  }
  if (joined == 0) {
    err << "bench diff: no bench name appears in both files -- nothing "
           "was compared, which a gate must treat as failure\n";
    return 1;
  }
  out << table.to_string();
  for (const auto& [name, wall] : old_best) {
    if (new_best.find(name) == new_best.end()) {
      out << "only in " << opts.positional[1] << ": " << name << '\n';
    }
  }
  for (const auto& [name, wall] : new_best) {
    if (old_best.find(name) == old_best.end()) {
      out << "only in " << opts.positional[2] << ": " << name << '\n';
    }
  }
  out << format("%zu bench(es) compared, %zu regression(s) beyond +%.1f%%\n",
                joined, regressions, max_regress);
  return regressions > 0 ? 1 : 0;
}

int cmd_serve(const Options& opts, std::ostream& out, std::ostream& err) {
  if (!opts.positional.empty()) {
    throw UsageError(
        "usage: serve [--max-inflight N] [--workers N] [--cache N] "
        "[--tcp <port>] [--tech <spec>] [--ledger <file>] "
        "[--deadline-ms N] [--max-line-bytes N] [--failpoints <spec>]");
  }
  ServeOptions sopts;
  if (const auto cache = opts.get("cache")) {
    const auto v = parse_long(*cache);
    if (!v || *v < 1) throw Error("bad --cache value");
    sopts.cache_capacity = static_cast<int>(*v);
  }
  if (const auto tech = opts.get("tech")) sopts.default_tech = *tech;
  if (const auto ledger = opts.get("ledger")) {
    sopts.ledger_path = *ledger;
  } else if (const char* env = std::getenv("SLDM_LEDGER");
             env != nullptr && *env != '\0') {
    sopts.ledger_path = env;
  }
  if (const auto v = opts.get("deadline-ms")) {
    const auto d = parse_finite_double(*v);
    if (!d || *d < 0.0) throw Error("bad --deadline-ms value");
    sopts.default_deadline_ms = *d;
  }
  ServeLoopOptions lopts;
  if (const auto v = opts.get("max-inflight")) {
    const auto n = parse_long(*v);
    if (!n || *n < 1) throw Error("bad --max-inflight value");
    lopts.max_inflight = static_cast<int>(*n);
  }
  if (const auto v = opts.get("workers")) {
    const auto n = parse_long(*v);
    if (!n || *n < 1) throw Error("bad --workers value");
    lopts.workers = static_cast<int>(*n);
  }
  if (const auto v = opts.get("max-line-bytes")) {
    const auto n = parse_long(*v);
    if (!n || *n < 64) throw Error("bad --max-line-bytes value (need >= 64)");
    lopts.max_line_bytes = static_cast<std::size_t>(*n);
  }

  TimingService service(sopts);
  if (const auto port = opts.get("tcp")) {
    const auto p = parse_long(*port);
    if (!p || *p < 0 || *p > 65535) throw Error("bad --tcp port");
    TcpServer server(service, lopts, static_cast<int>(*p));
    err << "sldm serve listening on 127.0.0.1:" << server.port() << '\n';
    return server.run();
  }
  return serve_pipe(service, std::cin, out, lopts);
}

/// `--<key> <integer>` in [lo, hi], required.
long required_long(const Options& opts, const std::string& key, long lo,
                   long hi) {
  const auto text = opts.get(key);
  if (!text) throw UsageError("gen needs --" + key);
  const auto v = parse_long(*text);
  if (!v || *v < lo || *v > hi) {
    throw UsageError(format("bad --%s value '%s' (an integer in [%ld, %ld])",
                            key.c_str(), text->c_str(), lo, hi));
  }
  return *v;
}

int cmd_gen(const Options& opts, std::ostream& out, std::ostream&) {
  if (opts.positional.size() != 1) {
    throw UsageError(
        "usage: gen random_logic --style cmos|nmos --layers L --width W "
        "--seed S -o <out.sim>");
  }
  if (opts.positional[0] != "random_logic") {
    throw UsageError("unknown generator family '" + opts.positional[0] +
                     "' (known: random_logic)");
  }
  const std::string style = opts.get("style").value_or("");
  if (style != "cmos" && style != "nmos") {
    throw UsageError("gen needs --style cmos|nmos");
  }
  // 2^21 gates is about 7M devices, 16x the largest benchmark design;
  // the bound keeps a mistyped size from exhausting memory.
  constexpr long kMaxGates = 1L << 21;
  const long layers = required_long(opts, "layers", 1, kMaxGates);
  const long width = required_long(opts, "width", 1, kMaxGates);
  if (layers * width > kMaxGates) {
    throw UsageError(format("--layers x --width must not exceed %ld gates",
                            kMaxGates));
  }
  const long seed = required_long(opts, "seed", 0, LONG_MAX);
  const auto path = opts.get("out");
  if (!path) throw UsageError("gen needs -o <out.sim>");
  const GeneratedCircuit g = random_logic(
      style == "cmos" ? Style::kCmos : Style::kNmos, static_cast<int>(layers),
      static_cast<int>(width), static_cast<std::uint64_t>(seed));
  write_sim_file(g.netlist, *path);
  out << format("wrote %s: %zu node(s), %zu device(s)\n", path->c_str(),
                g.netlist.node_count(), g.netlist.device_count());
  return 0;
}

int cmd_version(const Options&, std::ostream& out, std::ostream&) {
  out << "sldm " << sldm_version()
      << " (switch-level delay models, Ousterhout DAC 1984)\n"
      << "snapshot format: .sldc version " << kSnapshotFormatVersion
      << '\n';
  return 0;
}

/// One row of the command registry: dispatch, usage() and option
/// checking are all generated from this table, so a new command cannot
/// ship without its help line or its option list.
struct CommandSpec {
  const char* name;
  const char* synopsis;
  const char* summary;
  /// Every option the command reads, space-separated (flags included;
  /// `-o` is `out`).  Any other option is a usage error.
  const char* options;
  int (*run)(const Options&, std::ostream& out, std::ostream& err);
};

/// Options run_cli reads for every command.  `threads` is read by none:
/// extraction is sequential, and it stays accepted only because
/// perfbench/ still passes it; the next benchmark change removes it.
constexpr const char* kCommonOptions = "failpoints threads";

const CommandSpec kCommands[] = {
    {"check", "check <file.sim>", "structural diagnostics", "", cmd_check},
    {"stats", "stats [<file.sim>] [--json|--prom <file|->]",
     "netlist census, or the telemetry hub without a file", "json prom",
     cmd_stats},
    {"time", "time <file.sim>|--load <design.sldc> [options]",
     "static timing analysis",
     "load tech model tables constraints slope-ns paths stats json trace "
     "prom ledger",
     cmd_time},
    {"explain", "explain <file.sim>|--load <design.sldc> <node> [options]",
     "critical-path explain trace",
     "load tech model tables constraints slope-ns dir json", cmd_explain},
    {"eco", "eco <file.sim>|--load <design.sldc> <file.eco> [options]",
     "incremental what-if timing",
     "load tech model tables constraints slope-ns stats json trace prom "
     "ledger verify write",
     cmd_eco},
    {"chargeshare", "chargeshare <file.sim> [--tech ...]",
     "worst-case charge-sharing report", "tech", cmd_chargeshare},
    {"sim", "sim <file.sim>|--load <design.sldc> [options]",
     "analog reference simulation", "load tech constraints tstop-ns csv vcd",
     cmd_sim},
    {"calibrate", "calibrate nmos|cmos --out <prefix>",
     "fit slope tables for a technology", "out", cmd_calibrate},
    {"compile", "compile <file.sim> -o <design.sldc> [options]",
     "bake a reusable compiled-design snapshot",
     "out tech model tables trace prom ledger", cmd_compile},
    {"gen", "gen random_logic --style cmos|nmos --layers L --width W "
     "--seed S -o <out.sim>",
     "write a generated benchmark netlist", "style layers width seed out",
     cmd_gen},
    {"fuzz", "fuzz [options] | fuzz --replay <case.repro|dir>",
     "differential fuzzing campaign",
     "replay seed iterations analog-every slope-ns out ledger", cmd_fuzz},
    {"ledger", "ledger summarize <ledger.jsonl>",
     "per-design summary of a run-ledger file", "", cmd_ledger},
    {"bench", "bench diff <old.jsonl> <new.jsonl> [--max-regress <pct>]",
     "bench-record regression gate", "max-regress", cmd_bench},
    {"serve", "serve [--max-inflight N] [--workers N] [--cache N] "
     "[--tcp <port>] [--deadline-ms N] [--max-line-bytes N]",
     "long-lived concurrent timing service (JSON lines)",
     "max-inflight workers cache tcp tech ledger deadline-ms max-line-bytes",
     cmd_serve},
    {"version", "version", "engine and snapshot format versions", "",
     cmd_version},
};

/// Throws UsageError naming the first option in `opts` that neither
/// the command nor run_cli reads (a misspelt `--modle` would otherwise
/// be silently ignored).
void reject_unread_options(const Options& opts, const CommandSpec& c) {
  const auto listed = [](const char* list, const std::string& key) {
    std::istringstream words(list);
    std::string word;
    while (words >> word) {
      if (word == key) return true;
    }
    return false;
  };
  const auto check = [&](const std::string& key) {
    if (listed(c.options, key) || listed(kCommonOptions, key)) return;
    std::string takes = *c.options == '\0' ? " none" : "";
    std::istringstream words(c.options);
    std::string word;
    while (words >> word) takes.append(" --").append(word);
    throw UsageError(format("%s does not take option --%s (it takes%s)",
                            c.name, key.c_str(), takes.c_str()));
  };
  for (const auto& [key, value] : opts.values) check(key);
  for (const std::string& key : opts.flags) check(key);
}

void usage(std::ostream& err) {
  err << "usage: sldm <command> [options]\n\ncommands:\n";
  for (const CommandSpec& c : kCommands) {
    err << format("  %-12s %s\n", c.name, c.summary)
        << format("  %-12s   sldm %s\n", "", c.synopsis);
  }
  err << "\nsee src/cli/cli.h for per-command options\n";
}

}  // namespace

int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  if (args.empty()) {
    usage(err);
    return 2;
  }
  try {
    const CommandSpec* command = nullptr;
    for (const CommandSpec& c : kCommands) {
      if (args[0] == c.name) command = &c;
    }
    if (!command) {
      usage(err);
      return 2;
    }
    const Options opts = parse_options(args, 1);
    reject_unread_options(opts, *command);
    // Fault injection is armed before dispatch so every command --
    // not just serve -- runs its I/O boundaries under the configured
    // schedule.  The flag wins over the environment; the banner goes
    // to stderr so piped stdout protocols stay clean.
    std::optional<std::string> failpoints = opts.get("failpoints");
    if (!failpoints) {
      if (const char* env = std::getenv("SLDM_FAILPOINTS");
          env != nullptr && *env != '\0') {
        failpoints = std::string(env);
      }
    }
    if (failpoints) {
      FailpointRegistry::instance().configure(*failpoints);
      if (failpoints_armed()) {
        err << "sldm: failpoints armed: " << *failpoints << '\n';
      }
    }
    return command->run(opts, out, err);
  } catch (const UsageError& e) {
    err << "error: " << e.what() << '\n';
    return 2;
  } catch (const Error& e) {
    err << "error: " << e.what() << '\n';
    return 1;
  } catch (const ContractViolation& e) {
    err << "internal error: " << e.what() << '\n';
    return 1;
  } catch (const std::exception& e) {
    // Anything else (bad_alloc, a system_error from the runtime) is a
    // defect too, but it must still end as a message and exit 1, never
    // in std::terminate.
    err << "internal error: " << e.what() << '\n';
    return 1;
  }
}

}  // namespace sldm

// cold_436k: the real CLI commands on the ROADMAP's 436k-device row,
// run in-process through run_cli -- `time` (slope model, one thread),
// `compile --threads 4`, and `time --load` on that snapshot.  Kinds:
// k1 = time, k2 = compile, k3 = time --load.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>
#include <sstream>

#include "calib/calibrate.h"
#include "delay/slope.h"
#include "design/compiled_design.h"
#include "design/session.h"
#include "design/snapshot.h"
#include "inputs.h"
#include "netlist/sim_io.h"
#include "tech/tech.h"
#include "timing/report.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kLayers = 128;
constexpr int kWidth = 1024;
constexpr double kSlope = 1e-9;  // the CLI's default --slope-ns 1

struct Paths {
  std::string sim;
  std::string sldc;
};

struct Ops {
  /// Each command's latency with the probe taken just before it: a
  /// round is three commands of 1-2 s, and the host's speed regime can
  /// change between them.
  ProbedSamples time, compile, load;
  Counts counts;
  std::string time_out, load_out;  ///< first round's stdout
  double first_peak_mb = 0.0;  ///< peak RSS after the first round
  HostProbe probe;  ///< sampled before each command
};

/// Runs one CLI command, records its latency with the probe taken
/// before it, and returns the latency.
double op(Ops& ops, ProbedSamples& samples, double probe_ms,
          const std::vector<std::string>& args, std::string* out) {
  const double t0 = now_s();
  const int rc = cli(args, out);
  const double dt = now_s() - t0;
  if (rc == 0) {
    samples.add(probe_ms, dt);
    ops.counts.ok();
  } else {
    samples.add_failure(probe_ms);
    ops.counts.fail(fmt("exit-%d", rc));
  }
  return dt;
}

/// The untimed decomposition of one `time` command into its layer calls.
void decompose_time(Tracer& tr, int parent, const Paths& p, double op_s) {
  sldm::Netlist nl;
  const double read = timed(tr, "netlist.read_sim", parent, 0,
                            [&] { nl = sldm::read_sim_file(p.sim); });
  std::optional<sldm::CalibrationResult> cal;
  const double calib = timed(tr, "calib.calibrate", parent, 0, [&] {
    cal = sldm::calibrate(sldm::cmos3(), sldm::Style::kCmos);
  });
  std::optional<sldm::CccPartition> ccc;
  const double part = timed(tr, "timing.partition", parent, 0,
                            [&] { ccc.emplace(nl); });
  const double extract = timed(tr, "timing.extract", parent, 0, [&] {
    (void)sldm::extract_stages_partitioned(nl, {}, *ccc, 1);
  });
  tr.count("netlist.devices", static_cast<double>(nl.device_count()));
  std::shared_ptr<const sldm::CompiledDesign> design;
  const double compile = timed(tr, "design.compile", parent, 0, [&] {
    design = sldm::CompiledDesign::compile(std::move(nl), cal->tech);
  });
  tr.count("design.bake_s", compile - part - extract);
  tr.count("timing.stages", static_cast<double>(design->stages().size()));
  tr.count("timing.cccs", static_cast<double>(design->components().count()));
  const sldm::SlopeModel model(cal->tables);
  sldm::Session session(design, model);
  const double prop = timed(tr, "design.propagate", parent, 0, [&] {
    session.add_all_input_events(kSlope);
    session.run();
  });
  tr.count("delay.stage_evaluations",
           static_cast<double>(session.stage_evaluations()));
  tr.count("design.batches", static_cast<double>(session.stats().batches));
  const double report = timed(tr, "timing.report", parent, 0, [&] {
    (void)sldm::format_output_arrivals(design->netlist(), session);
  });
  tr.count("cli.other_s", op_s - (read + calib + compile + prop + report));
}

/// The untimed decomposition of one `compile --threads 4` command.
void decompose_compile(Tracer& tr, int parent, const Paths& p, double op_s) {
  sldm::Netlist nl;
  const double read = timed(tr, "netlist.read_sim", parent, 0,
                            [&] { nl = sldm::read_sim_file(p.sim); });
  std::optional<sldm::CalibrationResult> cal;
  const double calib = timed(tr, "calib.calibrate", parent, 0, [&] {
    cal = sldm::calibrate(sldm::cmos3(), sldm::Style::kCmos);
  });
  {
    const sldm::CccPartition ccc(nl);
    timed(tr, "timing.extract_t4", parent, 0, [&] {
      (void)sldm::extract_stages_partitioned(nl, {}, ccc, 4);
    });
  }
  std::shared_ptr<const sldm::CompiledDesign> design;
  const double compile = timed(tr, "design.compile_t4", parent, 0, [&] {
    design = sldm::CompiledDesign::compile(std::move(nl), cal->tech,
                                           sldm::CompileOptions{{}, 4});
  });
  std::vector<std::uint8_t> bytes;
  const double ser = timed(tr, "design.serialize", parent, 0, [&] {
    bytes = sldm::serialize_design(*design, &cal->tables);
  });
  tr.count("design.snapshot_bytes", static_cast<double>(bytes.size()));
  const double write = timed(tr, "design.write", parent, 0, [&] {
    std::ofstream f(p.sldc, std::ios::binary);
    f.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  });
  tr.count("cli.compile_other_s",
           op_s - (read + calib + compile + ser + write));
}

/// The untimed decomposition of one `time --load` command.
void decompose_load(Tracer& tr, int parent, const Paths& p, double op_s) {
  std::vector<std::uint8_t> bytes;
  const double read = timed(tr, "design.read", parent, 0, [&] {
    std::ifstream f(p.sldc, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(f),
                 std::istreambuf_iterator<char>());
  });
  std::optional<sldm::LoadedDesign> loaded;
  const double deser = timed(tr, "design.deserialize", parent, 0, [&] {
    loaded = sldm::deserialize_design(bytes, p.sldc);
  });
  const sldm::SlopeModel model(*loaded->slope_tables);
  sldm::Session session(loaded->design, model);
  const double prop = timed(tr, "design.propagate", parent, 0, [&] {
    session.add_all_input_events(kSlope);
    session.run();
  });
  const double report = timed(tr, "timing.report", parent, 0, [&] {
    (void)sldm::format_output_arrivals(session.netlist(), session);
  });
  tr.count("cli.load_other_s", op_s - (read + deser + prop + report));
}

/// Runs rounds of the three commands until the time budget would be
/// exceeded (at least one round).  With a tracer, each command is
/// followed by its layer decomposition (outside the timed window).
Ops measure(const Paths& p, double seconds, Tracer* tracer) {
  Ops ops;
  release_free_memory();
  const double start = now_s();
  double round_s = 0.0;
  using Decompose = void (*)(Tracer&, int, const Paths&, double);
  auto command = [&](const char* name, ProbedSamples& samples,
                     const std::vector<std::string>& args, std::string* out,
                     Decompose decompose) {
    const double probe_ms = ops.probe.sample();
    std::optional<Span> span;
    if (tracer) span.emplace(*tracer, name);
    const double op_s = op(ops, samples, probe_ms, args, out);
    if (tracer) {
      span->end();
      decompose(*tracer, span->id(), p, op_s);
    }
  };
  do {
    const double r0 = now_s();
    const bool first = ops.time.size() == 0;
    command("cli.time", ops.time, {"time", p.sim, "--tech", "cmos"},
            first ? &ops.time_out : nullptr, decompose_time);
    command("cli.compile", ops.compile,
            {"compile", p.sim, "-o", p.sldc, "--tech", "cmos", "--threads", "4"},
            nullptr, decompose_compile);
    command("cli.time_load", ops.load, {"time", "--load", p.sldc},
            first ? &ops.load_out : nullptr, decompose_load);
    round_s = now_s() - r0;
    if (ops.first_peak_mb == 0.0) ops.first_peak_mb = peak_rss_mb();
  } while (now_s() - start + round_s <= seconds);
  return ops;
}

std::string report_of(const sldm::Session& session) {
  return "model: " + session.delay_model().name() + "\n\n" +
         sldm::format_output_arrivals(session.netlist(), session) + "\n";
}

/// Untimed gate.  The snapshot restores the design bit for bit: a cold
/// compile analyzed with the snapshot's slope tables matches the loaded
/// design at every output.  Each CLI command prints exactly the report
/// of its own analysis.  Cold and --load runs use different copies of
/// the slope tables -- freshly calibrated ones, and the %.9g text the
/// snapshot stores (FORMATS.md section 11) -- so their arrivals agree
/// only to about 1e-9 relative, which can flip the last printed digit
/// of a 436k-device report; that difference is held below 1e-6 and the
/// differing report lines are counted in a note.
void gate(const Paths& p, const Ops& ops, RunResult& res) {
  const sldm::LoadedDesign loaded = sldm::load_design_file(p.sldc);
  res.gate(loaded.slope_tables.has_value(), "snapshot carries no slope tables");
  if (!loaded.slope_tables) return;
  const sldm::SlopeModel warm_model(*loaded.slope_tables);
  sldm::Session warm(loaded.design, warm_model);
  warm.add_all_input_events(kSlope);
  warm.run();
  res.gate(report_of(warm) == ops.load_out,
           "time --load output differs from the snapshot's analysis");

  const sldm::CalibrationResult cal =
      sldm::calibrate(sldm::cmos3(), sldm::Style::kCmos);
  const auto cold_design =
      sldm::CompiledDesign::compile(sldm::read_sim_file(p.sim), cal.tech);
  const sldm::SlopeModel cal_model(cal.tables);
  sldm::Session same(cold_design, warm_model);
  sldm::Session calibrated(cold_design, cal_model);
  for (sldm::Session* s : {&same, &calibrated}) {
    s->add_all_input_events(kSlope);
    s->run();
  }
  res.gate(report_of(calibrated) == ops.time_out,
           "cold time output differs from a cold library analysis");
  const sldm::Netlist& nl = warm.netlist();
  std::size_t mismatches = 0;
  double max_rel = 0.0;
  for (sldm::NodeId n : nl.all_nodes()) {
    if (!nl.node(n).is_output) continue;
    for (auto dir : {sldm::Transition::kRise, sldm::Transition::kFall}) {
      const auto w = warm.arrival(n, dir);
      const auto a = same.arrival(n, dir);
      const auto c = calibrated.arrival(n, dir);
      if (w.has_value() != a.has_value() || w.has_value() != c.has_value() ||
          (w && (w->time != a->time || w->slope != a->slope))) {
        ++mismatches;
      } else if (w) {
        max_rel = std::max(max_rel, std::abs(c->time - w->time) / w->time);
      }
    }
  }
  res.gate(mismatches == 0,
           fmt("%zu output arrival(s) differ between --load and a cold "
               "compile",
               mismatches));
  res.gate(max_rel < 1e-6,
           fmt("cold and --load arrivals differ by %.3g (relative)", max_rel));
  std::size_t differing_lines = 0;
  std::istringstream cold_lines(ops.time_out), warm_lines(ops.load_out);
  for (std::string a, b; std::getline(cold_lines, a) && std::getline(warm_lines, b);) {
    differing_lines += a != b;
  }
  res.note(fmt("--load vs cold: bit-identical with the snapshot's tables; "
               "max relative difference %.3g with freshly calibrated ones "
               "(%zu report line(s) differ)",
               max_rel, differing_lines));

  if (const auto w = warm.worst_arrival(true)) {
    res.digest.add("cold.worst." + nl.node(w->node).name.str() + "." +
                       std::string(sldm::to_string(w->dir)),
                   w->time);
  }
  res.digest.add("cold.stage_evaluations",
                 static_cast<double>(warm.stage_evaluations()));
  res.digest.add("cold.stages", static_cast<double>(cold_design->stages().size()));
}

}  // namespace

RunResult run_cold(const RunConfig& cfg) {
  RunResult res;
  const Paths p{cfg.work_dir + "/design.sim", cfg.work_dir + "/design.sldc"};

  ProbedSamples setups;
  HostProbe setup_probe;
  const double setup_start = now_s();
  while (more_setups(setups.size(), setup_start)) {
    const double probe_ms = setup_probe.sample();
    const double t0 = now_s();
    {
      const sldm::GeneratedCircuit g =
          make_logic(kLayers, kWidth, derive_seed(cfg.seed, 1));
      sldm::write_sim_file(g.netlist, p.sim);
    }
    setups.add(probe_ms, now_s() - t0);
  }

  const double budget = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  Ops ops = measure(p, budget, nullptr);
  res.counts = ops.counts;
  // Every latency is first brought to the run's median probe time by the
  // probe taken just before it; set_end_to_end then scales the run.
  const double at_ms = ops.probe.median_ms();
  const Samples time = ops.time.at_probe(at_ms);
  const Samples compile = ops.compile.at_probe(at_ms);
  const Samples load = ops.load.at_probe(at_ms);
  double busy_s = 0.0;
  for (const Samples* kind : {&time, &compile, &load}) {
    for (double s : kind->values()) busy_s += s;
  }
  set_end_to_end(res, &ops.probe, setups.at_probe(at_ms).median(),
                 ops.first_peak_mb,
                 static_cast<double>(ops.counts.attempted) / busy_s, time,
                 compile, load);

  std::ifstream sldc(p.sldc, std::ios::binary | std::ios::ate);
  const double snapshot_mb = static_cast<double>(sldc.tellg()) / 1e6;
  res.note(fmt("cold_time_s %.4f  compile_s %.4f  warm_time_s %.4f  "
               "snapshot_mb %.2f  (n=%zu rounds)",
               ops.time.seconds.median(), ops.compile.seconds.median(),
               ops.load.seconds.median(), snapshot_mb, ops.time.size()));

  if (cfg.trace) {
    Tracer tracer(true);
    const Ops traced = measure(p, cfg.seconds / 2, &tracer);
    tracer.count("bench.trace_overhead_pct",
                 100.0 * (traced.time.seconds.median() /
                              ops.time.seconds.median() -
                          1.0));
    collect_layers(tracer, res);
  }

  gate(p, ops, res);
  return res;
}

}  // namespace perfbench

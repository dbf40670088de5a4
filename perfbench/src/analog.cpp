// analog_ref: the analog reference the delay models are judged against.
// Each round calibrates both processes, runs the accuracy comparison
// over both accuracy suites, and simulates a ladder of reference
// transients that spans the dense/sparse solver split at 100 unknowns.
// Kinds: k1 = calibrate (one style), k2 = run_comparison (one circuit),
// k3 = reference transient (one ladder circuit: elaborate + simulate).
//
// The inputs are fixed, not seeded: the circuits are the paper's
// families, and the ladder holds only circuits whose transient
// completes.  Above 100 unknowns the engine switches to its sparse
// solver; at this writing the 28- and 40-stage nMOS chains kept here
// complete there but their outputs never switch, and a 64-stage chain
// throws.  The swing check therefore covers the dense side only; the
// sparse side's answers go into the digest, so a solver fix shows there
// as an answer change.
#include <cmath>
#include <memory>

#include "analog/elaborate.h"
#include "analog/transient.h"
#include "calib/calibrate.h"
#include "compare/harness.h"
#include "util/error.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr double kInputSlope = 2e-9;  // the Fig. 3 survey's input edge
constexpr double kEdgeTime = 2e-9;    // the harness's settling margin
// Calibrations of each process per round.  One pair is ~30 ms of a
// ~1.5 s round (the ladder takes the rest), too few calls for a steady k1.
constexpr int kCalibrateRepeats = 4;

struct Inputs {
  std::unique_ptr<sldm::CompareContext> nmos, cmos;
  std::vector<sldm::GeneratedCircuit> suite;
  std::vector<sldm::GeneratedCircuit> ladder;
  std::vector<bool> sparse;  ///< per ladder circuit: above 100 unknowns

  const sldm::CompareContext& ctx(sldm::Style s) const {
    return s == sldm::Style::kNmos ? *nmos : *cmos;
  }
};

struct Round {
  /// The calls of each kind, in input order.
  ProbedSamples calibrate, compare, refsim;
  Counts counts;
  double ladder_s = 0.0;  ///< the completed ladder transients, end to end
  double err_sum = 0.0;
  std::size_t err_n = 0;
  std::vector<double> slope_errors;   ///< per suite circuit
  std::vector<double> newton;  ///< per ladder circuit; -1 when it failed
  std::vector<double> ladder_swings;  ///< output swing after the edge, volts
};

struct Ladder {
  sldm::Elaboration elab;
  sldm::TransientOptions options;
};

Ladder elaborate_ladder(const sldm::GeneratedCircuit& g, const sldm::Tech& tech) {
  std::vector<sldm::Stimulus> stimuli;
  stimuli.push_back(
      {g.input, sldm::PwlSource::edge(0.0, tech.vdd(), kEdgeTime, kInputSlope)});
  for (sldm::NodeId n : g.high_inputs) {
    stimuli.push_back({n, sldm::PwlSource::dc(tech.vdd())});
  }
  for (sldm::NodeId n : g.low_inputs) {
    stimuli.push_back({n, sldm::PwlSource::dc(0.0)});
  }
  Ladder l{sldm::elaborate(g.netlist, tech, stimuli), {}};
  l.elab.apply_precharge(g.netlist, tech.vdd(), l.options);
  l.options.t_stop = kEdgeTime + kInputSlope + 40e-9;
  return l;
}

std::size_t unknowns(const sldm::Circuit& c) {
  return c.node_count() - 1 + c.vsources().size();
}

Inputs prepare() {
  Inputs in;
  in.nmos = std::make_unique<sldm::CompareContext>(
      sldm::Style::kNmos, sldm::calibrate(sldm::nmos4(), sldm::Style::kNmos));
  in.cmos = std::make_unique<sldm::CompareContext>(
      sldm::Style::kCmos, sldm::calibrate(sldm::cmos3(), sldm::Style::kCmos));
  for (sldm::Style s : {sldm::Style::kNmos, sldm::Style::kCmos}) {
    for (sldm::GeneratedCircuit& g : sldm::accuracy_suite(s)) {
      in.suite.push_back(std::move(g));
    }
  }
  using sldm::Style;
  for (int stages : {4, 8, 12, 16, 24}) {
    in.ladder.push_back(sldm::inverter_chain(Style::kCmos, stages, 4));
  }
  for (int stages : {8, 28, 40}) {
    in.ladder.push_back(sldm::inverter_chain(Style::kNmos, stages, 4));
  }
  for (int bits : {2, 3, 4}) {
    in.ladder.push_back(sldm::address_decoder(Style::kCmos, bits));
  }
  for (int bits : {2, 3}) {
    in.ladder.push_back(sldm::address_decoder(Style::kNmos, bits));
  }
  for (const sldm::GeneratedCircuit& g : in.ladder) {
    in.sparse.push_back(
        unknowns(elaborate_ladder(g, in.ctx(g.style).tech()).elab.circuit()) >
        100);
  }
  return in;
}

/// One round; `probe` is sampled right before every timed call.
Round round(const Inputs& in, Tracer* tr, HostProbe& probe) {
  Round r;
  Tracer off(false);
  Tracer& t = tr ? *tr : off;
  for (int rep = 0; rep < kCalibrateRepeats; ++rep) {
    for (sldm::Style s : {sldm::Style::kNmos, sldm::Style::kCmos}) {
      const sldm::Tech base = s == sldm::Style::kNmos ? sldm::nmos4() : sldm::cmos3();
      const double p = probe.sample();
      try {
        const double dt = timed(t, "calib.calibrate", -1, 0,
                                [&] { (void)sldm::calibrate(base, s); });
        r.calibrate.add(p, dt);
        r.counts.ok();
      } catch (const sldm::NumericalError&) {
        r.calibrate.add_failure(p);
        r.counts.fail("numerical");
      }
    }
  }
  for (const sldm::GeneratedCircuit& g : in.suite) {
    const sldm::CompareContext& ctx = in.ctx(g.style);
    const double p = probe.sample();
    try {
      Span op(t, "compare.run");
      const double t0 = now_s();
      const sldm::ComparisonResult c = sldm::run_comparison(g, ctx, kInputSlope);
      const double dt = now_s() - t0;
      op.end();
      r.compare.add(p, dt);
      r.counts.ok();
      const double err = c.model("slope").error_pct;
      r.slope_errors.push_back(err);
      r.err_sum += std::abs(err);
      ++r.err_n;
      if (tr) {
        const double ref = timed(t, "compare.reference", op.id(), 0, [&] {
          (void)sldm::run_simulation(g, ctx.tech(), kInputSlope);
        });
        double analyze = 0.0;
        for (const sldm::DelayModel* m : ctx.models()) {
          analyze += timed(t, "compare.analyze", op.id(), 0, [&] {
            sldm::TimingAnalyzer a(g.netlist, ctx.tech(), *m);
            a.add_input_event(g.input, sldm::Transition::kRise, 0.0, kInputSlope);
            a.run();
          });
        }
        t.count("compare.other_ms", (dt - ref - analyze) * 1e3);
      }
    } catch (const sldm::NumericalError&) {
      r.compare.add_failure(p);
      r.counts.fail("numerical");
      r.slope_errors.push_back(0.0);
    } catch (const sldm::Error&) {
      r.compare.add_failure(p);
      r.counts.fail("error");
      r.slope_errors.push_back(0.0);
    }
  }
  double newton_total = 0.0, accepted = 0.0, rejected = 0.0, solve_s = 0.0;
  for (std::size_t i = 0; i < in.ladder.size(); ++i) {
    const sldm::GeneratedCircuit& g = in.ladder[i];
    const sldm::Tech& tech = in.ctx(g.style).tech();
    const double p = probe.sample();
    try {
      Span op(t, "analog.ladder");
      const double t0 = now_s();
      std::optional<Ladder> l;
      const double elab = timed(t, "analog.elaborate", op.id(), 0,
                                [&] { l.emplace(elaborate_ladder(g, tech)); });
      sldm::TransientResult res;
      const double sim = timed(
          t, in.sparse[i] ? "analog.sparse_transient" : "analog.dense_transient",
          op.id(), 0, [&] { res = sldm::simulate(l->elab.circuit(), l->options); });
      const double dt = now_s() - t0;
      op.end();
      r.refsim.add(p, dt);
      r.ladder_s += dt;
      r.counts.ok();
      const sldm::Waveform& out = res.at(l->elab.analog(g.output));
      r.ladder_swings.push_back(
          std::abs(out.value(out.size() - 1) - out.at(kEdgeTime)));
      r.newton.push_back(static_cast<double>(res.newton_iterations));
      newton_total += static_cast<double>(res.newton_iterations);
      accepted += static_cast<double>(res.accepted_steps);
      rejected += static_cast<double>(res.rejected_steps);
      solve_s += sim;
      if (tr) {
        t.count("analog.other_ms", (dt - elab - sim) * 1e3);
        timed(t, "analog.dc_op", op.id(), 0, [&] {
          (void)sldm::dc_operating_point(l->elab.circuit(), l->options);
        });
      }
    } catch (const sldm::NumericalError&) {
      r.refsim.add_failure(p);
      r.counts.fail("numerical");
      r.ladder_swings.push_back(0.0);
      r.newton.push_back(-1.0);
    }
  }
  if (tr) {
    t.count("analog.newton_iterations", newton_total);
    t.count("analog.accepted_steps", accepted);
    t.count("analog.rejected_steps", rejected);
    t.count("analog.us_per_newton_iter",
            newton_total > 0 ? solve_s / newton_total * 1e6 : 0.0);
  }
  return r;
}

struct Phase {
  Counts counts;
  double first_peak_mb = 0.0;  ///< peak RSS after the first round
  std::vector<double> ladder_s;
  std::vector<Round> rounds;
  /// Sampled before every timed call; it follows the analog engine's
  /// speed across a shared host's regimes where the sort probe does not
  /// (README.md, "Host-speed scaling").
  HostProbe probe{HostProbe::Kind::kFloat};
};

Phase run_rounds(const Inputs& in, double budget, Tracer* tr) {
  Phase ph;
  release_free_memory();
  const double start = now_s();
  double last = 0.0;
  do {
    const double r0 = now_s();
    Round r = round(in, tr, ph.probe);
    last = now_s() - r0;
    ph.counts.merge(r.counts);
    ph.ladder_s.push_back(r.ladder_s);
    ph.rounds.push_back(std::move(r));
    if (ph.first_peak_mb == 0.0) ph.first_peak_mb = peak_rss_mb();
  } while (now_s() - start + last <= budget);
  return ph;
}

/// The time of one typical call of a kind, returned as a single sample.
/// Each call is first brought to the phase's median probe speed by the
/// probe taken just before it; then each input's median over the rounds
/// is taken and averaged over the inputs.  The inputs of a kind (two
/// processes, 32 suite circuits, 13 ladder circuits) take times in
/// separate clusters, so a median over single calls sat on the edge of a
/// cluster and jumped between runs of the same code, while a mean over
/// single calls takes in every stall of a shared host.  A failed call
/// counts as +inf.
Samples typical_call(const Phase& ph, ProbedSamples Round::*kind) {
  std::vector<std::vector<double>> by_input;
  for (const Round& r : ph.rounds) {
    const Samples calls = (r.*kind).at_probe(ph.probe.median_ms());
    by_input.resize(calls.size());
    for (std::size_t i = 0; i < calls.size(); ++i) {
      by_input[i].push_back(calls.values()[i]);
    }
  }
  double sum = 0.0;
  for (const std::vector<double>& times : by_input) sum += median_of(times);
  const std::size_t inputs = by_input.size();
  Samples out;
  out.add(sum / static_cast<double>(inputs));
  return out;
}

/// Operations per second of busy time, every call's time brought to the
/// phase's median probe speed as in typical_call.
double ops_per_s(const Phase& ph) {
  double busy = 0.0;
  for (const Round& r : ph.rounds) {
    for (const ProbedSamples* calls : {&r.calibrate, &r.compare, &r.refsim}) {
      const Samples at_median = calls->at_probe(ph.probe.median_ms());
      for (double s : at_median.values()) busy += s;
    }
  }
  return static_cast<double>(ph.counts.attempted) / busy;
}

}  // namespace

RunResult run_analog(const RunConfig& cfg) {
  RunResult res;
  // Each set-up, like each timed call, is brought to the measured phase's
  // median probe speed by a probe taken just before it.
  ProbedSamples setups;
  HostProbe setup_probe(HostProbe::Kind::kFloat);
  Inputs in;
  const double setup_start = now_s();
  while (more_setups(setups.size(), setup_start)) {
    const double p = setup_probe.sample();
    const double t0 = now_s();
    in = prepare();
    setups.add(p, now_s() - t0);
  }

  const double budget = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  const Phase ph = run_rounds(in, budget, nullptr);
  res.counts = ph.counts;
  const Samples calibrate = typical_call(ph, &Round::calibrate);
  set_end_to_end(res, &ph.probe, setups.at_probe(ph.probe.median_ms()).median(),
                 ph.first_peak_mb,
                 ops_per_s(ph), calibrate, typical_call(ph, &Round::compare),
                 typical_call(ph, &Round::refsim));

  const Round& first = ph.rounds.front();
  const double err_pct = first.err_n ? first.err_sum / static_cast<double>(first.err_n) : 0.0;
  res.note(fmt("calibrate_ms %.3f  refsim_s %.4f  slope_err_pct %.4f  "
               "(n=%zu rounds)",
               calibrate.median() * 1e3, median_of(ph.ladder_s), err_pct,
               ph.rounds.size()));
  for (std::size_t i = 0; i < in.ladder.size(); ++i) {
    res.note(fmt("ladder %-24s %-6s  swing %.3f V  %6.0f newton  %.1f ms",
                 in.ladder[i].name.c_str(), in.sparse[i] ? "sparse" : "dense",
                 first.ladder_swings[i], first.newton[i],
                 first.refsim.seconds.values()[i] * 1e3));
  }

  if (cfg.trace) {
    Tracer tracer(true);
    const Phase traced = run_rounds(in, cfg.seconds / 2, &tracer);
    // The ladder's wall time comes from the untraced phase (traced rounds
    // also replay each DC operating point); the error is deterministic.
    tracer.count("analog.refsim_s", median_of(ph.ladder_s));
    tracer.count("compare.slope_err_pct", err_pct);
    tracer.count("bench.trace_overhead_pct",
                 100.0 * (typical_call(traced, &Round::calibrate).median() /
                              calibrate.median() -
                          1.0));
    tracer.count("analog.failures", static_cast<double>(traced.counts.failed));
    collect_layers(tracer, res);
  }

  // Gate: every round reproduces the first bit for bit (the simulator
  // and the models are deterministic), and every ladder output swings
  // by more than half a volt from its initial state.
  for (const Round& r : ph.rounds) {
    res.gate(r.slope_errors == first.slope_errors && r.newton == first.newton &&
                 r.ladder_swings == first.ladder_swings,
             "analog results differ between rounds");
  }
  for (std::size_t i = 0; i < in.ladder.size(); ++i) {
    res.gate(first.newton[i] >= 0, "ladder transient failed: " + in.ladder[i].name);
    res.gate(in.sparse[i] || first.ladder_swings[i] > 0.5,
             "ladder output never switched: " + in.ladder[i].name);
  }
  for (std::size_t i = 0; i < in.suite.size(); ++i) {
    res.digest.add("compare." + in.suite[i].name + ".slope_err_pct",
                   first.slope_errors[i]);
  }
  res.digest.add("compare.mean_abs_slope_err_pct", err_pct);
  for (std::size_t i = 0; i < in.ladder.size(); ++i) {
    res.digest.add("ladder." + in.ladder[i].name + ".newton_iterations",
                   first.newton[i]);
    res.digest.add("ladder." + in.ladder[i].name + ".swing_v",
                   first.ladder_swings[i]);
  }
  return res;
}

}  // namespace perfbench

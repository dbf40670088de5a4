#include "fuzz/oracles.h"

#include <cmath>
#include <sstream>

#include "delay/bounds.h"
#include "delay/lumped.h"
#include "delay/rctree.h"
#include "delay/slope.h"
#include "design/compiled_design.h"
#include "design/snapshot.h"
#include "netlist/checks.h"
#include "netlist/eco_io.h"
#include "switchsim/simulator.h"
#include "tech/tech.h"
#include "timing/stage_extract.h"
#include "util/error.h"
#include "util/strings.h"

namespace sldm {
namespace {

/// Relative slack for floating-point noise in provable inequalities.
constexpr double kRelEps = 1e-9;

bool leq(double a, double b) { return a <= b * (1.0 + kRelEps) + 1e-18; }

const Tech& tech_for_style(Style style) {
  static const Tech nmos = nmos4();
  static const Tech cmos = cmos3();
  return style == Style::kNmos ? nmos : cmos;
}

}  // namespace

OracleResult check_netlist(const Netlist& nl) {
  const auto ds = check(nl);
  if (all_ok(ds)) return OracleResult::pass();
  return OracleResult::fail("netlist-check: " + to_string(nl, ds));
}

OracleResult check_sanity(const Netlist& nl, const Session& session) {
  for (NodeId n : nl.all_nodes()) {
    for (Transition dir : {Transition::kRise, Transition::kFall}) {
      const auto a = session.arrival(n, dir);
      if (!a) continue;
      if (!std::isfinite(a->time) || a->time < 0.0 ||
          !std::isfinite(a->slope) || a->slope < 0.0) {
        return OracleResult::fail(format(
            "sanity: arrival at %s %s is time=%g slope=%g",
            nl.node(n).name.c_str(), to_string(dir).c_str(), a->time,
            a->slope));
      }
    }
  }
  const auto worst = session.worst_arrival(/*outputs_only=*/false);
  if (worst) {
    const auto path = session.critical_path(worst->node, worst->dir);
    for (std::size_t i = 1; i < path.size(); ++i) {
      if (path[i].time < path[i - 1].time) {
        return OracleResult::fail(format(
            "sanity: critical path time decreases at step %zu (%s): "
            "%g after %g",
            i, nl.node(path[i].node).name.c_str(), path[i].time,
            path[i - 1].time));
      }
    }
  }
  return OracleResult::pass();
}

const SlopeTables& fuzz_slope_tables() {
  static const SlopeTables tables = [] {
    SlopeTables t;
    const std::vector<double> rho = {0.1, 1.0, 10.0};
    for (const TransistorType type :
         {TransistorType::kNEnhancement, TransistorType::kNDepletion,
          TransistorType::kPEnhancement}) {
      for (const Transition dir : {Transition::kRise, Transition::kFall}) {
        t.set(type, dir,
              SlopeEntry{PiecewiseLinear(rho, {1.0, 1.4, 3.0}),
                         PiecewiseLinear(rho, {1.0, 1.3, 2.5})});
      }
    }
    return t;
  }();
  return tables;
}

OracleResult check_self_consistency(const Session& session) {
  const CompiledDesign& design = session.design();
  const Netlist& nl = design.netlist();
  const TriggerIndex& by_trigger = design.stages_by_trigger();
  const LevelSchedule& levels = design.levels();
  const auto price = [&](std::size_t s, Seconds slope) {
    const auto id = static_cast<StageStore::StageId>(s);
    DelayEstimate est;
    session.delay_model().estimate_batch(design.stage_store(), {&id, 1},
                                         {&slope, 1}, {&est, 1});
    return est;
  };
  const auto where = [&](std::size_t k) {
    return nl.node(NodeId(static_cast<std::uint32_t>(k / 2))).name.str() +
           (k % 2 == 0 ? " rise" : " fall");
  };
  for (std::size_t k = 0; k < by_trigger.key_count(); ++k) {
    const NodeId node(static_cast<std::uint32_t>(k / 2));
    const Transition dir = k % 2 == 0 ? Transition::kRise : Transition::kFall;
    const auto a = session.arrival(node, dir);
    if (a && a->via_stage == SIZE_MAX) continue;  // a declared seed
    if (a) {
      const auto pred = session.arrival(a->from_node, a->from_dir);
      if (!pred) {
        return OracleResult::fail("self-consistency: " + where(k) +
                                  " names a predecessor with no arrival");
      }
      const DelayEstimate est = price(a->via_stage, pred->slope);
      if (pred->time + est.delay != a->time ||
          est.output_slope != a->slope) {
        return OracleResult::fail(format(
            "self-consistency: %s is %.17g s (slope %.17g) but its "
            "predecessor's final value gives %.17g s (slope %.17g)",
            where(k).c_str(), a->time, a->slope, pred->time + est.delay,
            est.output_slope));
      }
    }
    const auto [begin, end] = levels.rows(k);
    for (std::size_t s = begin; s < end; ++s) {
      const std::uint32_t f = by_trigger.fire_key(s);
      const auto fired = session.arrival(
          NodeId(f / 2), f % 2 == 0 ? Transition::kRise : Transition::kFall);
      if (!fired) continue;
      if (!a) {
        return OracleResult::fail("self-consistency: " + where(k) +
                                  " has no arrival though a stage into it "
                                  "fired");
      }
      const Seconds t = fired->time + price(s, fired->slope).delay;
      if (t > a->time || (t == a->time && s < a->via_stage)) {
        return OracleResult::fail(format(
            "self-consistency: stage %zu gives %s at %.17g s, which beats "
            "the recorded %.17g s via stage %zu",
            s, where(k).c_str(), t, a->time, a->via_stage));
      }
    }
  }
  return OracleResult::pass();
}

OracleResult check_stage_bounds(const Netlist& nl, const Tech& tech,
                                const StageTable& stages,
                                Seconds input_slope) {
  const LumpedRcModel lumped;
  const RcTreeModel rctree;
  const RphBoundsModel lower(RphBoundsModel::Mode::kLower);
  const RphBoundsModel upper(RphBoundsModel::Mode::kUpper);
  Stage s;
  for (std::size_t i = 0; i < stages.size(); ++i) {
    make_stage(nl, tech, stages[i], input_slope, s);
    const Seconds d_lumped = lumped.estimate(s).delay;
    const Seconds d_elmore = rctree.estimate(s).delay;
    const Seconds d_lower = lower.estimate(s).delay;
    const Seconds d_upper = upper.estimate(s).delay;
    const auto describe_stage = [&] {
      return describe(nl, stages[i]) + format(" (stage %zu)", i);
    };
    for (const Seconds d : {d_lumped, d_elmore, d_lower, d_upper}) {
      if (!std::isfinite(d) || d <= 0.0) {
        return OracleResult::fail(
            format("stage-bounds: non-positive or non-finite delay %g on ",
                   d) +
            describe_stage());
      }
    }
    if (!leq(d_lower, d_elmore) || !leq(d_elmore, d_upper)) {
      return OracleResult::fail(
          format("stage-bounds: rph ordering violated: lower=%g elmore=%g "
                 "upper=%g on ",
                 d_lower, d_elmore, d_upper) +
          describe_stage());
    }
    if (!leq(d_elmore, d_lumped)) {
      return OracleResult::fail(
          format("stage-bounds: elmore %g exceeds lumped %g on ", d_elmore,
                 d_lumped) +
          describe_stage());
    }
  }
  return OracleResult::pass();
}

OracleResult check_switchsim(const GeneratedCircuit& g,
                             const Session& session) {
  const auto settle_with_input = [&](bool value) {
    SwitchSimulator sim(g.netlist);
    for (NodeId n : g.high_inputs) sim.set_input(n, true);
    for (NodeId n : g.low_inputs) sim.set_input(n, false);
    sim.set_input(g.input, value);
    bool has_precharged = false;
    for (NodeId n : g.netlist.all_nodes()) {
      if (g.netlist.node(n).is_precharged) has_precharged = true;
    }
    if (has_precharged) sim.precharge();
    sim.settle();
    return sim.value(g.output);
  };

  Logic v0 = Logic::kX;
  Logic v1 = Logic::kX;
  try {
    v0 = settle_with_input(false);
    v1 = settle_with_input(true);
  } catch (const Error& e) {
    return OracleResult::skip(std::string("switchsim oscillated: ") +
                              e.what());
  }
  if (v0 == Logic::kX || v1 == Logic::kX) {
    return OracleResult::skip("switchsim output is X");
  }
  if (v0 == v1) {
    return OracleResult::skip("output insensitive to the stimulated input");
  }
  // Input 0 -> 1 flips the output to v1: the analyzer (seeded with both
  // transitions on every input) must know a path producing that edge.
  const Transition dir =
      v1 == Logic::k1 ? Transition::kRise : Transition::kFall;
  if (!session.arrival(g.output, dir)) {
    return OracleResult::fail(format(
        "switchsim: output %s settles %c->%c when %s rises, but the "
        "analyzer has no %s arrival there",
        g.netlist.node(g.output).name.c_str(), to_char(v0), to_char(v1),
        g.netlist.node(g.input).name.c_str(), to_string(dir).c_str()));
  }
  return OracleResult::pass();
}

OracleResult check_analog(const GeneratedCircuit& g,
                          const CompareContext& ctx, Seconds input_slope,
                          double max_error_pct) {
  ComparisonResult r;
  try {
    r = run_comparison(g, ctx, input_slope);
  } catch (const Error& e) {
    // "Output never switches" and simulator non-convergence are
    // undecidable references, not model bugs.
    return OracleResult::skip(std::string("analog reference unavailable: ") +
                              e.what());
  }
  if (!std::isfinite(r.reference_delay) || r.reference_delay <= 0.0) {
    return OracleResult::fail(
        format("analog: non-positive reference delay %g on %s",
               r.reference_delay, g.name.c_str()));
  }
  const ModelResult& rctree = r.model("rc-tree");
  if (!std::isfinite(rctree.delay) || rctree.delay <= 0.0) {
    return OracleResult::fail(format(
        "analog: rc-tree predicted %g s on %s", rctree.delay,
        g.name.c_str()));
  }
  if (std::abs(rctree.error_pct) > max_error_pct) {
    return OracleResult::fail(format(
        "analog: rc-tree off by %.1f%% (bound %.0f%%) on %s: predicted "
        "%.4g s vs reference %.4g s",
        rctree.error_pct, max_error_pct, g.name.c_str(), rctree.delay,
        r.reference_delay));
  }
  return OracleResult::pass();
}

namespace {

OracleResult eco_identity_under(const DelayModel& model,
                                const GeneratedCircuit& g,
                                const std::string& eco_script,
                                Seconds input_slope) {
  const Tech& tech = tech_for_style(g.style);
  Netlist nl = g.netlist;
  TimingAnalyzer inc(nl, tech, model);
  inc.add_input_event(g.input, Transition::kRise, 0.0, input_slope);
  inc.run();

  std::istringstream in(eco_script);
  apply_eco(in, nl, "<fuzz-eco>");

  bool inc_looped = false;
  std::string inc_error;
  try {
    inc.update();
  } catch (const Error& e) {
    inc_looped = true;
    inc_error = e.what();
  }

  TimingAnalyzer fresh(nl, tech, model);
  fresh.add_input_event(g.input, Transition::kRise, 0.0, input_slope);
  bool fresh_looped = false;
  try {
    fresh.run();
  } catch (const Error&) {
    fresh_looped = true;
  }
  if (inc_looped != fresh_looped) {
    return OracleResult::fail(format(
        "eco-identity: loop detection diverged under %s: update() %s, "
        "rebuild %s (%s)",
        model.name().c_str(), inc_looped ? "looped" : "converged",
        fresh_looped ? "looped" : "converged", inc_error.c_str()));
  }
  if (inc_looped) return OracleResult::pass();  // states are unspecified

  if (inc.stages().size() != fresh.stages().size()) {
    return OracleResult::fail(format("eco-identity: stage count %zu vs %zu",
                                     inc.stages().size(),
                                     fresh.stages().size()));
  }
  for (NodeId n : nl.all_nodes()) {
    for (Transition dir : {Transition::kRise, Transition::kFall}) {
      const auto a = inc.arrival(n, dir);
      const auto b = fresh.arrival(n, dir);
      const bool same =
          a.has_value() == b.has_value() &&
          (!a || (a->time == b->time && a->slope == b->slope &&
                  a->from_node == b->from_node &&
                  a->from_dir == b->from_dir &&
                  a->via_stage == b->via_stage));
      if (!same) {
        return OracleResult::fail(format(
            "eco-identity: arrival mismatch at %s %s under %s: "
            "update()=%s rebuild=%s",
            nl.node(n).name.c_str(), to_string(dir).c_str(),
            model.name().c_str(),
            a ? format("%.17g", a->time).c_str() : "none",
            b ? format("%.17g", b->time).c_str() : "none"));
      }
    }
  }
  return OracleResult::pass();
}

}  // namespace

OracleResult check_eco_identity(const GeneratedCircuit& g,
                                const std::string& eco_script,
                                Seconds input_slope) {
  const RcTreeModel rc_tree;
  const SlopeModel slope(fuzz_slope_tables());
  for (const DelayModel* model :
       {static_cast<const DelayModel*>(&rc_tree),
        static_cast<const DelayModel*>(&slope)}) {
    const OracleResult r =
        eco_identity_under(*model, g, eco_script, input_slope);
    if (!r.ok) return r;
  }
  return OracleResult::pass();
}

OracleResult check_snapshot_roundtrip(const GeneratedCircuit& g,
                                      Seconds input_slope) {
  const RcTreeModel model;
  const Tech& tech = tech_for_style(g.style);

  const std::shared_ptr<const CompiledDesign> compiled =
      CompiledDesign::compile(g.netlist, tech);
  LoadedDesign loaded;
  try {
    loaded = deserialize_design(serialize_design(*compiled),
                                "<roundtrip:" + g.name + ">");
  } catch (const Error& e) {
    return OracleResult::fail(
        std::string("snapshot-roundtrip: reload rejected its own "
                    "serialization: ") +
        e.what());
  }
  if (loaded.design->stages().size() != compiled->stages().size()) {
    return OracleResult::fail(format(
        "snapshot-roundtrip: %zu stage(s) reloaded vs %zu compiled",
        loaded.design->stages().size(), compiled->stages().size()));
  }

  TimingAnalyzer direct(g.netlist, tech, model);
  TimingAnalyzer reloaded(loaded.design, model);
  direct.add_all_input_events(input_slope);
  reloaded.add_all_input_events(input_slope);
  bool direct_looped = false;
  bool reloaded_looped = false;
  try {
    direct.run();
  } catch (const Error&) {
    direct_looped = true;
  }
  try {
    reloaded.run();
  } catch (const Error&) {
    reloaded_looped = true;
  }
  if (direct_looped != reloaded_looped) {
    return OracleResult::fail(format(
        "snapshot-roundtrip: loop detection diverged: direct %s, "
        "reloaded %s",
        direct_looped ? "looped" : "converged",
        reloaded_looped ? "looped" : "converged"));
  }
  if (direct_looped) return OracleResult::pass();  // states are unspecified

  for (NodeId n : g.netlist.all_nodes()) {
    for (Transition dir : {Transition::kRise, Transition::kFall}) {
      const auto a = direct.arrival(n, dir);
      const auto b = reloaded.arrival(n, dir);
      const bool same =
          a.has_value() == b.has_value() &&
          (!a || (a->time == b->time && a->slope == b->slope &&
                  a->from_node == b->from_node &&
                  a->from_dir == b->from_dir &&
                  a->via_stage == b->via_stage));
      if (!same) {
        return OracleResult::fail(format(
            "snapshot-roundtrip: arrival mismatch at %s %s: direct=%s "
            "reloaded=%s",
            g.netlist.node(n).name.c_str(), to_string(dir).c_str(),
            a ? format("%.17g", a->time).c_str() : "none",
            b ? format("%.17g", b->time).c_str() : "none"));
      }
    }
  }

  const auto worst = direct.worst_arrival(/*outputs_only=*/false);
  if (worst) {
    const auto pa = direct.critical_path(worst->node, worst->dir);
    const auto pb = reloaded.critical_path(worst->node, worst->dir);
    if (pa.size() != pb.size()) {
      return OracleResult::fail(
          format("snapshot-roundtrip: critical path length %zu vs %zu",
                 pa.size(), pb.size()));
    }
    for (std::size_t i = 0; i < pa.size(); ++i) {
      if (pa[i].node != pb[i].node || pa[i].dir != pb[i].dir ||
          pa[i].time != pb[i].time || pa[i].slope != pb[i].slope) {
        return OracleResult::fail(
            format("snapshot-roundtrip: critical path step %zu differs", i));
      }
    }
  }
  return OracleResult::pass();
}

}  // namespace sldm

// The incremental (ECO) timing contract: after any sequence of netlist
// edits, TimingAnalyzer::update() must leave the analyzer bit-identical
// to one constructed fresh over the mutated netlist and run from the
// same input events -- same stage list, same arrivals (time, slope, and
// predecessor provenance), same critical paths.  The fuzz test below
// drives every generator in src/gen through randomized edit batches
// (device resizes, capacitance changes, flow annotations, device adds
// with fresh nodes, value pinning) at 1 and 4 extraction threads.
// Batches of sizes and capacitances only take update()'s in-place
// re-bake; the tests below hold its store, table and trigger index to a
// fresh compile array for array, and pin the forward damage walk to the
// reverse-map closure it replaced.  The arrival self-consistency tests
// at the end hold every committed arrival to its predecessor's final
// value, and pin the slope model's update/rebuild mismatch on its
// witness to arrivals that fail that check.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "calib/calibrate.h"
#include "delay/lumped.h"
#include "delay/rctree.h"
#include "delay/slope.h"
#include "gen/generators.h"
#include "netlist/changes.h"
#include "netlist/eco_io.h"
#include "tech/tech.h"
#include "timing/analyzer.h"
#include "timing/ccc.h"
#include "util/error.h"
#include "util/trace.h"

namespace sldm {
namespace {

bool same_stage(const TimingStage& a, const TimingStage& b) {
  return a.source == b.source && a.destination == b.destination &&
         a.output_dir == b.output_dir &&
         std::ranges::equal(a.path, b.path) &&
         a.trigger == b.trigger &&
         a.trigger_gate_dir == b.trigger_gate_dir &&
         a.trigger_is_release == b.trigger_is_release &&
         a.source_triggered == b.source_triggered;
}

/// One circuit per generator in src/gen (mirrors parallel_timing_test).
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

/// Deterministic splitmix64 stream (no <random> so runs are identical
/// across standard libraries).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }

 private:
  std::uint64_t state_;
};

/// Edit kinds [0, 4) keep every stage path (sizes and capacitances);
/// [4, 8) may change paths (flow, device adds, pinning).
constexpr std::size_t kParametricKinds = 4;

/// Applies one random edit, drawn from kinds [first_kind, first_kind +
/// kinds); returns false if no applicable target was found (the caller
/// just draws again).
bool random_edit(Netlist& nl, Rng& rng, NodeId protect, int* new_nodes,
                 std::size_t first_kind = 0, std::size_t kinds = 8) {
  if (nl.device_count() == 0) return false;
  const DeviceId d(static_cast<std::uint32_t>(rng.below(nl.device_count())));
  const NodeId n(static_cast<std::uint32_t>(rng.below(nl.node_count())));
  switch (first_kind + rng.below(kinds)) {
    case 0:
      nl.set_width(d, nl.device(d).width * (rng.below(2) ? 2.0 : 0.5));
      return true;
    case 1:
      nl.set_length(d, nl.device(d).length * (rng.below(2) ? 1.5 : 0.75));
      return true;
    case 2:
      nl.set_capacitance(n, static_cast<double>(rng.below(200)) * 1e-15);
      return true;
    case 3:
      nl.add_cap(n, static_cast<double>(rng.below(50)) * 1e-15);
      return true;
    case 4: {
      static const Flow kFlows[] = {Flow::kBidirectional,
                                    Flow::kSourceToDrain,
                                    Flow::kDrainToSource};
      nl.set_flow(d, kFlows[rng.below(3)]);
      return true;
    }
    case 5: {  // add a device, sometimes onto a brand-new node
      const Transistor& t = nl.device(d);
      const NodeId gate = n;
      const NodeId source = t.source;
      NodeId drain = NodeId::invalid();
      if (rng.below(3) == 0) {
        drain = nl.add_node("eco_n" + std::to_string((*new_nodes)++));
      } else {
        drain = NodeId(static_cast<std::uint32_t>(rng.below(nl.node_count())));
        if (drain == source) return false;
        if (nl.is_rail(drain) && nl.is_rail(source)) return false;
      }
      const TransistorType type =
          nl.device(d).type;  // style-consistent by construction
      nl.add_transistor(type, gate, source, drain, 4e-6, 2e-6);
      return true;
    }
    case 6: {  // pin a node to a value
      if (n == protect || nl.is_rail(n)) return false;
      nl.set_fixed(n, rng.below(2) != 0);
      return true;
    }
    default: {  // free a pinned node
      if (nl.node(n).fixed < 0) return false;
      nl.set_fixed(n, std::nullopt);
      return true;
    }
  }
}

/// Runs a fresh analyzer over `nl`; nullopt if it reports a loop.
std::optional<TimingAnalyzer> fresh_run(const Netlist& nl, const Tech& tech,
                                        const DelayModel& model,
                                        const AnalyzerOptions& opts,
                                        NodeId input) {
  TimingAnalyzer fresh(nl, tech, model, opts);
  fresh.add_input_event(input, Transition::kRise, 0.0, 1e-9);
  try {
    fresh.run();
  } catch (const Error&) {
    return std::nullopt;
  }
  return fresh;
}

void expect_equivalent(const Netlist& nl, const TimingAnalyzer& inc,
                       const TimingAnalyzer& fresh, const std::string& tag) {
  ASSERT_EQ(inc.stages().size(), fresh.stages().size()) << tag;
  for (std::size_t i = 0; i < inc.stages().size(); ++i) {
    ASSERT_TRUE(same_stage(inc.stages()[i], fresh.stages()[i]))
        << tag << " stage " << i;
  }
  for (NodeId n : nl.all_nodes()) {
    for (Transition dir : {Transition::kRise, Transition::kFall}) {
      const auto a = inc.arrival(n, dir);
      const auto b = fresh.arrival(n, dir);
      ASSERT_EQ(a.has_value(), b.has_value())
          << tag << " node " << nl.node(n).name << ' ' << to_string(dir);
      if (!a) continue;
      ASSERT_EQ(a->time, b->time) << tag << ' ' << nl.node(n).name;
      ASSERT_EQ(a->slope, b->slope) << tag << ' ' << nl.node(n).name;
      ASSERT_EQ(a->from_node, b->from_node) << tag << ' ' << nl.node(n).name;
      ASSERT_EQ(a->from_dir, b->from_dir) << tag << ' ' << nl.node(n).name;
      ASSERT_EQ(a->via_stage, b->via_stage) << tag << ' ' << nl.node(n).name;
    }
  }
  const auto wi = inc.worst_arrival(/*outputs_only=*/false);
  const auto wf = fresh.worst_arrival(/*outputs_only=*/false);
  ASSERT_EQ(wi.has_value(), wf.has_value()) << tag;
  if (wi) {
    ASSERT_EQ(wi->node, wf->node) << tag;
    ASSERT_EQ(wi->dir, wf->dir) << tag;
    ASSERT_EQ(wi->time, wf->time) << tag;
    const auto pi = inc.critical_path(wi->node, wi->dir);
    const auto pf = fresh.critical_path(wf->node, wf->dir);
    ASSERT_EQ(pi.size(), pf.size()) << tag;
    for (std::size_t i = 0; i < pi.size(); ++i) {
      ASSERT_EQ(pi[i].node, pf[i].node) << tag << " path step " << i;
      ASSERT_EQ(pi[i].dir, pf[i].dir) << tag << " path step " << i;
      ASSERT_EQ(pi[i].time, pf[i].time) << tag << " path step " << i;
      ASSERT_EQ(pi[i].slope, pf[i].slope) << tag << " path step " << i;
      ASSERT_EQ(pi[i].description, pf[i].description)
          << tag << " path step " << i;
    }
  }
}

TEST(EcoTiming, UpdateBitIdenticalToRebuildUnderRandomEdits) {
  const RcTreeModel model;
  for (const int threads : {1, 4}) {
    for (const GeneratedCircuit& g : generator_suite()) {
      Netlist nl = g.netlist;  // mutable working copy
      AnalyzerOptions opts;
      opts.threads = threads;
      // Headroom over the default loop guard: update() and a rebuild
      // count arrival improvements along different schedules, so only
      // genuine loops may trip the limit in either.
      opts.max_updates_per_arrival = 512;

      TimingAnalyzer inc(nl, tech_for(g), model, opts);
      inc.add_input_event(g.input, Transition::kRise, 0.0, 1e-9);
      inc.run();

      Rng rng(0xC0FFEE ^ (static_cast<std::uint64_t>(threads) << 32) ^
              std::hash<std::string>{}(g.name));
      int new_nodes = 0;
      for (int step = 0; step < 10; ++step) {
        const std::size_t edits = 1 + rng.below(4);
        for (std::size_t e = 0; e < edits;) {
          if (random_edit(nl, rng, g.input, &new_nodes)) ++e;
        }
        const std::string tag = g.name + " threads=" +
                                std::to_string(threads) + " step=" +
                                std::to_string(step);
        bool inc_looped = false;
        try {
          inc.update();
        } catch (const Error&) {
          inc_looped = true;
        }
        const auto fresh =
            fresh_run(nl, tech_for(g), model, opts, g.input);
        ASSERT_EQ(inc_looped, !fresh.has_value())
            << tag << ": loop detection diverged between update() and "
                      "a full rebuild";
        if (inc_looped) break;  // analyzer state is unspecified now
        expect_equivalent(nl, inc, *fresh, tag);
      }
    }
  }
}

/// The byte extent of every array a StageStore or StageTable visits.
template <typename T>
std::vector<std::pair<const void*, std::size_t>> array_bytes(const T& x) {
  std::vector<std::pair<const void*, std::size_t>> out;
  x.for_each_array([&](const auto& v) {
    out.emplace_back(v.data(), v.size() * sizeof(v[0]));
  });
  return out;
}

/// `a` and `b` hold the same arrays, byte for byte.
template <typename T>
void expect_same_arrays(const T& a, const T& b, const std::string& tag) {
  const auto x = array_bytes(a);
  const auto y = array_bytes(b);
  ASSERT_EQ(x.size(), y.size()) << tag;
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_EQ(x[i].second, y[i].second) << tag << " array " << i;
    if (x[i].second == 0) continue;
    ASSERT_EQ(std::memcmp(x[i].first, y[i].first, x[i].second), 0)
        << tag << " array " << i;
  }
}

/// The compiled structure of `inc` (table, trigger index, store) equals
/// that of `fresh`, array for array.
void expect_same_structure(const TimingAnalyzer& inc,
                           const TimingAnalyzer& fresh,
                           const std::string& tag) {
  expect_same_arrays(inc.stages(), fresh.stages(), tag + " table");
  expect_same_arrays(inc.stage_store(), fresh.stage_store(), tag + " store");
  const TriggerIndex& a = inc.session().design().stages_by_trigger();
  const TriggerIndex& b = fresh.session().design().stages_by_trigger();
  ASSERT_EQ(a.key_count(), b.key_count()) << tag;
  for (std::size_t k = 0; k < a.key_count(); ++k) {
    ASSERT_TRUE(std::ranges::equal(a[k], b[k])) << tag << " key " << k;
  }
}

/// The update spans a traced update() of `an` opens.
std::string traced_update(TimingAnalyzer& an) {
  Tracer& tracer = Tracer::instance();
  tracer.clear();
  tracer.enable();
  an.update();
  tracer.disable();
  std::string json = tracer.to_json();
  tracer.clear();
  return json;
}

TEST(EcoTiming, ParametricBatchesRebakeInPlaceBitIdenticalToRebuild) {
  const RcTreeModel model;
  for (const int threads : {1, 4}) {
    for (const GeneratedCircuit& g : generator_suite()) {
      Netlist nl = g.netlist;
      AnalyzerOptions opts;
      opts.threads = threads;
      opts.max_updates_per_arrival = 512;
      TimingAnalyzer inc(nl, tech_for(g), model, opts);
      inc.add_input_event(g.input, Transition::kRise, 0.0, 1e-9);
      inc.run();

      Rng rng(0x5EED ^ (static_cast<std::uint64_t>(threads) << 32) ^
              std::hash<std::string>{}(g.name));
      int new_nodes = 0;
      for (int step = 0; step < 8; ++step) {
        const std::size_t edits = 1 + rng.below(4);
        for (std::size_t e = 0; e < edits;) {
          if (random_edit(nl, rng, g.input, &new_nodes, 0,
                          kParametricKinds)) {
            ++e;
          }
        }
        const std::string tag = g.name + " threads=" +
                                std::to_string(threads) + " step=" +
                                std::to_string(step);
        const std::string spans = traced_update(inc);
        ASSERT_NE(spans.find("\"update-rebake\""), std::string::npos)
            << tag;
        ASSERT_EQ(spans.find("\"update-splice\""), std::string::npos)
            << tag;
        const auto fresh = fresh_run(nl, tech_for(g), model, opts, g.input);
        ASSERT_TRUE(fresh.has_value()) << tag;
        expect_same_structure(inc, *fresh, tag);
        expect_equivalent(nl, inc, *fresh, tag);
        const AnalyzerStats& st = inc.stats();
        EXPECT_EQ(st.reused_stages + st.reextracted_stages,
                  inc.stages().size())
            << tag;
      }
    }
  }
}

TEST(EcoTiming, MixedBatchesTakeTheSplicePath) {
  const RcTreeModel model;
  for (const GeneratedCircuit& g : generator_suite()) {
    Netlist nl = g.netlist;
    AnalyzerOptions opts;
    opts.max_updates_per_arrival = 512;
    TimingAnalyzer inc(nl, tech_for(g), model, opts);
    inc.add_input_event(g.input, Transition::kRise, 0.0, 1e-9);
    inc.run();

    Rng rng(0x313ED ^ std::hash<std::string>{}(g.name));
    int new_nodes = 0;
    for (int step = 0; step < 6; ++step) {
      // One edit that keeps paths, one that may not.
      while (!random_edit(nl, rng, g.input, &new_nodes, 0,
                          kParametricKinds)) {
      }
      while (!random_edit(nl, rng, g.input, &new_nodes, kParametricKinds,
                          8 - kParametricKinds)) {
      }
      const std::string tag = g.name + " step=" + std::to_string(step);
      bool inc_looped = false;
      std::string spans;
      try {
        spans = traced_update(inc);
      } catch (const Error&) {
        Tracer::instance().disable();
        Tracer::instance().clear();
        inc_looped = true;
      }
      const auto fresh = fresh_run(nl, tech_for(g), model, opts, g.input);
      ASSERT_EQ(inc_looped, !fresh.has_value()) << tag;
      if (inc_looped) break;
      EXPECT_NE(spans.find("\"update-splice\""), std::string::npos) << tag;
      EXPECT_EQ(spans.find("\"update-rebake\""), std::string::npos) << tag;
      expect_same_structure(inc, *fresh, tag);
      expect_equivalent(nl, inc, *fresh, tag);
    }
  }
}

/// The damage closure the way update() used to compute it: a reverse
/// (predecessor -> successors) map over every key, then a BFS.
std::vector<std::uint32_t> reverse_map_closure(
    const std::vector<std::uint32_t>& from, const std::vector<char>& valid,
    const std::vector<std::uint32_t>& base) {
  std::vector<std::vector<std::uint32_t>> successors(from.size());
  for (std::size_t k = 0; k < from.size(); ++k) {
    if (valid[k] && from[k] != UINT32_MAX) {
      successors[from[k]].push_back(static_cast<std::uint32_t>(k));
    }
  }
  std::vector<char> seen(from.size(), 0);
  std::vector<std::uint32_t> out;
  for (const std::uint32_t k : base) {
    if (!seen[k]) {
      seen[k] = 1;
      out.push_back(k);
    }
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    for (const std::uint32_t succ : successors[out[i]]) {
      if (!seen[succ]) {
        seen[succ] = 1;
        out.push_back(succ);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(EcoTiming, ForwardDamageWalkMatchesReverseMap) {
  const RcTreeModel model;
  std::vector<GeneratedCircuit> circuits = generator_suite();
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    circuits.push_back(random_logic(Style::kCmos, 8, 12, seed));
  }
  for (const GeneratedCircuit& g : circuits) {
    TimingAnalyzer an(g.netlist, tech_for(g), model);
    an.add_all_input_events(1e-9);
    an.run();
    const Netlist& nl = an.netlist();
    const std::size_t nkeys = nl.node_count() * 2;
    std::vector<std::uint32_t> from(nkeys, UINT32_MAX);
    std::vector<char> valid(nkeys, 0);
    for (NodeId n : nl.all_nodes()) {
      for (const Transition dir : {Transition::kRise, Transition::kFall}) {
        const auto a = an.arrival(n, dir);
        if (!a) continue;
        valid[arrival_key(n, dir)] = 1;
        if (a->from_node.valid()) {
          from[arrival_key(n, dir)] = static_cast<std::uint32_t>(
              arrival_key(a->from_node, a->from_dir));
        }
      }
    }
    Rng rng(0xDA4A6E ^ std::hash<std::string>{}(g.name));
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<std::uint32_t> base;
      const std::size_t count = 1 + rng.below(4);
      for (std::size_t i = 0; i < count; ++i) {
        base.push_back(static_cast<std::uint32_t>(rng.below(nkeys)));
      }
      std::vector<char> damaged(nkeys, 0);
      std::vector<std::uint32_t> damage;
      for (const std::uint32_t k : base) {
        if (!damaged[k]) {
          damaged[k] = 1;
          damage.push_back(k);
        }
      }
      close_damage(an.stages(), an.session().design().stages_by_trigger(),
                   from, valid, damaged, damage);
      std::sort(damage.begin(), damage.end());
      EXPECT_EQ(damage, reverse_map_closure(from, valid, base))
          << g.name << " trial " << trial;
    }
  }
}

TEST(EcoTiming, UpdateIsNoOpWhenSynced) {
  const RcTreeModel model;
  const GeneratedCircuit g = inverter_chain(Style::kCmos, 4, 1);
  TimingAnalyzer an(g.netlist, tech_for(g), model);
  an.add_input_event(g.input, Transition::kRise, 0.0, 1e-9);
  an.run();
  const auto before = an.worst_arrival(false);
  an.update();  // no edits recorded: must be a fast-path no-op
  EXPECT_EQ(an.stats().incremental_updates, 0u);
  const auto after = an.worst_arrival(false);
  ASSERT_TRUE(before && after);
  EXPECT_EQ(before->time, after->time);
}

TEST(EcoTiming, SingleDeviceEditDirtiesOneComponentAndReusesTheRest) {
  const RcTreeModel model;
  const GeneratedCircuit g = inverter_chain(Style::kCmos, 8, 3);
  Netlist nl = g.netlist;
  TimingAnalyzer an(nl, tech_for(g), model);
  an.add_input_event(g.input, Transition::kRise, 0.0, 1e-9);
  an.run();
  const std::size_t total_stages = an.stages().size();

  // Resizing one inverter's pull-down dirties the components its
  // terminals touch; the rest of the chain is carried over verbatim.
  nl.set_width(DeviceId(0), nl.device(DeviceId(0)).width * 2.0);
  an.update();
  const AnalyzerStats& st = an.stats();
  EXPECT_EQ(st.incremental_updates, 1u);
  EXPECT_GE(st.dirty_cccs, 1u);
  EXPECT_LT(st.dirty_cccs, st.ccc_count);
  EXPECT_GT(st.reused_stages, 0u);
  EXPECT_GT(st.reextracted_stages, 0u);
  EXPECT_EQ(st.reused_stages + st.reextracted_stages, an.stages().size());
  EXPECT_EQ(an.stages().size(), total_stages);  // resize adds no stages
  EXPECT_GT(st.frontier_keys, 0u);
}

TEST(EcoTiming, CccUpdateMatchesFreshPartition) {
  for (const GeneratedCircuit& g : generator_suite()) {
    Netlist nl = g.netlist;
    CccPartition ccc(nl);
    const std::uint64_t since = nl.revision();

    Rng rng(0xDECAF ^ std::hash<std::string>{}(g.name));
    int new_nodes = 0;
    for (int e = 0; e < 8;) {
      if (random_edit(nl, rng, g.input, &new_nodes)) ++e;
    }
    const auto dirty = ccc.update(nl, nl.changes(), since);
    const CccPartition fresh(nl);

    ASSERT_EQ(ccc.count(), fresh.count()) << g.name;
    for (NodeId n : nl.all_nodes()) {
      EXPECT_EQ(ccc.component_of(n), fresh.component_of(n))
          << g.name << " node " << nl.node(n).name;
    }
    for (std::size_t c = 0; c < ccc.count(); ++c) {
      EXPECT_EQ(ccc.members(c), fresh.members(c)) << g.name;
      EXPECT_EQ(ccc.device_count(c), fresh.device_count(c)) << g.name;
    }
    // Dirty ids are valid, ascending, and unique.
    for (std::size_t i = 0; i < dirty.size(); ++i) {
      EXPECT_LT(dirty[i], ccc.count()) << g.name;
      if (i > 0) {
        EXPECT_LT(dirty[i - 1], dirty[i]) << g.name;
      }
    }
  }
}

TEST(EcoTiming, DeviceAddMergesComponents) {
  const GeneratedCircuit g = inverter_chain(Style::kCmos, 4, 1);
  Netlist nl = g.netlist;
  CccPartition ccc(nl);
  const std::uint64_t since = nl.revision();
  ASSERT_GE(ccc.count(), 2u);

  // Bridge the first two inverter outputs with a pass transistor: their
  // components must merge, exactly as a fresh partition sees it.
  const NodeId s1 = *nl.find_node("s1");
  const NodeId s2 = *nl.find_node("s2");
  ASSERT_NE(ccc.component_of(s1), ccc.component_of(s2));
  nl.add_transistor(TransistorType::kNEnhancement, g.input, s1, s2, 4e-6,
                    2e-6);
  ccc.update(nl, nl.changes(), since);
  const CccPartition fresh(nl);
  EXPECT_EQ(ccc.component_of(s1), ccc.component_of(s2));
  ASSERT_EQ(ccc.count(), fresh.count());
  for (NodeId n : nl.all_nodes()) {
    EXPECT_EQ(ccc.component_of(n), fresh.component_of(n));
  }
}

TEST(EcoTiming, StaleAnalyzerRefusesToRunOrSeed) {
  const RcTreeModel model;
  const GeneratedCircuit g = inverter_chain(Style::kCmos, 3, 1);
  Netlist nl = g.netlist;
  TimingAnalyzer an(nl, tech_for(g), model);
  nl.set_width(DeviceId(0), 8e-6);
  EXPECT_THROW(an.add_input_event(g.input, Transition::kRise, 0.0, 1e-9),
               Error);
  EXPECT_THROW(an.add_all_input_events(1e-9), Error);
  EXPECT_THROW(an.run(), Error);
  an.update();  // structure-only update before any run(): re-syncs
  an.add_input_event(g.input, Transition::kRise, 0.0, 1e-9);
  an.run();
  TimingAnalyzer fresh(nl, tech_for(g), model);
  fresh.add_input_event(g.input, Transition::kRise, 0.0, 1e-9);
  fresh.run();
  expect_equivalent(nl, an, fresh, "structure-only update");
}

TEST(EcoTiming, RoleChangeRequiresRebuild) {
  const RcTreeModel model;
  const GeneratedCircuit g = inverter_chain(Style::kCmos, 3, 1);
  Netlist nl = g.netlist;
  TimingAnalyzer an(nl, tech_for(g), model);
  an.add_input_event(g.input, Transition::kRise, 0.0, 1e-9);
  an.run();
  nl.mark_input("s1");
  EXPECT_THROW(an.update(), Error);
}

TEST(EcoTiming, StatsAccumulateAcrossRunResetAndTrackSplicedStages) {
  const RcTreeModel model;
  const GeneratedCircuit g = inverter_chain(Style::kCmos, 8, 3);
  Netlist nl = g.netlist;
  TimingAnalyzer an(nl, tech_for(g), model);
  an.add_input_event(g.input, Transition::kRise, 0.0, 1e-9);
  an.run();

  const AnalyzerStats first = an.stats();  // snapshot, not the view
  EXPECT_GT(first.stage_evaluations, 0u);
  EXPECT_GT(first.worklist_pushes, 0u);
  EXPECT_GT(first.arrival_updates, 0u);
  EXPECT_GT(first.propagate_seconds, 0.0);

  // reset() discards arrivals but keeps the extraction; the propagation
  // counters keep accumulating over the second run.
  an.reset();
  an.add_input_event(g.input, Transition::kRise, 0.0, 1e-9);
  an.run();
  const AnalyzerStats second = an.stats();
  EXPECT_GT(second.stage_evaluations, first.stage_evaluations);
  EXPECT_GT(second.worklist_pushes, first.worklist_pushes);
  EXPECT_GT(second.arrival_updates, first.arrival_updates);
  EXPECT_EQ(second.stage_count, first.stage_count);
  EXPECT_EQ(second.extract_seconds, first.extract_seconds);

  // An edit batch that both resizes devices and grows the netlist; the
  // per-CCC census must describe the spliced stage list exactly.
  nl.set_width(DeviceId(0), nl.device(DeviceId(0)).width * 2.0);
  const NodeId s4 = *nl.find_node("s4");
  const NodeId tap = nl.add_node("stats_tap");
  nl.add_transistor(TransistorType::kNEnhancement, g.input, s4, tap, 4e-6,
                    2e-6);
  an.update();

  const AnalyzerStats& st = an.stats();
  EXPECT_GT(st.stage_evaluations, second.stage_evaluations);
  EXPECT_EQ(st.incremental_updates, 1u);
  EXPECT_EQ(st.stage_count, an.stages().size());
  EXPECT_EQ(st.ccc_count, an.components().count());
  ASSERT_EQ(st.stages_per_ccc.size(), st.ccc_count);
  std::vector<std::size_t> census(st.ccc_count, 0);
  for (const TimingStage& ts : an.stages()) {
    ++census[an.components().component_of(ts.destination)];
  }
  EXPECT_EQ(census, st.stages_per_ccc);
  std::size_t sum = 0;
  for (const std::size_t n : st.stages_per_ccc) sum += n;
  EXPECT_EQ(sum, st.stage_count);

  // The registry and the view agree (the struct is a projection of it).
  const MetricsRegistry& m = an.metrics();
  EXPECT_EQ(m.find_counter("propagate.stage_evaluations")->value(),
            st.stage_evaluations);
  EXPECT_EQ(m.find_counter("propagate.worklist_pushes")->value(),
            st.worklist_pushes);
  EXPECT_EQ(m.find_counter("eco.updates")->value(), st.incremental_updates);
}

TEST(EcoTiming, OutputMarkIsAbsorbedSilently) {
  const RcTreeModel model;
  const GeneratedCircuit g = inverter_chain(Style::kCmos, 3, 1);
  Netlist nl = g.netlist;
  TimingAnalyzer an(nl, tech_for(g), model);
  an.add_input_event(g.input, Transition::kRise, 0.0, 1e-9);
  an.run();
  nl.mark_output("s1");  // reporting-only attribute: no re-extraction
  an.update();
  EXPECT_EQ(an.stats().incremental_updates, 1u);
  EXPECT_EQ(an.stats().dirty_cccs, 0u);
}

/// The arrival keys that their recorded predecessor's *final* arrival
/// does not reproduce: time != pred.time + delay(stage, pred.slope), or
/// slope != the stage's output slope at pred.slope.  A fixpoint whose
/// every arrival is the maximum over its predecessors' final values has
/// none.
std::vector<std::size_t> inconsistent_arrivals(const TimingAnalyzer& an) {
  std::vector<std::size_t> out;
  const Netlist& nl = an.netlist();
  for (NodeId n : nl.all_nodes()) {
    for (const Transition dir : {Transition::kRise, Transition::kFall}) {
      const auto a = an.arrival(n, dir);
      if (!a || a->via_stage == SIZE_MAX) continue;
      const auto pred = an.arrival(a->from_node, a->from_dir);
      if (!pred) {  // a dangling predecessor link fails the check too
        out.push_back(arrival_key(n, dir));
        continue;
      }
      const auto id = static_cast<StageStore::StageId>(a->via_stage);
      const Seconds slope = pred->slope;
      DelayEstimate est;
      an.delay_model().estimate_batch(an.stage_store(), {&id, 1},
                                      {&slope, 1}, {&est, 1});
      if (pred->time + est.delay != a->time ||
          est.output_slope != a->slope) {
        out.push_back(arrival_key(n, dir));
      }
    }
  }
  return out;
}

// Under a model whose delay does not depend on the input slope, a later
// predecessor arrival always yields a later candidate, so every
// committed arrival is its predecessor's final value plus the stage
// delay -- after a full run and after every incremental update.
TEST(EcoTiming, ArrivalsFollowTheirPredecessorsFinalValues) {
  const RcTreeModel rc_tree;
  const LumpedRcModel lumped;
  for (const DelayModel* model : {static_cast<const DelayModel*>(&rc_tree),
                                  static_cast<const DelayModel*>(&lumped)}) {
    for (const GeneratedCircuit& g : generator_suite()) {
      Netlist nl = g.netlist;
      AnalyzerOptions opts;
      opts.max_updates_per_arrival = 512;
      TimingAnalyzer an(nl, tech_for(g), *model, opts);
      an.add_all_input_events(1e-9);
      an.run();
      const std::string tag = g.name + " " + model->name();
      EXPECT_EQ(inconsistent_arrivals(an), std::vector<std::size_t>{})
          << tag << " after run()";
      Rng rng(0x5E1F ^ std::hash<std::string>{}(tag));
      int new_nodes = 0;
      for (int step = 0; step < 6; ++step) {
        for (int e = 0; e < 2;) {
          if (random_edit(nl, rng, g.input, &new_nodes)) ++e;
        }
        try {
          an.update();
        } catch (const Error&) {
          break;  // a loop: the analyzer state is unspecified now
        }
        EXPECT_EQ(inconsistent_arrivals(an), std::vector<std::size_t>{})
            << tag << " after update " << step;
      }
    }
  }
}

// The slope model's ECO witness: one `length` edit on the 54k cmos
// random_logic design makes update() disagree with a rebuild at three
// arrivals.  Diagnosis: under the slope model a predecessor's arrival
// can be superseded by a later one with a *faster* edge, whose
// candidate downstream is earlier than the one its superseded value
// produced; the commit keeps the larger time, so the downstream arrival
// is a maximum no final arrival produces.  Whether that happens depends
// on drain order, which differs between update() and a rebuild.  This
// test holds the witness to that account: the rebuild is
// self-consistent, every update arrival that is not is *later* than
// what its predecessor's final value produces, and every mismatching
// arrival descends from one of them.  (Were propagation made
// order-independent, the mismatches and this test's premises would
// vanish together.)
TEST(EcoTiming, SlopeModelMismatchesDescendFromSupersededPredecessors) {
  GeneratedCircuit g = random_logic(Style::kCmos, 64, 256, 5);
  Netlist& nl = g.netlist;
  const CalibrationResult cal = calibrate(cmos3(), Style::kCmos);
  const SlopeModel model(cal.tables);
  TimingAnalyzer inc(nl, cal.tech, model);
  inc.add_all_input_events(1e-9);
  inc.run();
  std::istringstream edit("length in23 gnd g0_1 4\n");
  ASSERT_EQ(apply_eco(edit, nl, "<witness>"), 1u);
  inc.update();
  TimingAnalyzer fresh(nl, cal.tech, model);
  fresh.add_all_input_events(1e-9);
  fresh.run();

  EXPECT_EQ(inconsistent_arrivals(fresh), std::vector<std::size_t>{});
  const std::vector<std::size_t> phantoms = inconsistent_arrivals(inc);
  std::vector<char> phantom(nl.node_count() * 2, 0);
  for (const std::size_t k : phantoms) {
    phantom[k] = 1;
    const NodeId n(static_cast<std::uint32_t>(k / 2));
    const Transition dir = k % 2 == 0 ? Transition::kRise : Transition::kFall;
    const auto a = inc.arrival(n, dir);
    const auto pred = inc.arrival(a->from_node, a->from_dir);
    const auto id = static_cast<StageStore::StageId>(a->via_stage);
    const Seconds slope = pred->slope;
    DelayEstimate est;
    model.estimate_batch(inc.stage_store(), {&id, 1}, {&slope, 1}, {&est, 1});
    EXPECT_GT(a->time, pred->time + est.delay) << nl.node(n).name;
  }
  std::vector<std::string> mismatches;
  for (NodeId n : nl.all_nodes()) {
    for (const Transition dir : {Transition::kRise, Transition::kFall}) {
      const auto a = inc.arrival(n, dir);
      const auto b = fresh.arrival(n, dir);
      if (a.has_value() == b.has_value() &&
          (!a || (a->time == b->time && a->slope == b->slope))) {
        continue;
      }
      mismatches.push_back(nl.node(n).name.str() + " " +
                           std::string(to_string(dir)));
      ASSERT_TRUE(a.has_value()) << mismatches.back();
      bool descends = false;
      NodeId cur = n;
      Transition cur_dir = dir;
      for (auto at = a; at && !descends; at = inc.arrival(cur, cur_dir)) {
        descends = phantom[arrival_key(cur, cur_dir)] != 0;
        if (!at->from_node.valid()) break;
        cur = at->from_node;
        cur_dir = at->from_dir;
      }
      EXPECT_TRUE(descends) << mismatches.back();
    }
  }
  // Recorded at the time of writing: g7_85 fall (the one phantom),
  // g8_125 rise and pu1431 rise (fed by it).
  EXPECT_LE(mismatches.size(), 3u);
}

}  // namespace
}  // namespace sldm

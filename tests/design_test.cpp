// The CompiledDesign / Session split: N concurrent sessions over one
// shared immutable design must be bit-identical to N independent cold
// analyzers, and the single-writer ECO discipline must hold (update()
// refuses while share_design() handles are outstanding).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "delay/lumped.h"
#include "delay/rctree.h"
#include "delay/slope.h"
#include "design/compiled_design.h"
#include "design/session.h"
#include "design/snapshot.h"
#include "gen/generators.h"
#include "netlist/eco_io.h"
#include "netlist/sim_io.h"
#include "tech/tech.h"
#include "timing/analyzer.h"
#include "util/error.h"

namespace sldm {
namespace {

constexpr Seconds kSlope = 1e-9;

const Tech& tech_for(const GeneratedCircuit& g) {
  static const Tech nmos = nmos4();
  static const Tech cmos = cmos3();
  return g.style == Style::kNmos ? nmos : cmos;
}

/// Every arrival of `session` bit-equal to `reference`'s.
void expect_same_arrivals(const Netlist& nl, const Session& session,
                          const TimingAnalyzer& reference) {
  for (NodeId n : nl.all_nodes()) {
    for (Transition dir : {Transition::kRise, Transition::kFall}) {
      const auto a = session.arrival(n, dir);
      const auto b = reference.arrival(n, dir);
      ASSERT_EQ(a.has_value(), b.has_value())
          << nl.node(n).name << ' ' << to_string(dir);
      if (!a) continue;
      EXPECT_EQ(a->time, b->time);
      EXPECT_EQ(a->slope, b->slope);
      EXPECT_EQ(a->from_node, b->from_node);
      EXPECT_EQ(a->from_dir, b->from_dir);
      EXPECT_EQ(a->via_stage, b->via_stage);
    }
  }
}

TEST(Design, CompileOwnsItsInputs) {
  std::shared_ptr<const CompiledDesign> design;
  {
    const GeneratedCircuit g = inverter_chain(Style::kCmos, 5, 2);
    design = CompiledDesign::compile(g.netlist, tech_for(g));
    // g (and its netlist) die here; the design must not care.
  }
  EXPECT_TRUE(design->owns_netlist());
  EXPECT_GT(design->stages().size(), 0u);
  EXPECT_EQ(design->stage_store().size(), design->stages().size());
  EXPECT_EQ(design->built_revision(), design->netlist().revision());

  const RcTreeModel model;
  Session session(design, model);
  session.add_all_input_events(kSlope);
  session.run();
  EXPECT_TRUE(session.worst_arrival(false).has_value());
}

TEST(Design, FingerprintSeparatesTechnologies) {
  EXPECT_EQ(tech_fingerprint(nmos4()), tech_fingerprint(nmos4()));
  EXPECT_NE(tech_fingerprint(nmos4()), tech_fingerprint(cmos3()));
  Tech tweaked = nmos4();
  tweaked.params(TransistorType::kNEnhancement).vt += 1e-6;
  EXPECT_NE(tech_fingerprint(nmos4()), tech_fingerprint(tweaked));
}

/// A netlist as its node and device records in id order, editable one
/// field at a time and assembled back into a Netlist.
struct NetlistRecords {
  struct NodeRecord {
    std::string name;
    Node fields;  ///< everything but the name
  };
  std::vector<NodeRecord> nodes;
  std::vector<Transistor> devices;

  explicit NetlistRecords(const Netlist& nl) {
    for (const NodeId id : nl.all_nodes()) {
      nodes.push_back({nl.node(id).name.str(), nl.node(id)});
    }
    for (const DeviceId id : nl.all_devices()) {
      devices.push_back(nl.device(id));
    }
  }

  Netlist assemble() const {
    Netlist nl;
    for (const NodeRecord& r : nodes) {
      Node& n = nl.node(nl.add_node(r.name));
      const Symbol name = n.name;
      n = r.fields;
      n.name = name;
    }
    for (const Transistor& t : devices) {
      nl.add_transistor(t.type, t.gate, t.source, t.drain, t.width, t.length,
                        t.flow);
    }
    return nl;
  }
};

Netlist parse_sim(const std::string& text) {
  std::istringstream in(text);
  return read_sim(in);
}

/// A node id other than `a` and `b`, in a netlist of `count` nodes.
NodeId node_other_than(NodeId a, NodeId b, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    const NodeId n(static_cast<NodeId::underlying_type>(i));
    if (n != a && n != b) return n;
  }
  ADD_FAILURE() << "no third node";
  return a;
}

// The fingerprint's contract (compiled_design.h): it changes with every
// field an analysis reads, and every route to the same design -- .sim
// parse, write_sim round trip, .sldc save/load, ECO edits -- arrives at
// the same value.
TEST(Design, FingerprintCoversEveryAnalysisInput) {
  const GeneratedCircuit g = random_logic(Style::kNmos, 3, 4, 11);
  const Tech tech = nmos4();
  std::ostringstream text;
  write_sim(g.netlist, text);
  const Netlist parsed = parse_sim(text.str());
  const NetlistRecords base(parsed);
  const std::uint64_t base_fp = design_fingerprint(parsed, tech);
  ASSERT_EQ(design_fingerprint(base.assemble(), tech), base_fp);
  ASSERT_GE(base.devices.size(), 2u);

  // One-field edits, each applied to a fresh copy of the records.
  using Edit = void (*)(NetlistRecords&);
  const std::pair<const char*, Edit> edits[] = {
      {"node name", [](NetlistRecords& r) { r.nodes[2].name += "_x"; }},
      // Records longer than the fingerprint's packing buffer.
      {"long node name",
       [](NetlistRecords& r) { r.nodes[2].name += std::string(5000, 'x'); }},
      {"long node name, last byte",
       [](NetlistRecords& r) {
         r.nodes[2].name += std::string(4999, 'x') + "y";
       }},
      {"node cap",
       [](NetlistRecords& r) {
         Farads& cap = r.nodes[2].fields.cap;
         cap = std::nextafter(cap, 1.0);
       }},
      {"power flag",
       [](NetlistRecords& r) { r.nodes[2].fields.is_power ^= true; }},
      {"ground flag",
       [](NetlistRecords& r) { r.nodes[2].fields.is_ground ^= true; }},
      {"input flag",
       [](NetlistRecords& r) { r.nodes[2].fields.is_input ^= true; }},
      {"output flag",
       [](NetlistRecords& r) { r.nodes[2].fields.is_output ^= true; }},
      {"precharged flag",
       [](NetlistRecords& r) { r.nodes[2].fields.is_precharged ^= true; }},
      {"pinned 0", [](NetlistRecords& r) { r.nodes[2].fields.fixed = 0; }},
      {"pinned 1", [](NetlistRecords& r) { r.nodes[2].fields.fixed = 1; }},
      {"device type",
       [](NetlistRecords& r) {
         TransistorType& type = r.devices[0].type;
         type = type == TransistorType::kNEnhancement
                    ? TransistorType::kNDepletion
                    : TransistorType::kNEnhancement;
       }},
      {"device gate",
       [](NetlistRecords& r) {
         Transistor& t = r.devices[0];
         t.gate = node_other_than(t.gate, t.gate, r.nodes.size());
       }},
      {"device source",
       [](NetlistRecords& r) {
         Transistor& t = r.devices[0];
         t.source = node_other_than(t.source, t.drain, r.nodes.size());
       }},
      {"device drain",
       [](NetlistRecords& r) {
         Transistor& t = r.devices[0];
         t.drain = node_other_than(t.source, t.drain, r.nodes.size());
       }},
      {"device width",
       [](NetlistRecords& r) {
         Meters& w = r.devices[0].width;
         w = std::nextafter(w, 1.0);
       }},
      {"device length",
       [](NetlistRecords& r) {
         Meters& l = r.devices[0].length;
         l = std::nextafter(l, 1.0);
       }},
      {"device flow",
       [](NetlistRecords& r) {
         r.devices[0].flow = Flow::kSourceToDrain;
       }},
      {"device order",
       [](NetlistRecords& r) { std::swap(r.devices[0], r.devices[1]); }},
  };
  ASSERT_EQ(base.nodes[2].fields.fixed, -1);
  ASSERT_EQ(base.devices[0].flow, Flow::kBidirectional);
  std::map<std::uint64_t, std::string> seen = {{base_fp, "base"}};
  for (const auto& [what, edit] : edits) {
    NetlistRecords edited = base;
    edit(edited);
    const std::uint64_t fp = design_fingerprint(edited.assemble(), tech);
    const auto [it, fresh] = seen.emplace(fp, what);
    EXPECT_TRUE(fresh) << what << " fingerprints like " << it->second;
  }

  // Routes to one design.  The .sim text parses to it with CRLF line
  // ends and an extra comment too, and so does its write_sim round trip.
  std::string crlf = "| a comment\n" + text.str();
  for (std::size_t at = crlf.find('\n'); at != std::string::npos;
       at = crlf.find('\n', at + 2)) {
    crlf.insert(at, "\r");
  }
  EXPECT_EQ(design_fingerprint(parse_sim(crlf), tech), base_fp);
  EXPECT_EQ(design_fingerprint(reparse(parsed), tech), base_fp);

  const std::string path =
      ::testing::TempDir() + "sldm_design_fingerprint.sldc";
  save_design_file(*CompiledDesign::compile(parsed, tech), path);
  const LoadedDesign loaded = load_design_file(path);
  std::remove(path.c_str());
  EXPECT_EQ(design_fingerprint(loaded.design->netlist(),
                               loaded.design->tech()),
            base_fp);

  // ECO edits and the same edits written into the .sim text.
  const std::string n1 = base.nodes[3].name;
  const std::string n2 = base.nodes[4].name;
  const std::string gate = g.netlist.node(g.input).name.str();
  Netlist eco_edited = parsed;
  std::istringstream script("addcap " + n1 + " 2.5\nset " + n2 +
                            " 1\nnode extra\ntransistor e " + gate +
                            " extra " + n1 + " 2 4 flow=s>d\n");
  ASSERT_EQ(apply_eco(script, eco_edited), 4u);
  const Netlist sim_edited =
      parse_sim(text.str() + "c " + n1 + " 2.5\n@set " + n2 + "=1\ne " +
                gate + " extra " + n1 + " 2 4 flow=s>d\n");
  const std::uint64_t eco_fp = design_fingerprint(eco_edited, tech);
  EXPECT_NE(eco_fp, base_fp);
  EXPECT_EQ(design_fingerprint(sim_edited, tech), eco_fp);
}

// The fingerprint of the checked-in sample under nmos4, as 16 hex
// digits: the value FORMATS.md sections 9 and 12 show.  It changes
// only with the fingerprint's definition, which is a version bump.
TEST(Design, FingerprintIsPinned) {
  const Netlist nl = read_sim_file(std::string(SLDM_SOURCE_DIR) +
                                   "/testdata/sample_datapath.sim");
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(
                    design_fingerprint(nl, nmos4())));
  EXPECT_STREQ(hex, "be9c2bb5d26c4be1");
}

// The ISSUE acceptance test: two (here three) sessions with *different*
// delay models run concurrently over one shared CompiledDesign, and
// each matches an independent cold analyzer over the same netlist.
TEST(Design, ConcurrentSessionsMatchIndependentColdRuns) {
  const GeneratedCircuit g = barrel_shifter(Style::kCmos, 4);
  const Tech& tech = tech_for(g);
  const std::shared_ptr<const CompiledDesign> design =
      CompiledDesign::compile(g.netlist, tech);

  const RcTreeModel rctree;
  const LumpedRcModel lumped;
  const SlopeModel slope(SlopeTables::unit());
  const DelayModel* const models[] = {&rctree, &lumped, &slope};

  std::vector<std::unique_ptr<Session>> sessions;
  for (const DelayModel* model : models) {
    sessions.push_back(std::make_unique<Session>(design, *model));
  }
  std::vector<std::thread> workers;
  workers.reserve(sessions.size());
  for (auto& session : sessions) {
    workers.emplace_back([&session] {
      session->add_all_input_events(kSlope);
      session->run();
    });
  }
  for (auto& w : workers) w.join();

  for (std::size_t i = 0; i < sessions.size(); ++i) {
    TimingAnalyzer cold(g.netlist, tech, *models[i]);
    cold.add_all_input_events(kSlope);
    cold.run();
    expect_same_arrivals(g.netlist, *sessions[i], cold);
    // Work accounting is per-session state, not shared through the
    // design.
    EXPECT_EQ(sessions[i]->stage_evaluations(), cold.stage_evaluations());
  }
}

TEST(Design, UpdateRefusesWhileDesignIsShared) {
  const GeneratedCircuit g = inverter_chain(Style::kCmos, 4, 2);
  Netlist nl = g.netlist;
  const Tech& tech = tech_for(g);
  const RcTreeModel model;

  TimingAnalyzer analyzer(nl, tech, model);
  analyzer.add_all_input_events(kSlope);
  analyzer.run();

  auto handle = analyzer.share_design();
  nl.set_capacitance(*nl.find_node("s1"), 10e-15);
  EXPECT_THROW(analyzer.update(), Error);

  // Dropping the outstanding handle restores exclusive ownership.
  handle.reset();
  analyzer.update();
  EXPECT_TRUE(analyzer.worst_arrival(false).has_value());
}

TEST(Design, SessionRefusesToRunOutOfSync) {
  const GeneratedCircuit g = inverter_chain(Style::kCmos, 4, 2);
  Netlist nl = g.netlist;
  const RcTreeModel model;
  TimingAnalyzer analyzer(nl, g.style == Style::kNmos ? nmos4() : cmos3(),
                          model);
  analyzer.add_all_input_events(kSlope);
  nl.set_capacitance(*nl.find_node("s1"), 10e-15);
  EXPECT_THROW(analyzer.run(), Error);  // design is stale: update() first
  analyzer.update();
  analyzer.run();
  EXPECT_TRUE(analyzer.worst_arrival(false).has_value());
}

TEST(Design, MutableNetlistRequiresOwnership) {
  const GeneratedCircuit g = inverter_chain(Style::kCmos, 3, 1);
  const RcTreeModel model;
  TimingAnalyzer borrowed(g.netlist, tech_for(g), model);
  EXPECT_THROW(borrowed.mutable_netlist(), Error);
}

}  // namespace
}  // namespace sldm

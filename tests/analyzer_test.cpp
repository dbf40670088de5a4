// Tests for the static timing analyzer: arrival propagation, critical
// paths, worst-arrival queries, and loop detection.
#include <gtest/gtest.h>

#include "delay/lumped.h"
#include "delay/rctree.h"
#include "delay/slope.h"
#include "util/contracts.h"
#include "gen/generators.h"
#include "tech/tech.h"
#include "timing/analyzer.h"
#include "timing/report.h"
#include "util/error.h"
#include "util/strings.h"
#include "util/units.h"

namespace sldm {
namespace {

using namespace units;

TEST(Analyzer, ChainArrivalsAreMonotone) {
  const Tech tech = nmos4();
  const RcTreeModel model;
  const GeneratedCircuit g = inverter_chain(Style::kNmos, 4, 1);
  TimingAnalyzer an(g.netlist, tech, model);
  an.add_input_event(g.input, Transition::kRise, 0.0, 1e-9);
  an.run();

  Seconds prev = 0.0;
  for (int i = 1; i <= 4; ++i) {
    const NodeId n = *g.netlist.find_node(format("s%d", i));
    const Transition dir =
        (i % 2 == 1) ? Transition::kFall : Transition::kRise;
    const auto info = an.arrival(n, dir);
    ASSERT_TRUE(info.has_value()) << "stage " << i;
    EXPECT_GT(info->time, prev) << "stage " << i;
    EXPECT_GT(info->slope, 0.0);
    prev = info->time;
  }
}

TEST(Analyzer, OnlySeededDirectionPropagates) {
  const Tech tech = nmos4();
  const RcTreeModel model;
  const GeneratedCircuit g = inverter_chain(Style::kNmos, 2, 1);
  TimingAnalyzer an(g.netlist, tech, model);
  an.add_input_event(g.input, Transition::kRise, 0.0, 1e-9);
  an.run();
  const NodeId s1 = *g.netlist.find_node("s1");
  EXPECT_TRUE(an.arrival(s1, Transition::kFall).has_value());
  EXPECT_FALSE(an.arrival(s1, Transition::kRise).has_value())
      << "input never falls, so s1 never rises";
}

TEST(Analyzer, CriticalPathWalksBackToInput) {
  const Tech tech = nmos4();
  const RcTreeModel model;
  const GeneratedCircuit g = inverter_chain(Style::kNmos, 3, 2);
  TimingAnalyzer an(g.netlist, tech, model);
  an.add_input_event(g.input, Transition::kRise, 0.0, 1e-9);
  an.run();

  const auto worst = an.worst_arrival(/*outputs_only=*/true);
  ASSERT_TRUE(worst.has_value());
  const auto path = an.critical_path(worst->node, worst->dir);
  ASSERT_EQ(path.size(), 4u) << "input + 3 stages";
  EXPECT_EQ(path.front().node, g.input);
  EXPECT_EQ(path.front().description, "<- input");
  EXPECT_EQ(path.back().node, worst->node);
  for (std::size_t i = 1; i < path.size(); ++i) {
    EXPECT_GT(path[i].time, path[i - 1].time);
  }
  EXPECT_FALSE(format_path(g.netlist, path).empty());
}

TEST(Analyzer, WorstArrivalOutputsOnlyVsAll) {
  const Tech tech = nmos4();
  const RcTreeModel model;
  // fanout loads are not outputs; with outputs_only=false they count.
  const GeneratedCircuit g = inverter_chain(Style::kNmos, 2, 3);
  TimingAnalyzer an(g.netlist, tech, model);
  an.add_input_event(g.input, Transition::kRise, 0.0, 1e-9);
  an.run();
  const auto outputs = an.worst_arrival(true);
  const auto all = an.worst_arrival(false);
  ASSERT_TRUE(outputs.has_value());
  ASSERT_TRUE(all.has_value());
  EXPECT_GE(all->time, outputs->time);
}

TEST(Analyzer, NandSideInputNotSeededStillConducts) {
  // Only a0 is seeded; the stage through the two series devices fires
  // because the path's other transistor is assumed conducting.
  const Tech tech = cmos3();
  const RcTreeModel model;
  const GeneratedCircuit g = nand_chain(Style::kCmos, 2);
  TimingAnalyzer an(g.netlist, tech, model);
  an.add_input_event(g.input, Transition::kRise, 0.0, 1e-9);
  an.run();
  const NodeId y = *g.netlist.find_node("y");
  EXPECT_TRUE(an.arrival(y, Transition::kFall).has_value());
  EXPECT_TRUE(an.arrival(g.output, Transition::kRise).has_value());
}

TEST(Analyzer, PassChainSingleStageNotPerHop) {
  // The fall arrival at the chain end comes from one long stage, so its
  // predecessor is the primary input directly.
  const Tech tech = nmos4();
  const RcTreeModel model;
  const GeneratedCircuit g = pass_chain(Style::kNmos, 4);
  TimingAnalyzer an(g.netlist, tech, model);
  an.add_input_event(g.input, Transition::kRise, 0.0, 1e-9);
  an.run();
  const NodeId p4 = *g.netlist.find_node("p4");
  const auto info = an.arrival(p4, Transition::kFall);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->from_node, g.input);
}

TEST(Analyzer, ElmoreBeatsLumpedOnPassChain) {
  const Tech tech = nmos4();
  const GeneratedCircuit g = pass_chain(Style::kNmos, 6);
  const NodeId p6 = *g.netlist.find_node("p6");

  const LumpedRcModel lumped;
  const RcTreeModel rctree;
  TimingAnalyzer a1(g.netlist, tech, lumped);
  a1.add_input_event(g.input, Transition::kRise, 0.0, 1e-9);
  a1.run();
  TimingAnalyzer a2(g.netlist, tech, rctree);
  a2.add_input_event(g.input, Transition::kRise, 0.0, 1e-9);
  a2.run();
  const auto t_lumped = a1.arrival(p6, Transition::kFall);
  const auto t_rctree = a2.arrival(p6, Transition::kFall);
  ASSERT_TRUE(t_lumped && t_rctree);
  EXPECT_GT(t_lumped->time, 1.4 * t_rctree->time)
      << "lumped RC should be strongly pessimistic on a 7-element chain";
}

TEST(Analyzer, InputEventValidation) {
  const Tech tech = nmos4();
  const RcTreeModel model;
  const GeneratedCircuit g = inverter_chain(Style::kNmos, 1, 1);
  TimingAnalyzer an(g.netlist, tech, model);
  EXPECT_THROW(an.add_input_event(g.output, Transition::kRise, 0.0, 1e-9),
               ContractViolation)
      << "only input-marked nodes can be seeded";
  EXPECT_THROW(an.add_input_event(g.input, Transition::kRise, 0.0, -1.0),
               ContractViolation);
}

TEST(Analyzer, AddAllInputEventsSeedsBothDirections) {
  const Tech tech = nmos4();
  const RcTreeModel model;
  const GeneratedCircuit g = inverter_chain(Style::kNmos, 2, 1);
  TimingAnalyzer an(g.netlist, tech, model);
  an.add_all_input_events(1e-9);
  an.run();
  const NodeId s1 = *g.netlist.find_node("s1");
  EXPECT_TRUE(an.arrival(s1, Transition::kFall).has_value());
  EXPECT_TRUE(an.arrival(s1, Transition::kRise).has_value());
}

TEST(Analyzer, StageEvaluationCounterAdvances) {
  const Tech tech = nmos4();
  const RcTreeModel model;
  const GeneratedCircuit g = inverter_chain(Style::kNmos, 3, 1);
  TimingAnalyzer an(g.netlist, tech, model);
  an.add_input_event(g.input, Transition::kRise, 0.0, 1e-9);
  an.run();
  EXPECT_GE(an.stage_evaluations(), 3u);
}

TEST(Analyzer, RingOscillatorLoopIsDetected) {
  // A 3-inverter ring has no stable arrival fixpoint; the analyzer must
  // stop with a loop diagnostic instead of spinning.
  CircuitBuilder b(Style::kCmos);
  const NodeId start = b.input("start");
  const NodeId n1 = b.inverter(start, "n1");
  const NodeId n2 = b.inverter(n1, "n2");
  const NodeId n3 = b.inverter(n2, "n3");
  // Feed n3 back into n1's gate by adding a parallel driver of n1
  // gated by n3 (creates the cyclic trigger structure).
  const Sizing s = Sizing::standard(Style::kCmos);
  b.netlist().add_transistor(TransistorType::kNEnhancement, n3, b.gnd(), n1,
                             s.driver_w, s.driver_l);
  b.netlist().add_transistor(TransistorType::kPEnhancement, n3, n1, b.vdd(),
                             s.load_w, s.load_l);
  const Netlist& nl = b.netlist();

  const Tech tech = cmos3();
  const RcTreeModel model;
  AnalyzerOptions opts;
  opts.max_updates_per_arrival = 8;
  TimingAnalyzer an(nl, tech, model, opts);
  an.add_input_event(start, Transition::kRise, 0.0, 1e-9);
  EXPECT_THROW(an.run(), Error);
}

TEST(Report, AllArrivalsTableListsInternalNodes) {
  const Tech tech = nmos4();
  const RcTreeModel model;
  const GeneratedCircuit g = inverter_chain(Style::kNmos, 3, 1);
  TimingAnalyzer an(g.netlist, tech, model);
  an.add_input_event(g.input, Transition::kRise, 0.0, 1e-9);
  an.run();
  const std::string table = format_all_arrivals(g.netlist, an);
  EXPECT_NE(table.find("s1"), std::string::npos);
  EXPECT_NE(table.find("s2"), std::string::npos);
  EXPECT_NE(table.find("s3"), std::string::npos);
  EXPECT_EQ(table.find("vdd"), std::string::npos) << "rails excluded";
  EXPECT_EQ(table.find("in "), std::string::npos) << "inputs excluded";
}

TEST(Report, OutputArrivalTableListsOutputs) {
  const Tech tech = nmos4();
  const RcTreeModel model;
  const GeneratedCircuit g = inverter_chain(Style::kNmos, 2, 1);
  TimingAnalyzer an(g.netlist, tech, model);
  an.add_input_event(g.input, Transition::kRise, 0.0, 1e-9);
  an.run();
  const std::string table = format_output_arrivals(g.netlist, an);
  EXPECT_NE(table.find("s2"), std::string::npos);
}

}  // namespace
}  // namespace sldm

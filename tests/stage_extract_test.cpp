// Tests for stage extraction: conduction predicates, path enumeration,
// triggers, release stages, and the electrical stage conversion.
#include <gtest/gtest.h>

#include "gen/generators.h"
#include "tech/tech.h"
#include "timing/stage_extract.h"
#include "util/units.h"

namespace sldm {
namespace {

using namespace units;

TEST(Conduction, Predicates) {
  Netlist nl;
  const NodeId vdd = nl.mark_power("vdd");
  const NodeId gnd = nl.mark_ground("gnd");
  const NodeId sig = nl.add_node("sig");
  const NodeId a = nl.add_node("a");
  const NodeId b = nl.add_node("b");

  const DeviceId normal = nl.add_transistor(TransistorType::kNEnhancement,
                                            sig, a, b, 8 * um, 4 * um);
  const DeviceId dead = nl.add_transistor(TransistorType::kNEnhancement, gnd,
                                          a, b, 8 * um, 4 * um);
  const DeviceId dep =
      nl.add_transistor(TransistorType::kNDepletion, b, b, vdd, 4 * um,
                        8 * um);
  const DeviceId pseudo = nl.add_transistor(TransistorType::kPEnhancement,
                                            gnd, b, vdd, 6 * um, 3 * um);
  const DeviceId pdead = nl.add_transistor(TransistorType::kPEnhancement,
                                           vdd, a, b, 6 * um, 3 * um);

  EXPECT_TRUE(can_conduct(nl, normal));
  EXPECT_FALSE(can_conduct(nl, dead));
  EXPECT_TRUE(can_conduct(nl, dep));
  EXPECT_TRUE(can_conduct(nl, pseudo));
  EXPECT_FALSE(can_conduct(nl, pdead));

  EXPECT_FALSE(always_on(nl, normal));
  EXPECT_TRUE(always_on(nl, dep));
  EXPECT_TRUE(always_on(nl, pseudo));
}

TEST(StageExtract, NmosInverterFallStage) {
  const GeneratedCircuit g = inverter_chain(Style::kNmos, 1, 1);
  const NodeId out = g.output;
  const auto stages = stages_to(g.netlist, out, Transition::kFall);
  ASSERT_EQ(stages.size(), 1u);
  const TimingStage& s = stages[0];
  EXPECT_EQ(s.destination, out);
  EXPECT_TRUE(g.netlist.node(s.source).is_ground);
  EXPECT_EQ(s.path.size(), 1u);
  EXPECT_EQ(g.netlist.device(s.trigger).gate, g.input);
  EXPECT_EQ(s.trigger_gate_dir, Transition::kRise);
  EXPECT_FALSE(s.trigger_is_release);
}

TEST(StageExtract, NmosInverterRiseIsReleaseStage) {
  const GeneratedCircuit g = inverter_chain(Style::kNmos, 1, 1);
  const auto stages = stages_to(g.netlist, g.output, Transition::kRise);
  ASSERT_EQ(stages.size(), 1u);
  const TimingStage& s = stages[0];
  EXPECT_TRUE(s.trigger_is_release);
  EXPECT_TRUE(g.netlist.node(s.source).is_power);
  EXPECT_EQ(s.trigger_gate_dir, Transition::kFall)
      << "the pull-down's gate falling releases the node";
  ASSERT_EQ(s.path.size(), 1u);
  EXPECT_EQ(g.netlist.device(s.path[0]).type, TransistorType::kNDepletion);
}

TEST(StageExtract, CmosInverterBothDirectionsAreOnTriggers) {
  const GeneratedCircuit g = inverter_chain(Style::kCmos, 1, 1);
  const auto fall = stages_to(g.netlist, g.output, Transition::kFall);
  ASSERT_EQ(fall.size(), 1u);
  EXPECT_FALSE(fall[0].trigger_is_release);
  EXPECT_EQ(fall[0].trigger_gate_dir, Transition::kRise);

  const auto rise = stages_to(g.netlist, g.output, Transition::kRise);
  ASSERT_EQ(rise.size(), 1u);
  EXPECT_FALSE(rise[0].trigger_is_release);
  EXPECT_EQ(rise[0].trigger_gate_dir, Transition::kFall);
  EXPECT_EQ(g.netlist.device(rise[0].trigger).type,
            TransistorType::kPEnhancement);
}

TEST(StageExtract, NandSeriesStackYieldsOneStagePerTrigger) {
  const GeneratedCircuit g = nand_chain(Style::kCmos, 2);
  const NodeId y = *g.netlist.find_node("y");
  const auto fall = stages_to(g.netlist, y, Transition::kFall);
  // One pull-down path with two series devices -> two ON-trigger stages.
  ASSERT_EQ(fall.size(), 2u);
  EXPECT_EQ(fall[0].path.size(), 2u);
  EXPECT_EQ(fall[1].path.size(), 2u);
  EXPECT_NE(fall[0].trigger, fall[1].trigger);

  // Two parallel p pull-ups -> two single-device rise stages.
  const auto rise = stages_to(g.netlist, y, Transition::kRise);
  ASSERT_EQ(rise.size(), 2u);
  for (const auto& s : rise) EXPECT_EQ(s.path.size(), 1u);
}

TEST(StageExtract, PassChainPathsIncludeEveryPrefix) {
  const GeneratedCircuit g = pass_chain(Style::kNmos, 3);
  // The final chain node p3 falls through driver + 3 passes: the path
  // has 4 devices and 4 potential triggers.
  const NodeId p3 = *g.netlist.find_node("p3");
  const auto stages = stages_to(g.netlist, p3, Transition::kFall);
  ASSERT_EQ(stages.size(), 4u);
  for (const auto& s : stages) {
    EXPECT_EQ(s.path.size(), 4u);
    EXPECT_TRUE(g.netlist.node(s.source).is_ground);
  }
}

TEST(StageExtract, PrechargedNodeIsARiseSource) {
  const GeneratedCircuit g = manchester_carry(Style::kNmos, 2);
  const NodeId c1 = *g.netlist.find_node("c1");
  const auto fall = stages_to(g.netlist, c1, Transition::kFall);
  // Discharge paths reach ground through the g0 pull-down and the
  // propagate pass chain.
  ASSERT_FALSE(fall.empty());
  bool has_long_path = false;
  for (const auto& s : fall) {
    if (s.path.size() == 2u) has_long_path = true;
  }
  EXPECT_TRUE(has_long_path);
}

TEST(StageExtract, RailsAndInputsAreNotDestinations) {
  const GeneratedCircuit g = inverter_chain(Style::kNmos, 1, 1);
  EXPECT_TRUE(stages_to(g.netlist, g.input, Transition::kRise).empty());
  EXPECT_TRUE(
      stages_to(g.netlist, *g.netlist.power_node(), Transition::kRise)
          .empty());
}

TEST(StageExtract, DepthLimitPrunesLongPaths) {
  const GeneratedCircuit g = pass_chain(Style::kNmos, 6);
  const NodeId p6 = *g.netlist.find_node("p6");
  ExtractOptions opts;
  opts.max_depth = 3;  // driver + 6 passes = 7 > 3
  EXPECT_TRUE(stages_to(g.netlist, p6, Transition::kFall, opts).empty());
}

TEST(StageExtract, ExtractAllCoversEveryInternalNode) {
  const GeneratedCircuit g = inverter_chain(Style::kNmos, 3, 1);
  const CccPartition ccc(g.netlist);
  const StageTable all =
      extract_stages_partitioned(g.netlist, {}, ccc, 1).stages;
  // Each of the three stage outputs has one fall and one rise stage;
  // dummy loads add more.  Every destination must be internal.
  EXPECT_GE(all.size(), 6u);
  for (const auto& s : all) {
    EXPECT_FALSE(g.netlist.node(s.destination).is_input);
    EXPECT_FALSE(g.netlist.is_rail(s.destination));
  }
}

TEST(MakeStage, ResistancesAndCapsComeFromTech) {
  const Tech tech = nmos4();
  const GeneratedCircuit g = inverter_chain(Style::kNmos, 1, 1);
  const auto stages = stages_to(g.netlist, g.output, Transition::kFall);
  ASSERT_EQ(stages.size(), 1u);
  const Stage s = make_stage(g.netlist, tech, stages[0], 2e-9);
  ASSERT_EQ(s.elements.size(), 1u);
  EXPECT_DOUBLE_EQ(s.input_slope, 2e-9);
  EXPECT_EQ(s.output_dir, Transition::kFall);
  const Transistor& pd = g.netlist.device(stages[0].path[0]);
  EXPECT_DOUBLE_EQ(s.elements[0].resistance,
                   tech.resistance(pd, Transition::kFall));
  EXPECT_DOUBLE_EQ(s.elements[0].cap,
                   tech.node_capacitance(g.netlist, g.output));
}

TEST(MakeStage, ReleaseStageUsesLoadElementAsTrigger) {
  const Tech tech = nmos4();
  const GeneratedCircuit g = inverter_chain(Style::kNmos, 1, 1);
  const auto stages = stages_to(g.netlist, g.output, Transition::kRise);
  ASSERT_EQ(stages.size(), 1u);
  const Stage s = make_stage(g.netlist, tech, stages[0], 0.0);
  EXPECT_EQ(s.trigger_index, 0u);
  EXPECT_EQ(s.elements[0].type, TransistorType::kNDepletion);
}

TEST(StageExtract, InputSourcedPathsAreSourceTriggered) {
  // A chip input feeding straight through a pass transistor: the
  // input's own edge must appear as a trigger, in addition to the pass
  // gate's.
  CircuitBuilder b(Style::kNmos);
  const NodeId data = b.input("data");
  const NodeId sel = b.input("sel");
  const NodeId out = b.node("out");
  b.pass(data, out, sel);
  b.inverter(out, "obs");
  const Netlist& nl = b.netlist();

  const auto stages = stages_to(nl, out, Transition::kRise);
  ASSERT_EQ(stages.size(), 2u);
  int source_triggered = 0;
  int gate_triggered = 0;
  for (const auto& s : stages) {
    if (s.source_triggered) {
      ++source_triggered;
      EXPECT_EQ(s.source, data);
      EXPECT_EQ(s.trigger_gate_dir, Transition::kRise);
      EXPECT_NE(describe(nl, s).find("driven by data"), std::string::npos);
    } else {
      ++gate_triggered;
      EXPECT_EQ(nl.device(s.trigger).gate, sel);
    }
  }
  EXPECT_EQ(source_triggered, 1);
  EXPECT_EQ(gate_triggered, 1);
}

TEST(Describe, MentionsEndpointsAndTrigger) {
  const GeneratedCircuit g = inverter_chain(Style::kNmos, 1, 1);
  const auto stages = stages_to(g.netlist, g.output, Transition::kFall);
  ASSERT_EQ(stages.size(), 1u);
  const std::string text = describe(g.netlist, stages[0]);
  EXPECT_NE(text.find("fall"), std::string::npos);
  EXPECT_NE(text.find("gnd"), std::string::npos);
  EXPECT_NE(text.find("triggered by in"), std::string::npos);
}

}  // namespace
}  // namespace sldm

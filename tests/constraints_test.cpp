// Tests for timing-constraint files and their application.
#include <gtest/gtest.h>

#include <sstream>

#include "delay/rctree.h"
#include "gen/generators.h"
#include "tech/tech.h"
#include "timing/analyzer.h"
#include "timing/constraints.h"
#include "timing/slack.h"
#include "util/error.h"
#include "util/units.h"

namespace sldm {
namespace {

Constraints parse(const std::string& text) {
  std::istringstream in(text);
  return read_constraints(in, "<test>");
}

TEST(Constraints, ParsesDirectives) {
  const Constraints c = parse(
      "# header comment\n"
      "input phi rise at 0 slope 1.5\n"
      "input data both at 2 slope 2\n"
      "input clr fall at 0.5 slope 0.25\n"
      "require 45\n");
  ASSERT_EQ(c.inputs.size(), 3u);
  EXPECT_EQ(c.inputs[0].node, "phi");
  EXPECT_EQ(c.inputs[0].dir, Transition::kRise);
  EXPECT_DOUBLE_EQ(c.inputs[0].time, 0.0);
  EXPECT_DOUBLE_EQ(c.inputs[0].slope, 1.5e-9);
  EXPECT_FALSE(c.inputs[1].dir.has_value());
  EXPECT_DOUBLE_EQ(c.inputs[1].time, 2e-9);
  EXPECT_EQ(c.inputs[2].dir, Transition::kFall);
  ASSERT_TRUE(c.required.has_value());
  EXPECT_DOUBLE_EQ(*c.required, 45e-9);
}

TEST(Constraints, RejectsMalformedDirectives) {
  EXPECT_THROW(parse("input x rise at 0\n"), ParseError);
  EXPECT_THROW(parse("input x sideways at 0 slope 1\n"), ParseError);
  EXPECT_THROW(parse("input x rise at abc slope 1\n"), ParseError);
  EXPECT_THROW(parse("input x rise at 0 slope -1\n"), ParseError);
  EXPECT_THROW(parse("require\n"), ParseError);
  EXPECT_THROW(parse("require 0\n"), ParseError);
  EXPECT_THROW(parse("frobnicate 3\n"), ParseError);
}

TEST(Constraints, RoundTrip) {
  const Constraints a = parse(
      "input a rise at 1 slope 0.5\ninput b both at 0 slope 2\nrequire 30\n");
  std::stringstream ss;
  write_constraints(a, ss);
  const Constraints b = read_constraints(ss, "<rt>");
  ASSERT_EQ(b.inputs.size(), a.inputs.size());
  for (std::size_t i = 0; i < a.inputs.size(); ++i) {
    EXPECT_EQ(b.inputs[i].node, a.inputs[i].node);
    EXPECT_EQ(b.inputs[i].dir, a.inputs[i].dir);
    EXPECT_NEAR(b.inputs[i].time, a.inputs[i].time, 1e-18);
    EXPECT_NEAR(b.inputs[i].slope, a.inputs[i].slope, 1e-18);
  }
  EXPECT_EQ(b.required, a.required);
}

TEST(Constraints, ApplySeedsTheAnalyzer) {
  const Tech tech = nmos4();
  const RcTreeModel model;
  const GeneratedCircuit g = inverter_chain(Style::kNmos, 2, 1);
  TimingAnalyzer an(g.netlist, tech, model);
  const Constraints c = parse("input in rise at 1 slope 2\nrequire 20\n");
  c.apply(g.netlist, an);
  an.run();
  const auto info = an.arrival(g.output, Transition::kRise);
  ASSERT_TRUE(info.has_value());
  EXPECT_GT(info->time, 1e-9) << "event starts at the declared 1 ns";

  const SlackReport report = compute_slack(g.netlist, an, *c.required);
  EXPECT_TRUE(report.violations().empty());
}

TEST(Constraints, ApplyBothSeedsTwoEvents) {
  const Tech tech = nmos4();
  const RcTreeModel model;
  const GeneratedCircuit g = inverter_chain(Style::kNmos, 2, 1);
  TimingAnalyzer an(g.netlist, tech, model);
  parse("input in both at 0 slope 1\n").apply(g.netlist, an);
  an.run();
  const NodeId s1 = *g.netlist.find_node("s1");
  EXPECT_TRUE(an.arrival(s1, Transition::kRise).has_value());
  EXPECT_TRUE(an.arrival(s1, Transition::kFall).has_value());
}

TEST(Constraints, ApplyRejectsBadNodes) {
  const Tech tech = nmos4();
  const RcTreeModel model;
  const GeneratedCircuit g = inverter_chain(Style::kNmos, 1, 1);
  {
    TimingAnalyzer an(g.netlist, tech, model);
    EXPECT_THROW(
        parse("input nosuch rise at 0 slope 1\n").apply(g.netlist, an),
        Error);
  }
  {
    TimingAnalyzer an(g.netlist, tech, model);
    EXPECT_THROW(parse("input s1 rise at 0 slope 1\n").apply(g.netlist, an),
                 Error)
        << "s1 is internal, not a chip input";
  }
}

TEST(Constraints, MissingFileThrows) {
  EXPECT_THROW(read_constraints_file("/nonexistent/x.ct"), Error);
}

}  // namespace
}  // namespace sldm

// Tests for slack analysis.
#include <gtest/gtest.h>

#include "delay/rctree.h"
#include "gen/generators.h"
#include "tech/tech.h"
#include "timing/analyzer.h"
#include "timing/slack.h"
#include "util/contracts.h"

namespace sldm {
namespace {

struct Fixture {
  Tech tech = nmos4();
  RcTreeModel model;
  GeneratedCircuit g = inverter_chain(Style::kNmos, 4, 2);
  TimingAnalyzer analyzer{g.netlist, tech, model};

  Fixture() {
    analyzer.add_input_event(g.input, Transition::kRise, 0.0, 1e-9);
    analyzer.run();
  }
};

TEST(Slack, GenerousBudgetHasNoViolations) {
  Fixture f;
  const SlackReport r = compute_slack(f.g.netlist, f.analyzer, 1e-6);
  ASSERT_FALSE(r.entries.empty());
  EXPECT_TRUE(r.violations().empty());
  ASSERT_TRUE(r.worst_slack().has_value());
  EXPECT_GT(*r.worst_slack(), 0.0);
}

TEST(Slack, TightBudgetFlagsViolations) {
  Fixture f;
  const SlackReport r = compute_slack(f.g.netlist, f.analyzer, 1e-12);
  ASSERT_FALSE(r.entries.empty());
  EXPECT_FALSE(r.violations().empty());
  EXPECT_LT(*r.worst_slack(), 0.0);
}

TEST(Slack, EntriesSortedMostCriticalFirst) {
  Fixture f;
  const SlackReport r = compute_slack(f.g.netlist, f.analyzer, 10e-9);
  for (std::size_t i = 1; i < r.entries.size(); ++i) {
    EXPECT_LE(r.entries[i - 1].slack, r.entries[i].slack);
  }
}

TEST(Slack, SlackArithmetic) {
  Fixture f;
  const Seconds budget = 10e-9;
  const SlackReport r = compute_slack(f.g.netlist, f.analyzer, budget);
  for (const SlackEntry& e : r.entries) {
    EXPECT_DOUBLE_EQ(e.slack, budget - e.arrival);
    EXPECT_DOUBLE_EQ(e.required, budget);
    EXPECT_TRUE(f.g.netlist.node(e.node).is_output);
  }
}

TEST(Slack, OnlyArrivedTransitionsListed) {
  // With a single rising input seed, the final stage output of a
  // 4-stage chain only ever rises, so exactly one entry exists.
  Fixture f;
  const SlackReport r = compute_slack(f.g.netlist, f.analyzer, 10e-9);
  EXPECT_EQ(r.entries.size(), 1u);
  EXPECT_EQ(r.entries[0].dir, Transition::kRise);
}

TEST(Slack, ReportMentionsViolationAndPath) {
  Fixture f;
  const SlackReport r = compute_slack(f.g.netlist, f.analyzer, 1e-12);
  const std::string text = format_slack(f.g.netlist, f.analyzer, r);
  EXPECT_NE(text.find("VIOLATION"), std::string::npos);
  EXPECT_NE(text.find("worst violating path"), std::string::npos);
  EXPECT_NE(text.find("<- input"), std::string::npos);
}

TEST(Slack, RequiredTimeValidated) {
  Fixture f;
  EXPECT_THROW(compute_slack(f.g.netlist, f.analyzer, 0.0),
               ContractViolation);
  EXPECT_THROW(compute_slack(f.g.netlist, f.analyzer, -1e-9),
               ContractViolation);
}

TEST(Slack, EmptyReportWhenNoOutputsArrived) {
  const Tech tech = nmos4();
  const RcTreeModel model;
  const GeneratedCircuit g = inverter_chain(Style::kNmos, 2, 1);
  TimingAnalyzer an(g.netlist, tech, model);
  // No input events at all: nothing arrives anywhere.
  an.run();
  const SlackReport r = compute_slack(g.netlist, an, 10e-9);
  EXPECT_TRUE(r.entries.empty());
  EXPECT_FALSE(r.worst_slack().has_value());
}

}  // namespace
}  // namespace sldm

// Cross-cutting property tests: every circuit in the accuracy suite, in
// both logic styles, must flow through the entire pipeline with sane
// invariants -- the analyzer finds the simulated transition, the slope
// model stays within a loose accuracy envelope, the RC-tree model never
// exceeds the lumped model, and the RPH bounds bracket the point
// estimate on every extracted stage.
#include <gtest/gtest.h>

#include <cmath>

#include "compare/harness.h"
#include "delay/bounds.h"
#include "delay/lumped.h"
#include "delay/rctree.h"
#include "rc/rc_tree.h"
#include "timing/stage_extract.h"

namespace sldm {
namespace {

struct SuiteCase {
  Style style;
  std::size_t index;
};

class SuitePipeline : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  static const std::vector<GeneratedCircuit>& suite(Style style) {
    static std::vector<GeneratedCircuit> nmos = accuracy_suite(Style::kNmos);
    static std::vector<GeneratedCircuit> cmos = accuracy_suite(Style::kCmos);
    return style == Style::kNmos ? nmos : cmos;
  }
  Style style() const {
    return std::get<0>(GetParam()) == 0 ? Style::kNmos : Style::kCmos;
  }
  const GeneratedCircuit& circuit() const {
    return suite(style())[static_cast<std::size_t>(std::get<1>(GetParam()))];
  }
};

TEST_P(SuitePipeline, FullComparisonHoldsInvariants) {
  const CompareContext& ctx = CompareContext::get(style());
  const ComparisonResult r = run_comparison(circuit(), ctx, 2e-9);

  EXPECT_GT(r.reference_delay, 0.0) << r.circuit;
  ASSERT_EQ(r.models.size(), 3u);

  // The RC-tree estimate never exceeds the lumped estimate (Elmore of a
  // tree is bounded by Rtot * Ctot).
  EXPECT_LE(r.model("rc-tree").delay, r.model("lumped-rc").delay + 1e-15)
      << r.circuit;

  // The slope model stays within a generous envelope of the simulator
  // across the whole suite (the per-family benches measure it tightly).
  EXPECT_LT(std::abs(r.model("slope").error_pct), 60.0) << r.circuit;

  // All predictions are positive and within 10x of the reference.
  for (const ModelResult& m : r.models) {
    EXPECT_GT(m.delay, 0.0) << r.circuit << ' ' << m.model;
    EXPECT_LT(m.delay, 10.0 * r.reference_delay) << r.circuit << ' '
                                                 << m.model;
  }
}

TEST_P(SuitePipeline, RphBoundsBracketEveryStage) {
  const Tech tech = style() == Style::kNmos ? nmos4() : cmos3();
  const RcTreeModel point;
  const RphBoundsModel upper(RphBoundsModel::Mode::kUpper);
  const RphBoundsModel lower(RphBoundsModel::Mode::kLower);
  std::size_t checked = 0;
  const CccPartition ccc(circuit().netlist);
  const StageTable stages =
      extract_stages_partitioned(circuit().netlist, {}, ccc, 1).stages;
  for (const TimingStage& ts : stages) {
    const Stage stage = make_stage(circuit().netlist, tech, ts, 0.0);
    const Seconds p = point.estimate(stage).delay;
    EXPECT_LE(lower.estimate(stage).delay, p + 1e-18);
    EXPECT_GE(upper.estimate(stage).delay, p - 1e-18);
    if (++checked > 200) break;  // plenty per circuit
  }
  EXPECT_GT(checked, 0u) << circuit().name;
}

INSTANTIATE_TEST_SUITE_P(BothStyles, SuitePipeline,
                         ::testing::Combine(::testing::Values(0, 1),
                                            ::testing::Range(0, 16)));

}  // namespace
}  // namespace sldm

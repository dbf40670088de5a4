// Tests for the delay models: stage invariants, the three models'
// relationships, and the slope-table machinery.
#include <gtest/gtest.h>

#include <sstream>

#include "delay/lumped.h"
#include "delay/model.h"
#include "delay/rctree.h"
#include "delay/slope.h"
#include "delay/slope_table.h"
#include "delay/stage_store.h"
#include "rc/rc_tree.h"
#include "util/contracts.h"
#include "util/error.h"

namespace sldm {
namespace {

Stage single_stage(Ohms r = 10e3, Farads c = 100e-15) {
  Stage s;
  s.output_dir = Transition::kFall;
  s.elements.push_back(
      {.type = TransistorType::kNEnhancement, .resistance = r, .cap = c});
  return s;
}

Stage chain_stage(int n, Ohms r = 10e3, Farads c = 50e-15) {
  Stage s;
  s.output_dir = Transition::kFall;
  for (int i = 0; i < n; ++i) {
    s.elements.push_back(
        {.type = TransistorType::kNEnhancement, .resistance = r, .cap = c});
  }
  return s;
}

// --- Stage ---------------------------------------------------------------

TEST(Stage, AccessorsAndTotals) {
  const Stage s = chain_stage(3, 1e3, 10e-15);
  EXPECT_DOUBLE_EQ(s.total_resistance(), 3e3);
  EXPECT_DOUBLE_EQ(s.total_cap(), 30e-15);
  EXPECT_DOUBLE_EQ(s.destination_cap(), 10e-15);
}

TEST(Stage, ValidateRejectsBadStages) {
  Stage empty;
  EXPECT_THROW(validate(empty), ContractViolation);

  Stage bad_trigger = single_stage();
  bad_trigger.trigger_index = 5;
  EXPECT_THROW(validate(bad_trigger), ContractViolation);

  Stage bad_r = single_stage(0.0);
  EXPECT_THROW(validate(bad_r), ContractViolation);

  Stage no_cap = single_stage(1e3, 0.0);
  EXPECT_THROW(validate(no_cap), ContractViolation);

  Stage bad_slope = single_stage();
  bad_slope.input_slope = -1.0;
  EXPECT_THROW(validate(bad_slope), ContractViolation);
}

TEST(Stage, ToRcTreeMatchesHandBuiltTree) {
  const Stage s = chain_stage(4, 2e3, 25e-15);
  const RcTree tree = to_rc_tree(s);
  EXPECT_EQ(tree.node_count(), 5u);
  EXPECT_DOUBLE_EQ(stage_elmore(s), tree.elmore(4));
  // Uniform chain formula: RC * n(n+1)/2.
  EXPECT_NEAR(stage_elmore(s), 2e3 * 25e-15 * 4 * 5 / 2.0, 1e-21);
}

// --- Lumped vs RC-tree ----------------------------------------------------

TEST(Models, AgreeOnSingleSection) {
  const Stage s = single_stage();
  const LumpedRcModel lumped;
  const RcTreeModel rctree;
  EXPECT_NEAR(lumped.estimate(s).delay, rctree.estimate(s).delay, 1e-18);
  EXPECT_NEAR(lumped.estimate(s).output_slope,
              rctree.estimate(s).output_slope, 1e-18);
}

TEST(Models, LumpedPessimismGrowsWithChainLength) {
  const LumpedRcModel lumped;
  const RcTreeModel rctree;
  double prev_ratio = 1.0;
  for (int n = 1; n <= 8; ++n) {
    const Stage s = chain_stage(n);
    const double ratio =
        lumped.estimate(s).delay / rctree.estimate(s).delay;
    EXPECT_GE(ratio, prev_ratio - 1e-12) << "n = " << n;
    prev_ratio = ratio;
    // Exact for uniform chains: n^2 / (n(n+1)/2) = 2n/(n+1).
    EXPECT_NEAR(ratio, 2.0 * n / (n + 1.0), 1e-9);
  }
  // The paper's headline: ~2x pessimism on long chains.
  EXPECT_GT(prev_ratio, 1.7);
}

TEST(Models, DelayScalesLinearlyWithRAndC) {
  const RcTreeModel m;
  const Stage s1 = single_stage(10e3, 100e-15);
  const Stage s2 = single_stage(20e3, 100e-15);
  const Stage s3 = single_stage(10e3, 200e-15);
  EXPECT_NEAR(m.estimate(s2).delay, 2.0 * m.estimate(s1).delay, 1e-18);
  EXPECT_NEAR(m.estimate(s3).delay, 2.0 * m.estimate(s1).delay, 1e-18);
}

TEST(Models, NamesAreStable) {
  EXPECT_EQ(LumpedRcModel().name(), "lumped-rc");
  EXPECT_EQ(RcTreeModel().name(), "rc-tree");
  EXPECT_EQ(SlopeModel(SlopeTables::unit()).name(), "slope");
}

// --- Slope tables ----------------------------------------------------------

SlopeTables ramp_tables() {
  // delay multiplier 1 + rho/2, slope multiplier 1 + rho, on [0.01, 100].
  SlopeTables t;
  const std::vector<double> xs = {0.01, 100.0};
  for (TransistorType type :
       {TransistorType::kNEnhancement, TransistorType::kNDepletion,
        TransistorType::kPEnhancement}) {
    for (Transition dir : {Transition::kRise, Transition::kFall}) {
      t.set(type, dir,
            SlopeEntry{PiecewiseLinear(xs, {1.005, 51.0}),
                       PiecewiseLinear(xs, {1.01, 101.0})});
    }
  }
  return t;
}

TEST(SlopeTables, UnitHasEveryEntry) {
  const SlopeTables t = SlopeTables::unit();
  for (TransistorType type :
       {TransistorType::kNEnhancement, TransistorType::kNDepletion,
        TransistorType::kPEnhancement}) {
    for (Transition dir : {Transition::kRise, Transition::kFall}) {
      ASSERT_TRUE(t.has(type, dir));
      EXPECT_DOUBLE_EQ(t.entry(type, dir).delay_mult(1.0), 1.0);
    }
  }
}

TEST(SlopeTables, MissingEntryIsAContractViolation) {
  const SlopeTables empty;
  EXPECT_FALSE(empty.has(TransistorType::kNEnhancement, Transition::kRise));
  EXPECT_THROW(empty.entry(TransistorType::kNEnhancement, Transition::kRise),
               ContractViolation);
}

TEST(SlopeTables, RoundTripThroughText) {
  const SlopeTables a = ramp_tables();
  std::stringstream ss;
  a.write(ss);
  const SlopeTables b = SlopeTables::read(ss, "<roundtrip>");
  for (TransistorType type :
       {TransistorType::kNEnhancement, TransistorType::kNDepletion,
        TransistorType::kPEnhancement}) {
    for (Transition dir : {Transition::kRise, Transition::kFall}) {
      ASSERT_TRUE(b.has(type, dir));
      for (double rho : {0.01, 0.5, 3.0, 100.0}) {
        EXPECT_NEAR(b.entry(type, dir).delay_mult(rho),
                    a.entry(type, dir).delay_mult(rho), 1e-9);
        EXPECT_NEAR(b.entry(type, dir).slope_mult(rho),
                    a.entry(type, dir).slope_mult(rho), 1e-9);
      }
    }
  }
}

TEST(SlopeTables, ReadRejectsMalformedInput) {
  auto parse = [](const std::string& text) {
    std::istringstream in(text);
    return SlopeTables::read(in, "<test>");
  };
  EXPECT_THROW(parse("entry e sideways\n"), ParseError);
  EXPECT_THROW(parse("entry q rise\n"), ParseError);
  EXPECT_THROW(parse("delay 1:1\n"), ParseError);  // outside entry
  EXPECT_THROW(parse("entry e rise\ndelay 1:1\nentry e fall\n"), ParseError)
      << "incomplete first entry";
  EXPECT_THROW(parse("entry e rise\ndelay bogus\nslope 1:1\n"), ParseError);
  EXPECT_THROW(parse("entry e rise\ndelay 2:1 1:1\nslope 1:1\n"), ParseError)
      << "non-increasing abscissae";
  EXPECT_THROW(parse("zzz\n"), ParseError);
}

TEST(SlopeTables, OutOfRangeClampsToBoundaryCellOnBothAxes) {
  // Policy (slope_table.h): lookups outside the calibrated rho range
  // clamp to the boundary cell -- no extrapolation.  Check both the
  // under-range and over-range side, on both the delay and the slope
  // table.
  const SlopeTables t = ramp_tables();
  const SlopeEntry& e =
      t.entry(TransistorType::kNEnhancement, Transition::kRise);
  // Calibrated domain is [0.01, 100]; values at the boundary cells:
  const double d_lo = e.delay_mult(0.01);
  const double d_hi = e.delay_mult(100.0);
  const double s_lo = e.slope_mult(0.01);
  const double s_hi = e.slope_mult(100.0);
  EXPECT_DOUBLE_EQ(e.delay_mult(1e-6), d_lo);
  EXPECT_DOUBLE_EQ(e.delay_mult(0.0), d_lo);
  EXPECT_DOUBLE_EQ(e.delay_mult(1e6), d_hi);
  EXPECT_DOUBLE_EQ(e.slope_mult(1e-9), s_lo);
  EXPECT_DOUBLE_EQ(e.slope_mult(1e9), s_hi);
  // The clamped values are the real boundary multipliers, not some
  // sentinel: inside the domain the ramp is strictly increasing.
  EXPECT_LT(d_lo, d_hi);
  EXPECT_LT(s_lo, s_hi);
}

TEST(SlopeTables, ReadRejectsNonFiniteAndNonPositiveMultipliers) {
  // Because out-of-range lookups clamp to boundary cells, one bad cell
  // would silently poison every out-of-range query; the reader must
  // reject such tables with a line-numbered ParseError.
  auto parse = [](const std::string& text) {
    std::istringstream in(text);
    return SlopeTables::read(in, "<test>");
  };
  const std::string slope_ok = "slope 1:1 2:1\n";
  for (const char* bad : {"nan", "inf", "-inf", "-1", "0"}) {
    const std::string text =
        std::string("entry e rise\ndelay 1:1 2:") + bad + "\n" + slope_ok;
    EXPECT_THROW(parse(text), ParseError) << "delay cell " << bad;
    const std::string text2 = std::string("entry e rise\ndelay 1:1 2:1\n") +
                              "slope 1:" + bad + " 2:1\n";
    EXPECT_THROW(parse(text2), ParseError) << "slope cell " << bad;
  }
  // Non-finite abscissae are equally poisonous.
  EXPECT_THROW(parse("entry e rise\ndelay nan:1 2:1\nslope 1:1\n"),
               ParseError);
  // Line numbers point at the offending record.
  try {
    parse("entry e rise\ndelay 1:1 2:nan\nslope 1:1\n");
    FAIL() << "should have thrown";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find(":2:"), std::string::npos)
        << e.what();
  }
}

TEST(SlopeTables, SetRejectsNonPositiveMultiplier) {
  SlopeTables t;
  const std::vector<double> xs = {0.01, 100.0};
  EXPECT_THROW(t.set(TransistorType::kNEnhancement, Transition::kRise,
                     SlopeEntry{PiecewiseLinear(xs, {1.0, 0.0}),
                                PiecewiseLinear(xs, {1.0, 1.0})}),
               ContractViolation);
  EXPECT_THROW(t.set(TransistorType::kNEnhancement, Transition::kRise,
                     SlopeEntry{PiecewiseLinear(xs, {1.0, 1.0}),
                                PiecewiseLinear(xs, {-2.0, 1.0})}),
               ContractViolation);
}

// --- Slope model ------------------------------------------------------------

TEST(SlopeModel, UnitTablesDegenerateToRcTree) {
  const SlopeModel slope(SlopeTables::unit());
  const RcTreeModel rctree;
  for (int n = 1; n <= 5; ++n) {
    Stage s = chain_stage(n);
    s.input_slope = 3e-9;  // irrelevant under unit tables
    EXPECT_NEAR(slope.estimate(s).delay, rctree.estimate(s).delay, 1e-18);
  }
}

TEST(SlopeModel, SlowerInputGivesLongerDelay) {
  const SlopeModel slope(ramp_tables());
  Stage fast = single_stage();
  fast.input_slope = 0.0;
  Stage slow = single_stage();
  slow.input_slope = 10.0 * stage_elmore(slow);
  EXPECT_GT(slope.estimate(slow).delay, slope.estimate(fast).delay);
  EXPECT_GT(slope.estimate(slow).output_slope,
            slope.estimate(fast).output_slope);
}

TEST(SlopeModel, MultiplierAppliedToElmoreConstant) {
  const SlopeModel slope(ramp_tables());
  Stage s = single_stage(10e3, 100e-15);
  const Seconds td = stage_elmore(s);
  s.input_slope = 2.0 * td;  // rho = 2 -> delay mult = 2, slope mult = 3
  const DelayEstimate est = slope.estimate(s);
  EXPECT_NEAR(est.delay, kLn2 * 2.0 * td, 1e-15);
  EXPECT_NEAR(est.output_slope, kSlopeFactor * 3.0 * td, 1e-15);
}

TEST(SlopeModel, UsesTriggerTypeForLookup) {
  // Give the depletion entry a distinctive multiplier and check that a
  // stage triggered at a depletion element picks it up.
  SlopeTables t = SlopeTables::unit();
  t.set(TransistorType::kNDepletion, Transition::kRise,
        SlopeEntry{PiecewiseLinear({0.01, 100.0}, {5.0, 5.0}),
                   PiecewiseLinear({0.01, 100.0}, {5.0, 5.0})});
  const SlopeModel slope(std::move(t));

  Stage s;
  s.output_dir = Transition::kRise;
  s.elements.push_back({.type = TransistorType::kNDepletion,
                        .resistance = 40e3,
                        .cap = 50e-15});
  const Seconds td = stage_elmore(s);
  EXPECT_NEAR(slope.estimate(s).delay, kLn2 * 5.0 * td, 1e-15);
}

TEST(SlopeModel, MissingEntryRejected) {
  const SlopeModel slope{SlopeTables{}};
  EXPECT_THROW(slope.estimate(single_stage()), ContractViolation);
}

TEST(SlopeModel, SlopeRatioDefinition) {
  // rho = input_slope / T_elmore, reported as an audit term and used
  // for both table lookups.
  const SlopeModel slope(ramp_tables());
  StageStore store;
  const StageStore::StageId id = store.add(single_stage(10e3, 100e-15));
  const Seconds td = store.elmore(id);
  const DelayAudit audit = slope.audit(store, id, 2e-9);
  ASSERT_EQ(audit.terms.size(), 4u);
  EXPECT_STREQ(audit.terms[0].name, "t_elmore");
  EXPECT_EQ(audit.terms[0].value, td);
  EXPECT_STREQ(audit.terms[1].name, "rho");
  EXPECT_NEAR(audit.terms[1].value, 2e-9 / td, 1e-12);
  const SlopeEntry& e =
      slope.tables().entry(TransistorType::kNEnhancement, Transition::kFall);
  EXPECT_EQ(audit.terms[2].value, e.delay_mult(audit.terms[1].value));
  EXPECT_EQ(audit.terms[3].value, e.slope_mult(audit.terms[1].value));
  EXPECT_EQ(audit.estimate.delay, kLn2 * audit.terms[2].value * td);
}

}  // namespace
}  // namespace sldm

// Tests for src/tech: parameter sets, derived capacitances/resistances,
// analytic resistance seeds, and the tech file round-trip.
#include <gtest/gtest.h>

#include <sstream>

#include "tech/tech.h"
#include "tech/tech_io.h"
#include "util/contracts.h"
#include "util/error.h"
#include "util/units.h"

namespace sldm {
namespace {

using namespace units;

TEST(Tech, PresetsHaveExpectedDeviceTypes) {
  const Tech n = nmos4();
  EXPECT_TRUE(n.has(TransistorType::kNEnhancement));
  EXPECT_TRUE(n.has(TransistorType::kNDepletion));
  EXPECT_FALSE(n.has(TransistorType::kPEnhancement));
  const Tech c = cmos3();
  EXPECT_TRUE(c.has(TransistorType::kNEnhancement));
  EXPECT_FALSE(c.has(TransistorType::kNDepletion));
  EXPECT_TRUE(c.has(TransistorType::kPEnhancement));
}

TEST(Tech, SupplyAndThreshold) {
  const Tech t = nmos4();
  EXPECT_DOUBLE_EQ(t.vdd(), 5.0);
  EXPECT_DOUBLE_EQ(t.v_switch(), 2.5);
  EXPECT_GT(t.params(TransistorType::kNEnhancement).vt, 0.0);
  EXPECT_LT(t.params(TransistorType::kNDepletion).vt, 0.0);
  EXPECT_LT(cmos3().params(TransistorType::kPEnhancement).vt, 0.0);
}

TEST(Tech, GateCapScalesWithArea) {
  const Tech t = nmos4();
  Transistor a{.type = TransistorType::kNEnhancement,
               .width = 8 * um,
               .length = 4 * um};
  Transistor b = a;
  b.width = 16 * um;
  b.length = 8 * um;
  // 4x the area, 2x the overlap width: cap strictly more than 2x, less
  // than 4x of the original only if overlap dominates -- check bounds.
  const Farads ca = t.gate_cap(a);
  const Farads cb = t.gate_cap(b);
  EXPECT_GT(cb, 2.0 * ca);
  EXPECT_LE(cb, 4.0 * ca + 1e-18);
  EXPECT_GT(ca, 0.0);
}

TEST(Tech, DiffusionCapScalesWithWidth) {
  const Tech t = nmos4();
  Transistor a{.type = TransistorType::kNEnhancement,
               .width = 8 * um,
               .length = 4 * um};
  Transistor b = a;
  b.width = 24 * um;
  EXPECT_NEAR(t.diffusion_cap(b), 3.0 * t.diffusion_cap(a), 1e-20);
}

TEST(Tech, NodeCapacitanceSumsAllContributions) {
  const Tech t = nmos4();
  Netlist nl;
  const NodeId vdd = nl.mark_power("vdd");
  const NodeId gnd = nl.mark_ground("gnd");
  const NodeId in = nl.mark_input("in");
  const NodeId out = nl.add_node("out");
  nl.add_cap(out, 10 * fF);
  const DeviceId pd = nl.add_transistor(TransistorType::kNEnhancement, in,
                                        gnd, out, 8 * um, 4 * um);
  const DeviceId load = nl.add_transistor(TransistorType::kNDepletion, out,
                                          out, vdd, 4 * um, 8 * um);
  const Farads expected = 10 * fF + t.gate_cap(nl.device(load)) +
                          t.diffusion_cap(nl.device(pd)) +
                          t.diffusion_cap(nl.device(load));
  EXPECT_NEAR(t.node_capacitance(nl, out), expected, 1e-20);
  // The input node carries only the pull-down's gate cap.
  EXPECT_NEAR(t.node_capacitance(nl, in), t.gate_cap(nl.device(pd)), 1e-20);
}

TEST(Tech, ResistanceScalesWithGeometry) {
  const Tech t = nmos4();
  Transistor a{.type = TransistorType::kNEnhancement,
               .width = 8 * um,
               .length = 4 * um};
  Transistor b = a;
  b.width = 4 * um;  // half the width -> twice the resistance
  EXPECT_NEAR(t.resistance(b, Transition::kFall),
              2.0 * t.resistance(a, Transition::kFall), 1e-6);
}

TEST(Tech, AnalyticSeedsAreOrderedSensibly) {
  const Tech t = nmos4();
  // Passing a high through an n device is much weaker than pulling low.
  EXPECT_GT(t.resistance_sq(TransistorType::kNEnhancement, Transition::kRise),
            t.resistance_sq(TransistorType::kNEnhancement,
                            Transition::kFall));
  // The depletion load is weaker per square than a fully driven
  // enhancement pull-down.
  EXPECT_GT(t.resistance_sq(TransistorType::kNDepletion, Transition::kRise),
            t.resistance_sq(TransistorType::kNEnhancement,
                            Transition::kFall));
}

TEST(Tech, AnalyticSeedMagnitudeIsPlausible) {
  // The classic Mead-Conway figure: ~10 kOhm/square for a driven nMOS
  // pull-down.  Accept a wide band; this is a sanity anchor, not a spec.
  const Tech t = nmos4();
  const Ohms r =
      t.resistance_sq(TransistorType::kNEnhancement, Transition::kFall);
  EXPECT_GT(r, 2e3);
  EXPECT_LT(r, 1e5);
}

TEST(Tech, SetResistanceValidates) {
  Tech t = nmos4();
  t.set_resistance_sq(TransistorType::kNEnhancement, Transition::kFall, 9e3);
  EXPECT_DOUBLE_EQ(
      t.resistance_sq(TransistorType::kNEnhancement, Transition::kFall),
      9e3);
  EXPECT_THROW(t.set_resistance_sq(TransistorType::kNEnhancement,
                                   Transition::kFall, 0.0),
               ContractViolation);
}

TEST(Tech, CmosPDeviceWeakerThanN) {
  const Tech t = cmos3();
  EXPECT_GT(t.resistance_sq(TransistorType::kPEnhancement, Transition::kRise),
            t.resistance_sq(TransistorType::kNEnhancement,
                            Transition::kFall));
}

// --- tech_io -------------------------------------------------------------

TEST(TechIo, RoundTripPreservesEverything) {
  const Tech a = nmos4();
  std::stringstream ss;
  write_tech(a, ss);
  const Tech b = read_tech(ss, "<roundtrip>");
  EXPECT_EQ(b.name(), a.name());
  EXPECT_DOUBLE_EQ(b.vdd(), a.vdd());
  for (TransistorType type :
       {TransistorType::kNEnhancement, TransistorType::kNDepletion}) {
    const DeviceParams& pa = a.params(type);
    const DeviceParams& pb = b.params(type);
    EXPECT_NEAR(pb.vt, pa.vt, 1e-12);
    // Values are serialized with %.6g, so expect ~6 significant digits.
    EXPECT_NEAR(pb.kp / pa.kp, 1.0, 1e-5);
    EXPECT_NEAR(pb.cox / pa.cox, 1.0, 1e-5);
    EXPECT_NEAR(pb.r_up_sq / pa.r_up_sq, 1.0, 1e-5);
    EXPECT_NEAR(pb.r_down_sq / pa.r_down_sq, 1.0, 1e-5);
  }
}

TEST(TechIo, RejectsMalformedInput) {
  auto parse = [](const std::string& text) {
    std::istringstream in(text);
    return read_tech(in, "<test>");
  };
  EXPECT_THROW(parse(""), ParseError);                      // no header
  EXPECT_THROW(parse("tech x vdd 0\n"), ParseError);        // bad vdd
  EXPECT_THROW(parse("device e vt 1\n"), ParseError);       // before header
  EXPECT_THROW(parse("tech x vdd 5\ndevice q vt 1\n"), ParseError);
  EXPECT_THROW(parse("tech x vdd 5\ndevice e vt abc\n"), ParseError);
  EXPECT_THROW(parse("tech x vdd 5\ndevice e bogus 1\n"), ParseError);
  EXPECT_THROW(parse("tech x vdd 5\nwhat 1\n"), ParseError);
}

TEST(TechIo, DeviceFieldsHavePhysicalRanges) {
  // One record per bound: the last accepted and the first rejected
  // value of every field (FORMATS.md section 2).
  const auto line_error = [](const std::string& field,
                             const std::string& value) -> std::string {
    std::istringstream in("tech x vdd 5\n\ndevice e " + field + " " +
                          value + "\n");
    try {
      read_tech(in, "range.tech");
    } catch (const ParseError& e) {
      EXPECT_EQ(e.line(), 3) << field << ' ' << value;
      return e.what();
    }
    return {};
  };
  const struct {
    const char* field;
    const char* ok_lo;
    const char* bad_lo;
    const char* ok_hi;
    const char* bad_hi;
  } kCases[] = {
      {"vt", "-100", "-100.5", "100", "100.5"},
      {"kp", "1e-300", "0", "1", "1.5"},
      {"lambda", "0", "-1e-9", "10", "10.5"},
      {"cox", "1e-300", "0", "1", "2"},
      {"cov_w", "1e-300", "0", "1e-6", "2e-6"},
      {"cj_w", "1e-300", "-5", "1e-6", "1e300"},
      {"r_up_sq", "1e-300", "0", "1e9", "2e9"},
      {"r_down_sq", "1e-300", "-5", "1e9", "2e9"},
  };
  for (const auto& c : kCases) {
    EXPECT_EQ(line_error(c.field, c.ok_lo), "") << c.field;
    EXPECT_EQ(line_error(c.field, c.ok_hi), "") << c.field;
    for (const char* bad : {c.bad_lo, c.bad_hi}) {
      const std::string what = line_error(c.field, bad);
      EXPECT_NE(what.find(std::string("device e ") + c.field + " " + bad +
                          " outside the physical range"),
                std::string::npos)
          << what;
    }
  }
  std::istringstream vdd("tech x vdd 1e300\n");
  EXPECT_THROW(read_tech(vdd, "vdd.tech"), ParseError);
}

TEST(TechIo, WrittenPresetsParse) {
  for (const Tech& tech : {nmos4(), cmos3()}) {
    std::stringstream ss;
    write_tech(tech, ss);
    EXPECT_NO_THROW(read_tech(ss, tech.name())) << tech.name();
  }
}

TEST(TechIo, MissingFileThrows) {
  EXPECT_THROW(read_tech_file("/nonexistent/tech.txt"), Error);
}

}  // namespace
}  // namespace sldm

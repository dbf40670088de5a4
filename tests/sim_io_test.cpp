// Tests for the .sim reader/writer, including a round-trip property over
// every generated benchmark circuit and the physical-range checks.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "cli/cli.h"
#include "gen/generators.h"
#include "netlist/sim_io.h"
#include "util/error.h"
#include "util/units.h"

namespace sldm {
namespace {

Netlist parse(const std::string& text) {
  std::istringstream in(text);
  return read_sim(in, "<test>");
}

TEST(SimIo, ParsesTransistorRecords) {
  const Netlist nl = parse(
      "| units: 100\n"
      "e in gnd out 4 8\n"
      "d out out vdd 8 4\n");
  EXPECT_EQ(nl.device_count(), 2u);
  EXPECT_EQ(nl.node_count(), 4u);
  const Transistor& t = nl.device(DeviceId(0));
  EXPECT_EQ(t.type, TransistorType::kNEnhancement);
  EXPECT_DOUBLE_EQ(t.length, 4e-6);
  EXPECT_DOUBLE_EQ(t.width, 8e-6);
}

TEST(SimIo, RecognizesRailNamesAutomatically) {
  const Netlist nl = parse("e in GND out 4 8\ne in2 Vdd out 4 8\n");
  EXPECT_TRUE(nl.node(*nl.find_node("GND")).is_ground);
  EXPECT_TRUE(nl.node(*nl.find_node("Vdd")).is_power);
}

TEST(SimIo, NSynonymForE) {
  const Netlist nl = parse("n in gnd out 4 8\n");
  EXPECT_EQ(nl.device(DeviceId(0)).type, TransistorType::kNEnhancement);
}

TEST(SimIo, ParsesPType) {
  const Netlist nl = parse("p in vdd out 3 6\n");
  EXPECT_EQ(nl.device(DeviceId(0)).type, TransistorType::kPEnhancement);
}

TEST(SimIo, UnitsHeaderScalesDimensions) {
  // units: 50 means one file unit = 0.5 micron.
  const Netlist nl = parse("| units: 50\ne a gnd b 4 8\n");
  EXPECT_DOUBLE_EQ(nl.device(DeviceId(0)).length, 2e-6);
  EXPECT_DOUBLE_EQ(nl.device(DeviceId(0)).width, 4e-6);
}

TEST(SimIo, GroundedCapRecord) {
  const Netlist nl = parse("c busnode 12.5\n");
  const NodeId n = *nl.find_node("busnode");
  EXPECT_DOUBLE_EQ(nl.node(n).cap, 12.5 * units::fF);
}

TEST(SimIo, InternodalCapLumpedToBothEnds) {
  const Netlist nl = parse("C a b 4\n");
  EXPECT_DOUBLE_EQ(nl.node(*nl.find_node("a")).cap, 4 * units::fF);
  EXPECT_DOUBLE_EQ(nl.node(*nl.find_node("b")).cap, 4 * units::fF);
}

TEST(SimIo, RoleRecords) {
  const Netlist nl = parse(
      "@vdd vcc\n@gnd vee\n@in a b\n@out y\n@precharged bus\n");
  EXPECT_TRUE(nl.node(*nl.find_node("vcc")).is_power);
  EXPECT_TRUE(nl.node(*nl.find_node("vee")).is_ground);
  EXPECT_TRUE(nl.node(*nl.find_node("a")).is_input);
  EXPECT_TRUE(nl.node(*nl.find_node("b")).is_input);
  EXPECT_TRUE(nl.node(*nl.find_node("y")).is_output);
  EXPECT_TRUE(nl.node(*nl.find_node("bus")).is_precharged);
}

TEST(SimIo, CommentsAndBlankLinesIgnored) {
  const Netlist nl = parse("\n| a comment\n\ne in gnd out 4 8\n");
  EXPECT_EQ(nl.device_count(), 1u);
}

TEST(SimIo, ErrorsCarryLineNumbers) {
  try {
    parse("e in gnd out 4 8\nbogus record\n");
    FAIL() << "should have thrown";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_EQ(e.file(), "<test>");
  }
}

TEST(SimIo, RejectsMalformedRecords) {
  EXPECT_THROW(parse("e in gnd out\n"), ParseError);           // missing dims
  EXPECT_THROW(parse("e in gnd out 0 8\n"), ParseError);       // zero length
  EXPECT_THROW(parse("e in gnd gnd 4 8\n"), ParseError);       // s == d
  EXPECT_THROW(parse("c node\n"), ParseError);                 // missing cap
  EXPECT_THROW(parse("c node -3\n"), ParseError);              // negative cap
  EXPECT_THROW(parse("C a b\n"), ParseError);                  // missing cap
  EXPECT_THROW(parse("@bogus x\n"), ParseError);               // unknown role
  EXPECT_THROW(parse("@in\n"), ParseError);                    // empty role
  EXPECT_THROW(parse("| units: abc\ne a gnd b 4 8\n"), ParseError);
}

TEST(SimIo, RejectsBadUnitsAndUnknownRecord) {
  EXPECT_THROW(parse("| units: -5\n"), ParseError);
  EXPECT_THROW(parse("zzz 1 2 3\n"), ParseError);
}

// A finite but non-physical netlist used to print an `inf` rise
// arrival and exit 0; every value is now range-checked at parse time.
constexpr const char* kNonPhysicalSim =
    "e in gnd s1 1e300 1e-300\n"
    "c out 1e308\n";

TEST(SimIo, RejectsNonPhysicalValuesWithLocatedErrors) {
  try {
    parse(kNonPhysicalSim);
    FAIL() << "should have thrown";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 1);
    EXPECT_NE(std::string(e.what()).find("transistor length 1e300"),
              std::string::npos)
        << e.what();
  }
  const auto line_of = [](const std::string& text) {
    try {
      parse(text);
    } catch (const ParseError& e) {
      return e.line();
    }
    return 0;
  };
  EXPECT_EQ(line_of("e in gnd s1 4 8\ne in gnd s2 4 1e-300\n"), 2);  // W
  EXPECT_EQ(line_of("e in gnd s1 1e7 8\n"), 1);  // 10 m long
  EXPECT_EQ(line_of("| units: 1e300\ne in gnd s1 4 8\n"), 2);  // scaled
  EXPECT_EQ(line_of("| units: 1e-300\ne in gnd s1 4 8\n"), 2);
  EXPECT_EQ(line_of("e in gnd s1 4 8\nc out 1e308\n"), 2);
  EXPECT_EQ(line_of("C a b 1e7\n"), 1);  // 10 nF
  // The edges of the documented ranges still parse.
  EXPECT_EQ(parse("e in gnd s1 0.001 10000\nc s1 1e6\nc in 0\n")
                .device_count(),
            1u);
}

TEST(SimIo, NonPhysicalNetlistFailsTheTimeCommand) {
  const std::string path = ::testing::TempDir() + "sldm_nonphysical.sim";
  {
    std::ofstream out(path);
    out << kNonPhysicalSim;
  }
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(run_cli({"time", path, "--model", "rc-tree"}, out, err), 1);
  EXPECT_NE(err.str().find(path + ":1: transistor length"),
            std::string::npos)
      << err.str();
  EXPECT_EQ(out.str().find("inf"), std::string::npos) << out.str();
  std::remove(path.c_str());
}

// Every generator family, in both styles, and every checked-in .sim
// file sits inside the physical ranges.
TEST(SimIo, EveryGeneratorFamilyAndTestdataFileParses) {
  for (const Style style : {Style::kNmos, Style::kCmos}) {
    std::vector<GeneratedCircuit> circuits = accuracy_suite(style);
    circuits.push_back(shift_register(style, 4));
    circuits.push_back(sram_read_column(style, 16));
    circuits.push_back(random_logic(style, 8, 16, 7));
    circuits.push_back(driver_chain(style, 5, 4.0, 5000.0));
    for (const GeneratedCircuit& g : circuits) {
      EXPECT_NO_THROW(reparse(g.netlist)) << g.name;
    }
  }
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(
           std::string(SLDM_SOURCE_DIR) + "/testdata")) {
    if (entry.path().extension() != ".sim") continue;
    ++files;
    EXPECT_NO_THROW(read_sim_file(entry.path().string())) << entry.path();
  }
  EXPECT_GT(files, 1u);
}

TEST(SimIo, MissingFileThrows) {
  EXPECT_THROW(read_sim_file("/nonexistent/file.sim"), Error);
}

TEST(SimIo, SetRecordParsesFixedValues) {
  const Netlist nl = parse(
      "e sel a b 4 8\n"
      "@set sel=1 a=0\n");
  EXPECT_EQ(nl.node(*nl.find_node("sel")).fixed_value(),
            std::optional<bool>(true));
  EXPECT_EQ(nl.node(*nl.find_node("a")).fixed_value(),
            std::optional<bool>(false));
  EXPECT_EQ(nl.node(*nl.find_node("b")).fixed_value(), std::nullopt);
}

TEST(SimIo, SetRecordRejectsMalformed) {
  EXPECT_THROW(parse("@set\n"), ParseError);            // no entries
  EXPECT_THROW(parse("@set a\n"), ParseError);          // missing value
  EXPECT_THROW(parse("@set a=2\n"), ParseError);        // not 0/1
  EXPECT_THROW(parse("@set a=\n"), ParseError);         // empty value
}

TEST(SimIo, FixedValuesSurviveRoundTrip) {
  Netlist nl;
  nl.mark_power("vdd");
  nl.mark_ground("gnd");
  const NodeId sel = nl.mark_input("sel");
  const NodeId a = nl.add_node("a");
  const NodeId b = nl.add_node("b");
  nl.add_transistor(TransistorType::kNEnhancement, sel, a, b, 8e-6, 4e-6,
                    Flow::kSourceToDrain);
  nl.set_fixed(sel, true);
  nl.set_fixed(a, false);
  const Netlist rt = reparse(nl);
  EXPECT_EQ(rt.node(*rt.find_node("sel")).fixed_value(),
            std::optional<bool>(true));
  EXPECT_EQ(rt.node(*rt.find_node("a")).fixed_value(),
            std::optional<bool>(false));
  EXPECT_EQ(rt.node(*rt.find_node("b")).fixed_value(), std::nullopt);
  EXPECT_EQ(rt.device(DeviceId(0)).flow, Flow::kSourceToDrain);
  // Unpinning drops the node from the @set record entirely.
  Netlist freed = reparse(nl);
  freed.set_fixed(*freed.find_node("a"), std::nullopt);
  const Netlist rt2 = reparse(freed);
  EXPECT_EQ(rt2.node(*rt2.find_node("a")).fixed_value(), std::nullopt);
  EXPECT_EQ(rt2.node(*rt2.find_node("sel")).fixed_value(),
            std::optional<bool>(true));
}

TEST(SimIo, MutatedNetlistSurvivesRoundTrip) {
  const GeneratedCircuit g = inverter_chain(Style::kNmos, 3, 1);
  Netlist nl = g.netlist;
  nl.set_width(DeviceId(0), 16e-6);
  nl.set_length(DeviceId(1), 6e-6);
  nl.set_capacitance(*nl.find_node("s1"), 55e-15);
  nl.set_flow(DeviceId(2), Flow::kDrainToSource);
  const Netlist rt = reparse(nl);
  EXPECT_NEAR(rt.device(DeviceId(0)).width, 16e-6, 1e-12);
  EXPECT_NEAR(rt.device(DeviceId(1)).length, 6e-6, 1e-12);
  EXPECT_NEAR(rt.node(*rt.find_node("s1")).cap, 55e-15, 1e-21);
  EXPECT_EQ(rt.device(DeviceId(2)).flow, Flow::kDrainToSource);
}

// Round-trip property: write + reparse preserves the circuit.
class SimIoRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(SimIoRoundTrip, GeneratedCircuitSurvivesRoundTrip) {
  const auto suite = accuracy_suite(Style::kNmos);
  const auto& g = suite[static_cast<std::size_t>(GetParam())];
  const Netlist& a = g.netlist;
  const Netlist b = reparse(a);

  ASSERT_EQ(b.node_count(), a.node_count());
  ASSERT_EQ(b.device_count(), a.device_count());
  for (NodeId n : a.node_ids()) {
    const Node& na = a.node(n);
    const auto found = b.find_node(na.name);
    ASSERT_TRUE(found.has_value()) << na.name;
    const Node& nb = b.node(*found);
    EXPECT_EQ(nb.is_power, na.is_power) << na.name;
    EXPECT_EQ(nb.is_ground, na.is_ground) << na.name;
    EXPECT_EQ(nb.is_input, na.is_input) << na.name;
    EXPECT_EQ(nb.is_output, na.is_output) << na.name;
    EXPECT_EQ(nb.is_precharged, na.is_precharged) << na.name;
    EXPECT_NEAR(nb.cap, na.cap, 1e-21) << na.name;
  }
  for (DeviceId d : a.device_ids()) {
    const Transistor& ta = a.device(d);
    const Transistor& tb = b.device(d);
    EXPECT_EQ(tb.type, ta.type);
    EXPECT_EQ(b.node(tb.gate).name, a.node(ta.gate).name);
    EXPECT_EQ(b.node(tb.source).name, a.node(ta.source).name);
    EXPECT_EQ(b.node(tb.drain).name, a.node(ta.drain).name);
    EXPECT_NEAR(tb.width, ta.width, 1e-12);
    EXPECT_NEAR(tb.length, ta.length, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSuiteCircuits, SimIoRoundTrip,
                         ::testing::Range(0, 16));

}  // namespace
}  // namespace sldm

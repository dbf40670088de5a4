// Tests for the .sim reader/writer, including a round-trip property over
// every generated benchmark circuit, the lexing edge cases of the
// one-buffer tokenizer, and the physical-range checks.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "cli/cli.h"
#include "gen/generators.h"
#include "netlist/changes.h"
#include "netlist/eco_io.h"
#include "netlist/sim_io.h"
#include "util/error.h"
#include "util/ledger.h"
#include "util/strings.h"
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

// write_sim prints each size and cap with as many digits as it takes
// to re-load the stored double, so `sldm eco --write` saves the edited
// design: re-loading the written file gives the eco's fingerprint.
TEST(SimIo, EcoWriteSavesTheEditedDesign) {
  const std::string dir = ::testing::TempDir();
  const std::string sim = dir + "sldm_eco_write_in.sim";
  const std::string edits = dir + "sldm_eco_write.eco";
  const std::string written = dir + "sldm_eco_write_out.sim";
  const std::string ledger = dir + "sldm_eco_write.jsonl";
  std::remove(ledger.c_str());
  write_sim_file(random_logic(Style::kNmos, 6, 16, 11).netlist, sim);
  {
    std::ofstream out(edits);
    out << "cap g1_2 1.23456789\n"
        << "cap g3_3 0.1\naddcap g3_3 0.2\n";  // a sum no decimal reaches
  }
  std::ostringstream out;
  std::ostringstream err;
  ASSERT_EQ(run_cli({"eco", sim, edits, "--model", "rc-tree", "--write",
                     written, "--ledger", ledger},
                    out, err),
            0)
      << err.str();
  ASSERT_EQ(run_cli({"time", written, "--model", "rc-tree", "--ledger",
                     ledger},
                    out, err),
            0)
      << err.str();
  const std::vector<LedgerRecord> records = read_ledger_file(ledger);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].kind, "eco");
  EXPECT_EQ(records[1].fingerprint, records[0].fingerprint);
  for (const std::string& path : {sim, edits, written, ledger}) {
    std::remove(path.c_str());
  }
}

// Values as a .sim or .eco parse stores them (a decimal times the
// unit), with more digits than %.6g keeps, and a sum of two caps.
TEST(SimIo, SizesAndCapsRoundTripExactly) {
  const GeneratedCircuit g = inverter_chain(Style::kNmos, 3, 1);
  Netlist nl = g.netlist;
  nl.set_width(DeviceId(0), 1.23456789 * units::um);
  nl.set_length(DeviceId(1), (0.1 + 0.2) * units::um);  // 0.30000000000000004
  nl.set_capacitance(*nl.find_node("s1"), (100.0 / 3.0) * units::fF);
  // 0.1 + 0.2 fF is no decimal times fF: written as two `c` records.
  nl.set_capacitance(g.output, 0.1 * units::fF);
  nl.add_cap(g.output, 0.2 * units::fF);
  const Netlist rt = reparse(nl);
  for (DeviceId d : nl.all_devices()) {
    EXPECT_EQ(rt.device(d).width, nl.device(d).width) << d.index();
    EXPECT_EQ(rt.device(d).length, nl.device(d).length) << d.index();
  }
  for (NodeId n : nl.all_nodes()) {
    const Node& node = nl.node(n);
    EXPECT_EQ(rt.node(*rt.find_node(node.name)).cap, node.cap) << node.name;
  }
}

// --- one-buffer parse: equivalence with the line-by-line build --------

/// The reference the bulk parser must match: the netlist a line-by-line
/// build makes from the same records (getline + split_ws, one
/// add_transistor per device line), restricted to what write_sim emits.
Netlist reference_build(const std::string& text) {
  Netlist nl;
  const double unit_m = 100.0 * 1e-8;  // the "| units: 100" header
  const auto intern = [&nl](const std::string& name) {
    const NodeId id = nl.add_node(name);
    std::string n = name;
    for (char& c : n) c = static_cast<char>(std::tolower(c));
    if (n == "vdd" || n == "vdd!") nl.node(id).is_power = true;
    if (n == "gnd" || n == "gnd!" || n == "vss" || n == "vss!") {
      nl.node(id).is_ground = true;
    }
    return id;
  };
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const std::vector<std::string> t = split_ws(line);
    if (t.empty() || t[0][0] == '|') continue;
    if (t[0] == "e" || t[0] == "n" || t[0] == "d" || t[0] == "p") {
      TransistorType type = TransistorType::kNEnhancement;
      if (t[0] == "d") type = TransistorType::kNDepletion;
      if (t[0] == "p") type = TransistorType::kPEnhancement;
      Flow flow = Flow::kBidirectional;
      if (t.size() > 6) {
        flow = t[6] == "flow=s>d" ? Flow::kSourceToDrain
                                  : Flow::kDrainToSource;
      }
      const double l = *parse_double(t[4]) * unit_m;
      const double w = *parse_double(t[5]) * unit_m;
      const NodeId g = intern(t[1]);
      const NodeId src = intern(t[2]);
      const NodeId drn = intern(t[3]);
      nl.add_transistor(type, g, src, drn, w, l, flow);
    } else if (t[0] == "c") {
      nl.add_cap(intern(t[1]), *parse_double(t[2]) * units::fF);
    } else if (t[0] == "@set") {
      for (std::size_t i = 1; i < t.size(); ++i) {
        const std::size_t eq = t[i].find('=');
        nl.set_fixed(intern(t[i].substr(0, eq)), t[i][eq + 1] == '1');
      }
    } else {
      for (std::size_t i = 1; i < t.size(); ++i) {
        if (t[0] == "@vdd") nl.mark_power(t[i]);
        if (t[0] == "@gnd") nl.mark_ground(t[i]);
        if (t[0] == "@in") nl.mark_input(t[i]);
        if (t[0] == "@out") nl.mark_output(t[i]);
        if (t[0] == "@precharged") nl.mark_precharged(t[i]);
      }
    }
  }
  return nl;
}

/// Every observable of two netlists with the same numbering, exactly.
void expect_identical(const Netlist& a, const Netlist& b,
                      const std::string& what) {
  ASSERT_EQ(a.node_count(), b.node_count()) << what;
  ASSERT_EQ(a.device_count(), b.device_count()) << what;
  EXPECT_EQ(a.revision(), b.revision()) << what;
  for (NodeId n : a.all_nodes()) {
    const Node& x = a.node(n);
    const Node& y = b.node(n);
    ASSERT_EQ(x.name, y.name) << what;
    EXPECT_EQ(b.find_node(x.name), n) << what << " " << x.name;
    EXPECT_EQ(x.cap, y.cap) << what << " " << x.name;
    EXPECT_EQ(x.is_power, y.is_power) << what << " " << x.name;
    EXPECT_EQ(x.is_ground, y.is_ground) << what << " " << x.name;
    EXPECT_EQ(x.is_input, y.is_input) << what << " " << x.name;
    EXPECT_EQ(x.is_output, y.is_output) << what << " " << x.name;
    EXPECT_EQ(x.is_precharged, y.is_precharged) << what << " " << x.name;
    EXPECT_EQ(x.fixed, y.fixed) << what << " " << x.name;
    EXPECT_EQ(a.gated_by(n), b.gated_by(n)) << what << " " << x.name;
    EXPECT_EQ(a.channels_at(n), b.channels_at(n)) << what << " " << x.name;
  }
  for (DeviceId d : a.all_devices()) {
    const Transistor& x = a.device(d);
    const Transistor& y = b.device(d);
    EXPECT_EQ(x.type, y.type) << what;
    EXPECT_EQ(x.gate, y.gate) << what;
    EXPECT_EQ(x.source, y.source) << what;
    EXPECT_EQ(x.drain, y.drain) << what;
    EXPECT_EQ(x.width, y.width) << what;
    EXPECT_EQ(x.length, y.length) << what;
    EXPECT_EQ(x.flow, y.flow) << what;
  }
}

/// The same circuit under a different node numbering: node names,
/// device order and terminals, adjacency order, caps (to the written
/// precision), roles and pins.
void expect_same_circuit(const Netlist& gen, const Netlist& parsed,
                         const std::string& what) {
  ASSERT_EQ(gen.node_count(), parsed.node_count()) << what;
  ASSERT_EQ(gen.device_count(), parsed.device_count()) << what;
  const auto name_of = [](const Netlist& nl, NodeId n) {
    return nl.node(n).name.str();
  };
  for (NodeId n : gen.all_nodes()) {
    const Node& x = gen.node(n);
    const auto m = parsed.find_node(x.name);
    ASSERT_TRUE(m.has_value()) << what << " " << x.name;
    const Node& y = parsed.node(*m);
    EXPECT_NEAR(y.cap, x.cap, 1e-5 * x.cap) << what << " " << x.name;
    EXPECT_EQ(y.is_power, x.is_power) << what << " " << x.name;
    EXPECT_EQ(y.is_ground, x.is_ground) << what << " " << x.name;
    EXPECT_EQ(y.is_input, x.is_input) << what << " " << x.name;
    EXPECT_EQ(y.is_output, x.is_output) << what << " " << x.name;
    EXPECT_EQ(y.is_precharged, x.is_precharged) << what << " " << x.name;
    EXPECT_EQ(y.fixed, x.fixed) << what << " " << x.name;
    // Device ids survive (records are written in device order), so the
    // adjacency lists must match entry for entry.
    EXPECT_EQ(parsed.gated_by(*m), gen.gated_by(n)) << what << " " << x.name;
    EXPECT_EQ(parsed.channels_at(*m), gen.channels_at(n))
        << what << " " << x.name;
  }
  for (DeviceId d : gen.all_devices()) {
    const Transistor& x = gen.device(d);
    const Transistor& y = parsed.device(d);
    EXPECT_EQ(y.type, x.type) << what;
    EXPECT_EQ(name_of(parsed, y.gate), name_of(gen, x.gate)) << what;
    EXPECT_EQ(name_of(parsed, y.source), name_of(gen, x.source)) << what;
    EXPECT_EQ(name_of(parsed, y.drain), name_of(gen, x.drain)) << what;
    EXPECT_NEAR(y.width, x.width, 1e-5 * x.width) << what;
    EXPECT_NEAR(y.length, x.length, 1e-5 * x.length) << what;
    EXPECT_EQ(y.flow, x.flow) << what;
  }
}

std::vector<GeneratedCircuit> every_generator_family() {
  std::vector<GeneratedCircuit> out;
  for (const Style style : {Style::kNmos, Style::kCmos}) {
    for (GeneratedCircuit& g : accuracy_suite(style)) {
      out.push_back(std::move(g));
    }
    out.push_back(shift_register(style, 4));
    out.push_back(sram_read_column(style, 16));
    out.push_back(random_logic(style, 8, 16, 7));
    out.push_back(driver_chain(style, 5, 4.0, 5000.0));
  }
  return out;
}

TEST(SimIoBulk, EveryGeneratorFamilyRoundTripsToTheSameNetlist) {
  for (const GeneratedCircuit& g : every_generator_family()) {
    std::ostringstream text;
    write_sim(g.netlist, text);
    std::istringstream in(text.str());
    const Netlist parsed = read_sim(in, g.name);
    expect_same_circuit(g.netlist, parsed, g.name);
    expect_identical(reference_build(text.str()), parsed, g.name);
    // A second round trip is a fixed point, journal length included.
    expect_identical(parsed, reparse(parsed), g.name + " (fixed point)");
  }
}

TEST(SimIoBulk, FileAndStreamEntryPointsAgree) {
  const std::string path =
      std::string(SLDM_SOURCE_DIR) + "/testdata/sample_datapath.sim";
  std::ifstream in(path);
  expect_identical(read_sim_file(path), read_sim(in, path), path);
}

// --- lexing edge cases ---------------------------------------------------

constexpr const char* kLexBase =
    "| units: 50\n"
    "e in gnd out 4 8\n"
    "d out out vdd 8 4 flow=s>d\n"
    "c out 12.5\n"
    "@in in\n"
    "@out out\n";

TEST(SimIoLex, CrlfParsesLikeLf) {
  std::string crlf;
  for (const char c : std::string(kLexBase)) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  expect_identical(parse(kLexBase), parse(crlf), "crlf");
  // The CRLF copy of the checked-in datapath too.
  const std::string path =
      std::string(SLDM_SOURCE_DIR) + "/testdata/sample_datapath.sim";
  std::ifstream file(path);
  std::stringstream lf;
  lf << file.rdbuf();
  std::string dp_crlf;
  for (const char c : lf.str()) {
    if (c == '\n') dp_crlf += '\r';
    dp_crlf += c;
  }
  expect_identical(parse(lf.str()), parse(dp_crlf), "datapath crlf");
}

TEST(SimIoLex, EveryCLocaleSpaceSeparatesTokens) {
  const Netlist nl = parse(
      "|\tunits:\v50\n"
      "e\tin\vgnd\fout 4\r8\n"
      "d out\t\tout   vdd\f8 4 flow=s>d\n"
      "c\vout 12.5\n"
      "@in\fin\n"
      "@out out \t\n");
  expect_identical(parse(kLexBase), nl, "whitespace set");
}

TEST(SimIoLex, BlankAndCommentLinesKeepLineNumbers) {
  const Netlist nl = parse(
      "  \t \r\n"
      "\n"
      "   | an indented comment: e x y z 4 8\n"
      "\t|units: 100 (attached to the bar)\n"
      "e in gnd out 4 8\n"
      " \f\v \n");
  EXPECT_EQ(nl.device_count(), 1u);
  EXPECT_EQ(nl.node_count(), 3u);
  try {
    parse("  \t \r\n\n   | comment\n\r\ne in gnd out 4 x8\n");
    FAIL() << "should have thrown";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 5);
  }
}

TEST(SimIoLex, UnitsKeyIsCaseInsensitive) {
  const Netlist a = parse("| UNITS: 50\ne a gnd b 4 8\n");
  EXPECT_DOUBLE_EQ(a.device(DeviceId(0)).length, 2e-6);
  const Netlist b = parse("| Units: 50 then units: 200\ne a gnd b 4 8\n");
  EXPECT_DOUBLE_EQ(b.device(DeviceId(0)).length, 8e-6);  // last wins
  EXPECT_THROW(parse("| units:\n| units: units:\n"), ParseError);
  // A trailing key with no value is just a comment.
  EXPECT_EQ(parse("| units:\ne a gnd b 4 8\n").device_count(), 1u);
}

TEST(SimIoLex, LastLineWithoutNewline) {
  const Netlist nl = parse("e in gnd out 4 8\n@in in");
  EXPECT_TRUE(nl.node(*nl.find_node("in")).is_input);
  try {
    parse("e in gnd out 4 8\nbogus");
    FAIL() << "should have thrown";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);
  }
  EXPECT_EQ(parse("").node_count(), 0u);
  EXPECT_EQ(parse("\n\n").node_count(), 0u);
}

TEST(SimIoLex, LongRoleLine) {
  std::string text = "@in";
  for (int i = 0; i < 5000; ++i) text += format(" in%d", i);
  text += "\n";
  const Netlist nl = parse(text);
  ASSERT_EQ(nl.node_count(), 5000u);
  EXPECT_EQ(nl.revision(), 10000u);  // one add and one mark per name
  for (int i = 0; i < 5000; i += 499) {
    const auto id = nl.find_node(format("in%d", i));
    ASSERT_TRUE(id.has_value()) << i;
    EXPECT_EQ(*id, NodeId(static_cast<std::uint32_t>(i)));
    EXPECT_TRUE(nl.node(*id).is_input);
  }
}

TEST(SimIoLex, NulByteInARecordIsALocatedError) {
  // A NUL is an ordinary byte to the tokenizer (as it was to getline),
  // so it poisons the token it sits in.
  const auto line_of = [](const std::string& text) {
    try {
      parse(text);
    } catch (const ParseError& e) {
      return e.line();
    }
    return 0;
  };
  using namespace std::string_literals;
  const std::string head = "e in gnd out 4 8\n\n";
  EXPECT_EQ(line_of(head + "e in gnd out 4\0 8\n"s), 3);
  EXPECT_EQ(line_of(head + "e\0 in gnd out 4 8\n"s), 3);
  EXPECT_EQ(line_of(head + "c out \0\n"s), 3);
}

TEST(EcoIo, DeviceRecordsMatchParallelAndSwappedDevicesInIdOrder) {
  Netlist nl;
  const NodeId g = nl.add_node("g");
  const NodeId other = nl.add_node("other");
  const NodeId a = nl.add_node("a");
  const NodeId b = nl.add_node("b");
  const NodeId c = nl.add_node("c");
  const auto e = TransistorType::kNEnhancement;
  nl.add_transistor(e, g, a, b, 4e-6, 2e-6);      // 0: matches
  nl.add_transistor(e, other, a, b, 4e-6, 2e-6);  // 1: other gate
  nl.add_transistor(e, g, b, a, 4e-6, 2e-6);      // 2: swapped channel
  nl.add_transistor(e, g, a, c, 4e-6, 2e-6);      // 3: other channel
  nl.add_transistor(e, g, a, b, 4e-6, 2e-6);      // 4: parallel duplicate
  const std::uint64_t since = nl.revision();

  std::istringstream script("width g a b 10\n");
  EXPECT_EQ(apply_eco(script, nl, "edit.eco"), 1u);
  std::vector<std::uint32_t> sized;
  for (std::uint64_t i = since; i < nl.revision(); ++i) {
    EXPECT_EQ(nl.changes().entry(i).kind, ChangeKind::kDeviceSized);
    sized.push_back(nl.changes().entry(i).index);
  }
  EXPECT_EQ(sized, (std::vector<std::uint32_t>{0, 2, 4}));
  for (const std::uint32_t d : {0u, 2u, 4u}) {
    EXPECT_DOUBLE_EQ(nl.device(DeviceId(d)).width, 10e-6) << d;
  }
  for (const std::uint32_t d : {1u, 3u}) {
    EXPECT_DOUBLE_EQ(nl.device(DeviceId(d)).width, 4e-6) << d;
  }

  std::istringstream miss("length other a c 3\n");
  try {
    apply_eco(miss, nl, "edit.eco");
    FAIL() << "a record matching no device must be a parse error";
  } catch (const ParseError& err) {
    EXPECT_NE(std::string(err.what()).find(
                  "no device matches gate=other channel=a/c"),
              std::string::npos)
        << err.what();
  }
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

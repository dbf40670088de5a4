// Tests for the differential fuzzing subsystem (src/fuzz): seed
// determinism, generated-circuit validity, shrinking, repro round
// trips, the checked-in corpus under testdata/fuzz/, eco parser
// hardening, and the degenerate stage shapes the fuzzer exposed.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/cli.h"
#include "delay/lumped.h"
#include "delay/rctree.h"
#include "fuzz/eco_fuzzer.h"
#include "fuzz/fuzz.h"
#include "fuzz/netlist_fuzzer.h"
#include "fuzz/oracles.h"
#include "fuzz/repro.h"
#include "fuzz/rng.h"
#include "fuzz/shrink.h"
#include "netlist/checks.h"
#include "netlist/eco_io.h"
#include "netlist/sim_io.h"
#include "tech/tech.h"
#include "timing/analyzer.h"
#include "util/error.h"

namespace sldm {
namespace {

const std::string kFuzzData = std::string(SLDM_SOURCE_DIR) + "/testdata/fuzz";

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

// --- rng -----------------------------------------------------------------

TEST(FuzzRng, DeterministicStream) {
  FuzzRng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
  // Different seeds diverge immediately (splitmix64 mixes the seed).
  EXPECT_NE(FuzzRng(42).next(), c.next());
}

TEST(FuzzRng, BelowStaysInRangeAndForkDecorrelates) {
  FuzzRng rng(7);
  for (int i = 0; i < 200; ++i) {
    EXPECT_LT(rng.below(13), 13u);
  }
  EXPECT_EQ(rng.below(0), 0u);
  FuzzRng parent(7);
  FuzzRng child(parent.fork());
  // The fork must not replay the parent's stream.
  EXPECT_NE(child.next(), FuzzRng(7).next());
}

// --- generated circuits --------------------------------------------------

TEST(NetlistFuzzer, RandomCircuitsAreStructurallyValid) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    FuzzRng rng(seed);
    const GeneratedCircuit g = random_circuit(rng);
    EXPECT_TRUE(all_ok(check(g.netlist))) << g.name << " seed " << seed;
    EXPECT_TRUE(g.input.valid()) << g.name;
    EXPECT_TRUE(g.output.valid()) << g.name;
  }
}

TEST(NetlistFuzzer, SameSeedSameCircuit) {
  FuzzRng a(99), b(99);
  const GeneratedCircuit ga = random_circuit(a);
  const GeneratedCircuit gb = random_circuit(b);
  EXPECT_EQ(ga.name, gb.name);
  ASSERT_EQ(ga.netlist.device_count(), gb.netlist.device_count());
  ASSERT_EQ(ga.netlist.node_count(), gb.netlist.node_count());
  std::ostringstream sa, sb;
  write_sim(ga.netlist, sa);
  write_sim(gb.netlist, sb);
  EXPECT_EQ(sa.str(), sb.str());
}

TEST(NetlistFuzzer, SoupWithBridgesStaysAnalyzable) {
  // Flow-restricted bridges must not create stage-graph cycles.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    FuzzRng rng(seed);
    const GeneratedCircuit g =
        random_soup(seed % 2 ? Style::kNmos : Style::kCmos, 5, 3, rng);
    ASSERT_TRUE(all_ok(check(g.netlist))) << seed;
    const RcTreeModel model;
    const Tech tech = seed % 2 ? nmos4() : cmos3();
    TimingAnalyzer an(g.netlist, tech, model);
    an.add_all_input_events(1e-9);
    EXPECT_NO_THROW(an.run()) << "soup seed " << seed;
  }
}

// --- campaign ------------------------------------------------------------

TEST(FuzzCampaign, DeterministicAndCleanOnSeededRun) {
  FuzzOptions opts;
  opts.seed = 11;
  opts.iterations = 60;
  opts.threads = 4;
  std::ostringstream log1, log2;
  const FuzzReport r1 = run_fuzz(opts, log1);
  const FuzzReport r2 = run_fuzz(opts, log2);
  EXPECT_TRUE(r1.clean()) << r1.to_string();
  EXPECT_EQ(r1.to_string(), r2.to_string());
  EXPECT_EQ(log1.str(), log2.str());
  // Every oracle participated.
  EXPECT_GT(r1.oracle_runs.at("netlist-check"), 0u);
  EXPECT_GT(r1.oracle_runs.at("sanity"), 0u);
  EXPECT_GT(r1.oracle_runs.at("stage-bounds"), 0u);
  EXPECT_GT(r1.oracle_runs.at("eco-identity"), 0u);
}

TEST(FuzzCampaign, SingleThreadMatchesMultiThread) {
  // The eco-identity oracle varies its thread list with opts.threads,
  // but verdicts and accounting must not change.
  FuzzOptions a;
  a.seed = 23;
  a.iterations = 40;
  a.threads = 1;
  FuzzOptions b = a;
  b.threads = 8;
  std::ostringstream log;
  const FuzzReport ra = run_fuzz(a, log);
  const FuzzReport rb = run_fuzz(b, log);
  EXPECT_TRUE(ra.clean()) << ra.to_string();
  EXPECT_TRUE(rb.clean()) << rb.to_string();
  EXPECT_EQ(ra.oracle_runs, rb.oracle_runs);
  EXPECT_EQ(ra.oracle_skips, rb.oracle_skips);
}

// --- shrinking -----------------------------------------------------------

TEST(Shrink, ReducesToOneMinimalWitness) {
  FuzzRng rng(5);
  const GeneratedCircuit g = inverter_chain(Style::kNmos, 6, 3);
  const auto count_depletion = [](const GeneratedCircuit& c) {
    std::size_t n = 0;
    for (DeviceId d : c.netlist.all_devices()) {
      if (c.netlist.device(d).type == TransistorType::kNDepletion) ++n;
    }
    return n;
  };
  ASSERT_GT(count_depletion(g), 1u);
  const GeneratedCircuit small = shrink_circuit(
      g, [&](const GeneratedCircuit& c) { return count_depletion(c) >= 1; });
  // ddmin is 1-minimal: removing any single remaining device must break
  // the predicate, so exactly one (depletion) device survives.
  EXPECT_EQ(small.netlist.device_count(), 1u);
  EXPECT_EQ(count_depletion(small), 1u);
}

TEST(Shrink, EcoScriptLineMinimization) {
  const std::vector<std::string> lines = {"a", "b", "keep", "c", "d"};
  const auto fails = [](const std::vector<std::string>& ls) {
    for (const auto& l : ls) {
      if (l == "keep") return true;
    }
    return false;
  };
  const std::vector<std::string> small = shrink_eco(lines, fails);
  ASSERT_EQ(small.size(), 1u);
  EXPECT_EQ(small[0], "keep");
}

TEST(Shrink, SubsetPreservesRolesAndMetadata) {
  const GeneratedCircuit g = inverter_chain(Style::kNmos, 3, 1);
  std::vector<bool> keep(g.netlist.device_count(), false);
  keep[0] = true;
  const GeneratedCircuit s = subset_circuit(g, keep);
  EXPECT_EQ(s.netlist.device_count(), 1u);
  // The stimulated input and observed output survive by role even when
  // no kept device touches them.
  EXPECT_TRUE(s.input.valid());
  EXPECT_TRUE(s.output.valid());
  EXPECT_EQ(s.netlist.node(s.input).name, g.netlist.node(g.input).name);
  EXPECT_EQ(s.netlist.node(s.output).name, g.netlist.node(g.output).name);
}

// --- repro files ---------------------------------------------------------

TEST(Repro, WriteLoadRoundTrip) {
  const std::string dir = temp_path("sldm_fuzz_repro");
  std::filesystem::create_directories(dir);
  FuzzRng rng(3);
  const GeneratedCircuit g = random_circuit(rng);
  std::ostringstream sim;
  write_sim(g.netlist, sim);

  ReproCase c;
  c.oracle = "stage-bounds";
  c.seed = 1234567;
  c.threads = 4;
  c.slope_ns = 2.5;
  c.detail = "round-trip fixture";
  const std::string manifest =
      write_repro(dir, "roundtrip", c, sim.str(), "", "");
  const ReproCase loaded = load_repro(manifest);
  EXPECT_EQ(loaded.oracle, c.oracle);
  EXPECT_EQ(loaded.seed, c.seed);
  EXPECT_EQ(loaded.threads, c.threads);
  EXPECT_DOUBLE_EQ(loaded.slope_ns, c.slope_ns);
  EXPECT_EQ(loaded.detail, c.detail);
  const OracleResult r = replay_repro(loaded);
  EXPECT_TRUE(r.ok) << r.detail;
}

TEST(Repro, LoadRejectsMalformedManifests) {
  const std::string dir = temp_path("sldm_fuzz_badrepro");
  std::filesystem::create_directories(dir);
  const auto write_and_load = [&](const std::string& name,
                                  const std::string& text) {
    const std::string path = dir + "/" + name + ".repro";
    std::ofstream(path) << text;
    return load_repro(path);
  };
  EXPECT_THROW(write_and_load("unknown", "oracle x\nwhatever y\n"),
               ParseError);
  EXPECT_THROW(write_and_load("novalue", "oracle\n"), ParseError);
  EXPECT_THROW(write_and_load("noracle", "seed 1\n"), ParseError);
  EXPECT_THROW(write_and_load("badseed", "oracle x\nseed -2y\n"), ParseError);
}

TEST(Repro, CheckedInCorpusReplaysClean) {
  std::ostringstream log;
  EXPECT_EQ(replay_path(kFuzzData, log), 0) << log.str();
}

// --- eco parser hardening (the NaN/Inf class of bugs) --------------------

TEST(EcoParser, RejectsMalformedLines) {
  const Netlist base =
      read_sim_file(kFuzzData + "/eco_reject_nan_width.sim");
  const std::vector<std::string> bad = {
      "width a gnd out nan",
      "width a gnd out inf",
      "width a gnd out -3",
      "width a gnd out 0",
      "length a gnd out nan",
      "cap out nan",
      "cap out inf",
      "cap out -1",
      "addcap out -inf",
      "flow a gnd out sideways",
      "set out 2",
      "width a gnd out",
      "transistor e a gnd",
      "transistor z a b c 2 4",
      "frobnicate out 3",
  };
  for (const std::string& line : bad) {
    Netlist nl = base;
    std::istringstream in(line);
    EXPECT_THROW(apply_eco(in, nl, "<bad>"), ParseError) << line;
  }
  // Errors carry the line number of the offending record.
  Netlist nl = base;
  std::istringstream in("| comment\ncap out 5\nwidth a gnd out nan\n");
  try {
    apply_eco(in, nl, "<bad>");
    FAIL() << "should have thrown";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3);
    EXPECT_NE(std::string(e.what()).find("<bad>:3:"), std::string::npos)
        << e.what();
  }
}

TEST(EcoParser, RejectsNonPhysicalValuesWithLocatedErrors) {
  // Every value shares the .sim decoder's physical ranges: dimensions
  // within [1 nm, 1 cm], caps within [0, 1 nF] per record.  A finite
  // "width ... 1e300" is positive, but not physical.
  const Netlist base =
      read_sim_file(kFuzzData + "/eco_reject_nan_width.sim");
  struct Case {
    const char* record;
    const char* message;
  };
  const std::vector<Case> cases = {
      {"width a gnd out 1e300", "transistor width 1e300"},
      {"length a gnd out 1e-300", "transistor length 1e-300"},
      {"width a gnd out 10001", "outside the physical range"},
      {"length a gnd out 0.0009", "outside the physical range"},
      {"cap out 1e308", "cap 1e308 fF outside the physical range"},
      {"addcap out 1000001", "outside the physical range"},
      {"transistor e a gnd n1 1e300 4", "transistor length 1e300"},
      {"transistor e a gnd n1 2 1e-300", "transistor width 1e-300"},
      {"width a gnd out 1x", "bad transistor width '1x'"},
      {"cap out 5fF", "bad cap '5fF'"},
  };
  for (const Case& c : cases) {
    Netlist nl = base;
    std::istringstream in(std::string("| header\ncap out 5\n") + c.record +
                          "\n");
    try {
      apply_eco(in, nl, "<eco>");
      ADD_FAILURE() << "accepted: " << c.record;
    } catch (const ParseError& e) {
      EXPECT_EQ(e.line(), 3) << c.record;
      EXPECT_NE(std::string(e.what()).find(c.message), std::string::npos)
          << e.what();
    }
  }
  // The edges of the ranges still apply.
  Netlist nl = base;
  std::istringstream in(
      "width a gnd out 10000\nlength a gnd out 0.001\ncap out 1e6\n"
      "addcap out 0\n");
  EXPECT_EQ(apply_eco(in, nl, "<eco>"), 4u);
}

TEST(EcoParser, CliExitsNonZeroOnMalformedScript) {
  const std::string sim = kFuzzData + "/eco_reject_nan_width.sim";
  const std::string eco = temp_path("bad_width.eco");
  std::ofstream(eco) << "width a gnd out nan\n";
  std::ostringstream out, err;
  const int rc = run_cli({"eco", sim, eco, "--model", "rc-tree"}, out, err);
  EXPECT_EQ(rc, 1);
  EXPECT_NE(err.str().find("error:"), std::string::npos) << err.str();
}

// --- degenerate stage shapes --------------------------------------------

TEST(DegenerateStages, AnalyzersAgreeAndEstimatesStayPositive) {
  const Netlist nl = read_sim_file(kFuzzData + "/degenerate_stages.sim");
  ASSERT_TRUE(all_ok(check(nl)));
  const Tech tech = nmos4();

  const RcTreeModel rctree;
  const LumpedRcModel lumped;
  TimingAnalyzer a_tree(nl, tech, rctree);
  TimingAnalyzer a_lump(nl, tech, lumped);
  a_tree.add_all_input_events(1e-9);
  a_lump.add_all_input_events(1e-9);
  a_tree.run();
  a_lump.run();

  // Both models produce arrivals at the zero-cap pass node, the
  // one-transistor CCC's output, and the pull-up+pass-driven node.
  for (const char* name : {"mid", "probe", "shared", "out"}) {
    const auto node = nl.find_node(name);
    ASSERT_TRUE(node.has_value()) << name;
    bool any = false;
    for (Transition dir : {Transition::kRise, Transition::kFall}) {
      const auto t = a_tree.arrival(*node, dir);
      const auto l = a_lump.arrival(*node, dir);
      EXPECT_EQ(t.has_value(), l.has_value())
          << name << ' ' << to_string(dir);
      if (!t || !l) continue;
      any = true;
      EXPECT_TRUE(std::isfinite(t->time)) << name;
      EXPECT_GE(t->time, 0.0) << name;
      EXPECT_GE(t->slope, 0.0) << name;
      // Lumped is never optimistic relative to the RC-tree estimate.
      EXPECT_GE(l->time, t->time - 1e-18) << name << ' ' << to_string(dir);
    }
    EXPECT_TRUE(any) << name << " never switches";
  }

  // The full bound ordering holds on every extracted stage.
  const OracleResult r =
      check_stage_bounds(nl, tech, a_tree.stages(), 1e-9);
  EXPECT_TRUE(r.ok) << r.detail;
}

TEST(DegenerateStages, EcoIdentityHoldsOnPassMuxCase) {
  const Netlist nl = read_sim_file(kFuzzData + "/eco_identity_passmux.sim");
  ASSERT_TRUE(all_ok(check(nl)));
  std::ifstream eco(kFuzzData + "/eco_identity_passmux.eco");
  ASSERT_TRUE(eco.is_open());
  std::ostringstream script;
  script << eco.rdbuf();

  GeneratedCircuit g;
  g.name = "passmux";
  g.style = Style::kNmos;
  for (NodeId n : nl.all_nodes()) {
    if (nl.node(n).is_input && !g.input.valid()) g.input = n;
    if (nl.node(n).is_output && !g.output.valid()) g.output = n;
  }
  g.netlist = nl;
  const OracleResult r =
      check_eco_identity(g, script.str(), {1, 2, 4}, 1e-9);
  EXPECT_TRUE(r.ok) << r.detail;
}

// --- eco fuzzer ----------------------------------------------------------

TEST(EcoFuzzer, ScriptsApplyCleanlyToTheirNetlist) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    FuzzRng rng(seed);
    GeneratedCircuit g = random_circuit(rng);
    int new_nodes = 0;
    const std::vector<std::string> lines =
        random_eco_script(g.netlist, rng, 5, g.input, &new_nodes);
    std::istringstream in(join_script(lines));
    EXPECT_NO_THROW(apply_eco(in, g.netlist, "<fuzz>"))
        << g.name << " seed " << seed << ":\n"
        << join_script(lines);
  }
}

}  // namespace
}  // namespace sldm

// Tests for the `sldm` command-line tool, driven in-process.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "cli/cli.h"
#include "gen/generators.h"
#include "netlist/sim_io.h"
#include "tech/tech_io.h"

namespace sldm {
namespace {

/// A scratch file deleted at scope exit.
class TempFile {
 public:
  TempFile(const std::string& name, const std::string& contents)
      : path_("/tmp/sldm_cli_test_" + name) {
    std::ofstream out(path_);
    out << contents;
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

constexpr const char* kInverterSim =
    "e in gnd out 4 8\n"
    "d out out vdd 8 4\n"
    "@in in\n"
    "@out out\n";

struct CliRun {
  int code = 0;
  std::string out;
  std::string err;
};

CliRun run(const std::vector<std::string>& args) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = run_cli(args, out, err);
  return {code, out.str(), err.str()};
}

TEST(Cli, NoArgsIsUsageError) {
  const CliRun r = run({});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("usage"), std::string::npos);
}

TEST(Cli, UnknownCommandIsUsageError) {
  const CliRun r = run({"frobnicate"});
  EXPECT_EQ(r.code, 2);
}

TEST(Cli, OptionWithoutValueIsUsageError) {
  const CliRun r = run({"time", "x.sim", "--model"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("needs a value"), std::string::npos);
}

TEST(Cli, GenWritesTheGeneratorsNetlist) {
  const std::string path = "/tmp/sldm_cli_test_gen.sim";
  const CliRun r = run({"gen", "random_logic", "--style", "cmos", "--layers",
                        "3", "--width", "5", "--seed", "9", "-o", path});
  ASSERT_EQ(r.code, 0) << r.err;
  std::ostringstream want;
  write_sim(random_logic(Style::kCmos, 3, 5, 9).netlist, want);
  std::ifstream in(path);
  std::stringstream got;
  got << in.rdbuf();
  EXPECT_EQ(got.str(), want.str());
  std::remove(path.c_str());
}

TEST(Cli, GenRefusesUnknownFamiliesAndBadSizesByName) {
  CliRun r = run({"gen", "pla", "--style", "cmos", "--layers", "3",
                  "--width", "5", "--seed", "9", "-o", "/tmp/x.sim"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown generator family 'pla'"), std::string::npos)
      << r.err;
  r = run({"gen", "random_logic", "--style", "bipolar", "--layers", "3",
           "--width", "5", "--seed", "9", "-o", "/tmp/x.sim"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--style cmos|nmos"), std::string::npos) << r.err;
  r = run({"gen", "random_logic", "--style", "nmos", "--layers", "4096",
           "--width", "4096", "--seed", "9", "-o", "/tmp/x.sim"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("must not exceed"), std::string::npos) << r.err;
  r = run({"gen", "random_logic", "--style", "nmos", "--layers", "3",
           "--width", "5", "--seed", "9"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("-o <out.sim>"), std::string::npos) << r.err;
}

TEST(Cli, CheckCleanNetlist) {
  TempFile f("inv.sim", kInverterSim);
  const CliRun r = run({"check", f.path()});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("ok"), std::string::npos);
}

TEST(Cli, CheckBrokenNetlistFails) {
  // No rails at all.
  TempFile f("broken.sim", "e a b c 4 8\n@in a\n");
  const CliRun r = run({"check", f.path()});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.out.find("errors found"), std::string::npos);
}

TEST(Cli, CheckMissingFileIsAnalysisError) {
  const CliRun r = run({"check", "/nonexistent/x.sim"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("error:"), std::string::npos);
}

TEST(Cli, StatsPrintsCensus) {
  TempFile f("inv.sim", kInverterSim);
  const CliRun r = run({"stats", f.path()});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("devices: 2"), std::string::npos);
}

TEST(Cli, TimeWithRcTreeModel) {
  TempFile f("inv.sim", kInverterSim);
  const CliRun r = run({"time", f.path(), "--model", "rc-tree"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("model: rc-tree"), std::string::npos);
  EXPECT_NE(r.out.find("out"), std::string::npos);
}

TEST(Cli, TimeWithUnknownModelFails) {
  TempFile f("inv.sim", kInverterSim);
  const CliRun r = run({"time", f.path(), "--model", "psychic"});
  EXPECT_EQ(r.code, 1);
}

TEST(Cli, TimeWithConstraintsAndSlack) {
  TempFile f("inv.sim", kInverterSim);
  TempFile ct("ok.ct", "input in both at 0 slope 1\nrequire 50\n");
  const CliRun r = run({"time", f.path(), "--model", "rc-tree",
                        "--constraints", ct.path()});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("slack"), std::string::npos);
}

TEST(Cli, TimeViolatedBudgetReturnsNonzero) {
  TempFile f("inv.sim", kInverterSim);
  TempFile ct("tight.ct", "input in both at 0 slope 1\nrequire 0.0001\n");
  const CliRun r = run({"time", f.path(), "--model", "rc-tree",
                        "--constraints", ct.path()});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.out.find("VIOLATION"), std::string::npos);
}

TEST(Cli, TimeWithWorstPaths) {
  TempFile f("inv.sim", kInverterSim);
  const CliRun r = run(
      {"time", f.path(), "--model", "rc-tree", "--paths", "2"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("worst path"), std::string::npos);
  EXPECT_NE(r.out.find("<- input"), std::string::npos);
}

TEST(Cli, ChargeshareReportsDynamicNodes) {
  TempFile f("dyn.sim",
             "e sel bit big 4 8\n"
             "c big 500\n"
             "c bit 10\n"
             "e clk gnd vdd 4 8\n"  // rails present via names
             "@in sel clk\n"
             "@precharged bit\n");
  const CliRun r = run({"chargeshare", f.path()});
  EXPECT_EQ(r.code, 1) << "sharing onto 500 fF must fail the threshold";
  EXPECT_NE(r.out.find("FAILS"), std::string::npos);
}

TEST(Cli, ChargeshareNoDynamicNodes) {
  TempFile f("inv.sim", kInverterSim);
  const CliRun r = run({"chargeshare", f.path()});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("no precharged nodes"), std::string::npos);
}

TEST(Cli, SimWritesCsv) {
  TempFile f("inv.sim", kInverterSim);
  const std::string csv = "/tmp/sldm_cli_test_waves.csv";
  const CliRun r = run({"sim", f.path(), "--tstop-ns", "20", "--csv", csv});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("settles at"), std::string::npos);
  std::ifstream in(csv);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_NE(header.find("time_ns"), std::string::npos);
  EXPECT_NE(header.find("out"), std::string::npos);
  std::remove(csv.c_str());
}

TEST(Cli, CalibrateWritesFiles) {
  const CliRun r =
      run({"calibrate", "nmos", "--out", "/tmp/sldm_cli_test_cal"});
  EXPECT_EQ(r.code, 0) << r.err;
  std::ifstream tech("/tmp/sldm_cli_test_cal.tech");
  std::ifstream tables("/tmp/sldm_cli_test_cal.slopes");
  EXPECT_TRUE(tech.good());
  EXPECT_TRUE(tables.good());
  std::remove("/tmp/sldm_cli_test_cal.tech");
  std::remove("/tmp/sldm_cli_test_cal.slopes");
}

TEST(Cli, CalibratedTechFilesParse) {
  for (const std::string style : {"nmos", "cmos"}) {
    const std::string prefix = "/tmp/sldm_cli_test_cal_" + style;
    const CliRun r = run({"calibrate", style, "--out", prefix});
    ASSERT_EQ(r.code, 0) << r.err;
    EXPECT_NO_THROW(read_tech_file(prefix + ".tech")) << style;
    std::remove((prefix + ".tech").c_str());
    std::remove((prefix + ".slopes").c_str());
  }
}

TEST(Cli, DeviceTypeTheTechCannotPriceIsNamed) {
  // A CMOS netlist under the default nMOS tech: p devices have no
  // parameters there.  A named analysis error, not a contract failure.
  TempFile f("cmos_inv.sim",
             "e in gnd out 4 8\np in vdd out 4 16\n@in in\n@out out\n");
  const CliRun r = run({"time", f.path(), "--model", "rc-tree"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("p-enhancement"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("'nmos4'"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("--tech"), std::string::npos) << r.err;
  EXPECT_EQ(r.err.find("internal error"), std::string::npos) << r.err;
  EXPECT_EQ(run({"time", f.path(), "--model", "rc-tree", "--tech", "cmos"})
                .code,
            0);

  // The same check covers a device an ECO adds.
  TempFile inv("nmos_inv.sim", kInverterSim);
  TempFile eco("add_p.eco", "transistor p in vdd out 4 16\n");
  const CliRun e = run({"eco", inv.path(), eco.path(), "--model", "rc-tree"});
  EXPECT_EQ(e.code, 1);
  EXPECT_NE(e.err.find("p-enhancement"), std::string::npos) << e.err;
  EXPECT_EQ(e.err.find("internal error"), std::string::npos) << e.err;
}

TEST(Cli, SampleDatapathEndToEnd) {
  // The shipped sample design must check clean, meet its shipped
  // constraints, and pass the charge-sharing audit.
  const std::string sim =
      std::string(SLDM_SOURCE_DIR) + "/testdata/sample_datapath.sim";
  const std::string ct =
      std::string(SLDM_SOURCE_DIR) + "/testdata/sample_datapath.ct";
  {
    const CliRun r = run({"check", sim});
    EXPECT_EQ(r.code, 0) << r.out << r.err;
  }
  {
    const CliRun r =
        run({"time", sim, "--model", "rc-tree", "--constraints", ct,
             "--paths", "2"});
    EXPECT_EQ(r.code, 0) << r.out << r.err;
    EXPECT_NE(r.out.find("slack"), std::string::npos);
    EXPECT_EQ(r.out.find("VIOLATION"), std::string::npos) << r.out;
  }
  {
    const CliRun r = run({"chargeshare", sim});
    EXPECT_EQ(r.code, 0) << r.out << r.err;
    EXPECT_NE(r.out.find("res"), std::string::npos);
  }
}

TEST(Cli, CalibrateUsage) {
  EXPECT_EQ(run({"calibrate", "bipolar", "--out", "/tmp/x"}).code, 2);
  EXPECT_EQ(run({"calibrate", "nmos"}).code, 2);
}

TEST(Cli, TimeStatsJsonEmitsCounters) {
  TempFile f("inv.sim", kInverterSim);
  const CliRun r = run({"time", f.path(), "--model", "rc-tree", "--stats",
                        "--json"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("{\"ccc_count\":"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("\"stage_count\":"), std::string::npos);
  EXPECT_NE(r.out.find("\"incremental_updates\":0"), std::string::npos);
}

TEST(Cli, EcoAppliesEditsAndVerifies) {
  TempFile f("inv.sim", kInverterSim);
  TempFile e("widen.eco",
             "| widen the pull-down\n"
             "width in gnd out 16\n"
             "cap out 25\n");
  const CliRun r = run({"eco", f.path(), e.path(), "--model", "rc-tree",
                        "--verify", "--stats"});
  EXPECT_EQ(r.code, 0) << r.out << r.err;
  EXPECT_NE(r.out.find("baseline:"), std::string::npos);
  EXPECT_NE(r.out.find("applied 2 edit(s)"), std::string::npos);
  EXPECT_NE(r.out.find("bit-identical"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("eco update"), std::string::npos) << r.out;
}

TEST(Cli, EcoWritesEditedNetlist) {
  TempFile f("inv.sim", kInverterSim);
  TempFile e("widen.eco", "width in gnd out 16\n");
  const std::string out_path = "/tmp/sldm_cli_test_eco_out.sim";
  const CliRun r = run({"eco", f.path(), e.path(), "--model", "rc-tree",
                        "--write", out_path});
  EXPECT_EQ(r.code, 0) << r.err;
  std::ifstream in(out_path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_NE(ss.str().find("e in gnd out 4 16"), std::string::npos)
      << ss.str();
  std::remove(out_path.c_str());
}

TEST(Cli, EcoBadScriptIsAnalysisError) {
  TempFile f("inv.sim", kInverterSim);
  TempFile e("bad.eco", "width nosuch gnd out 16\n");
  const CliRun r = run({"eco", f.path(), e.path(), "--model", "rc-tree"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("error"), std::string::npos);
}

TEST(Cli, EcoUsageErrors) {
  EXPECT_EQ(run({"eco", "only-one-arg.sim"}).code, 2);
}

TEST(Cli, TimeTraceWritesFile) {
  TempFile f("inv.sim", kInverterSim);
  const std::string trace_path = "/tmp/sldm_cli_test_trace.json";
  const CliRun r = run({"time", f.path(), "--model", "rc-tree", "--trace",
                        trace_path});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("wrote trace"), std::string::npos) << r.out;
  std::ifstream in(trace_path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_NE(ss.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(ss.str().find("\"propagate\""), std::string::npos);
  std::remove(trace_path.c_str());
}

TEST(Cli, ExplainPrintsBreakdown) {
  TempFile f("inv.sim", kInverterSim);
  const CliRun r = run({"explain", f.path(), "out", "--model", "rc-tree"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("explain: out"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("<- input"), std::string::npos);
  EXPECT_NE(r.out.find("sum of stage delays"), std::string::npos);
}

TEST(Cli, ExplainHonorsDirectionFlag) {
  TempFile f("inv.sim", kInverterSim);
  const CliRun r = run({"explain", f.path(), "out", "--model", "rc-tree",
                        "--dir", "rise"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("explain: out rise"), std::string::npos) << r.out;
  EXPECT_EQ(run({"explain", f.path(), "out", "--dir", "sideways"}).code, 2);
}

TEST(Cli, ExplainUsageAndErrors) {
  TempFile f("inv.sim", kInverterSim);
  EXPECT_EQ(run({"explain", f.path()}).code, 2);  // missing node
  const CliRun r = run({"explain", f.path(), "nosuch", "--model",
                        "rc-tree"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("error"), std::string::npos);
}

TEST(Cli, VersionReportsEngineAndSnapshotFormat) {
  const CliRun r = run({"version"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("sldm "), std::string::npos);
  EXPECT_NE(r.out.find(".sldc"), std::string::npos);
}

TEST(Cli, UsageListsEveryCommand) {
  const CliRun r = run({});
  EXPECT_EQ(r.code, 2);
  for (const char* cmd :
       {"check", "stats", "time", "explain", "eco", "chargeshare", "sim",
        "calibrate", "compile", "fuzz", "version"}) {
    EXPECT_NE(r.err.find(cmd), std::string::npos) << cmd;
  }
}

/// A compiled snapshot deleted at scope exit.
class TempSnapshot {
 public:
  TempSnapshot(const std::string& sim_path,
               std::vector<std::string> extra_args = {})
      : path_("/tmp/sldm_cli_test_design.sldc") {
    std::vector<std::string> args{"compile", sim_path, "-o", path_,
                                  "--model", "rc-tree"};
    for (auto& a : extra_args) args.push_back(std::move(a));
    compile_ = run(args);
  }
  ~TempSnapshot() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }
  const CliRun& compile_result() const { return compile_; }

 private:
  std::string path_;
  CliRun compile_;
};

TEST(Cli, CompileThenLoadMatchesDirectTiming) {
  TempFile f("inv.sim", kInverterSim);
  TempSnapshot snapshot(f.path());
  ASSERT_EQ(snapshot.compile_result().code, 0)
      << snapshot.compile_result().err;
  EXPECT_NE(snapshot.compile_result().out.find("wrote"),
            std::string::npos);

  const CliRun direct = run({"time", f.path(), "--model", "rc-tree"});
  const CliRun loaded =
      run({"time", "--load", snapshot.path(), "--model", "rc-tree"});
  ASSERT_EQ(direct.code, 0) << direct.err;
  ASSERT_EQ(loaded.code, 0) << loaded.err;
  EXPECT_EQ(direct.out, loaded.out);
}

TEST(Cli, LoadedSlopeTimingSkipsRecalibration) {
  TempFile f("inv.sim", kInverterSim);
  // Default model: compile calibrates once and embeds the tables.
  const std::string path = "/tmp/sldm_cli_test_slope.sldc";
  ASSERT_EQ(run({"compile", f.path(), "-o", path}).code, 0);
  const CliRun direct = run({"time", f.path()});
  const CliRun loaded = run({"time", "--load", path});
  std::remove(path.c_str());
  ASSERT_EQ(direct.code, 0) << direct.err;
  ASSERT_EQ(loaded.code, 0) << loaded.err;
  EXPECT_EQ(direct.out, loaded.out);
  // The direct run calibrates in-process; the loaded one must not.
  EXPECT_NE(direct.err.find("calibrating"), std::string::npos);
  EXPECT_EQ(loaded.err.find("calibrating"), std::string::npos);
}

TEST(Cli, LoadWithMismatchedTechIsError) {
  TempFile f("inv.sim", kInverterSim);
  TempSnapshot snapshot(f.path());  // default tech: nmos
  ASSERT_EQ(snapshot.compile_result().code, 0);
  const CliRun r = run({"time", "--load", snapshot.path(), "--tech",
                        "cmos", "--model", "rc-tree"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("does not match"), std::string::npos);
}

TEST(Cli, EcoOverLoadedSnapshotVerifies) {
  TempFile f("inv.sim", kInverterSim);
  TempFile eco("load.eco", "cap out 0.05\n");
  TempSnapshot snapshot(f.path());
  ASSERT_EQ(snapshot.compile_result().code, 0);
  const CliRun r = run({"eco", "--load", snapshot.path(), eco.path(),
                        "--model", "rc-tree", "--verify"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("bit-identical"), std::string::npos);
}

TEST(Cli, CompileUsageErrors) {
  TempFile f("inv.sim", kInverterSim);
  EXPECT_EQ(run({"compile", f.path()}).code, 2);  // missing -o
  EXPECT_EQ(run({"compile", "-o", "/tmp/x.sldc"}).code, 2);  // no input
}

TEST(Cli, LoadingGarbageIsAnalysisError) {
  TempFile junk("junk.sldc", "this is not a snapshot");
  const CliRun r = run({"time", "--load", junk.path(), "--model",
                        "rc-tree"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("not a .sldc"), std::string::npos);
}

TEST(Cli, LoadingADirectoryIsNamedError) {
  const CliRun r = run({"time", "--load", "/tmp", "--model", "rc-tree"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("error: snapshot /tmp: not a regular file"),
            std::string::npos)
      << r.err;
}

TEST(Cli, LoadingAFifoIsNamedErrorNotAHang) {
  // Opening a FIFO for reading would block until a writer appears; the
  // loader must refuse it by name instead.
  const std::string path = "/tmp/sldm_cli_test_fifo.sldc";
  std::remove(path.c_str());
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
  const CliRun r = run({"time", "--load", path, "--model", "rc-tree"});
  std::remove(path.c_str());
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("not a regular file"), std::string::npos) << r.err;
}

TEST(Cli, TimingADirectoryIsNamedError) {
  // A directory must not read as an empty netlist (exit 0, empty report).
  const CliRun r = run({"time", "/tmp", "--model", "rc-tree"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("error: .sim /tmp: not a regular file"),
            std::string::npos)
      << r.err;
  EXPECT_EQ(r.out, "");
}

TEST(Cli, TimingAFifoIsNamedErrorNotAHang) {
  const std::string path = "/tmp/sldm_cli_test_fifo.sim";
  std::remove(path.c_str());
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
  const CliRun r = run({"time", path, "--model", "rc-tree"});
  std::remove(path.c_str());
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find(path + ": not a regular file"), std::string::npos)
      << r.err;
}

TEST(Cli, LedgerSummarizeCorruptCorpusIsNamedError) {
  // The checked-in corpus carries one good record and one with a
  // non-hex fingerprint; the reader must fail with a located, named
  // error (exit 1), never an uncaught exception (which would exit
  // through std::terminate and fail this whole binary).
  const std::string path =
      std::string(SLDM_SOURCE_DIR) + "/testdata/ledger/corrupt.jsonl";
  const CliRun r = run({"ledger", "summarize", path});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("bad fingerprint"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find(":2:"), std::string::npos) << r.err;
}

TEST(Cli, LedgerSummarizeRejectsOutOfRangeNumbers) {
  // The checked-in witness: one seconds value so large that every prop
  // column of the summary used to read `inf`.
  const std::string path =
      std::string(SLDM_SOURCE_DIR) + "/testdata/ledger/huge_seconds.jsonl";
  const CliRun huge = run({"ledger", "summarize", path});
  EXPECT_EQ(huge.code, 1);
  EXPECT_NE(huge.err.find("huge_seconds.jsonl:2: bad propagate_seconds"),
            std::string::npos)
      << huge.err;
  EXPECT_EQ(huge.out.find("inf"), std::string::npos) << huge.out;

  // Numbers no cast may take: out of the member's range or fractional.
  const std::string good = "{\"kind\":\"run\",\"threads\":1}\n";
  for (const auto& [member, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"threads", "1e300"},
           {"threads", "-1"},
           {"threads", "2.5"},
           {"unix_ms", "-5"},
           {"unix_ms", "1e300"},
           {"stage_evaluations", "1e300"},
           {"stage_evaluations", "-1"},
           {"extract_seconds", "-0.5"},
           {"update_seconds", "1e300"},
       }) {
    TempFile ledger("ledger_range.jsonl",
                    good + "{\"kind\":\"run\",\"" + member + "\":" + value +
                        "}\n");
    const CliRun r = run({"ledger", "summarize", ledger.path()});
    EXPECT_EQ(r.code, 1) << member << "=" << value;
    EXPECT_NE(r.err.find(":2: bad " + member), std::string::npos)
        << member << "=" << value << ": " << r.err;
  }
}

TEST(Cli, BenchDiffRejectsMalformedRecordsWithLocation) {
  TempFile good("bench_good.jsonl",
                "{\"bench\":\"a\",\"wall_seconds\":1.0}\n");
  TempFile bad("bench_bad.jsonl",
               "{\"bench\":\"a\",\"wall_seconds\":1.0}\n"
               "{\"bench\":42,\"wall_seconds\":1.0}\n");
  const CliRun r = run({"bench", "diff", good.path(), bad.path()});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find(":2:"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("wall_seconds"), std::string::npos) << r.err;
}

}  // namespace
}  // namespace sldm

#include "fuzz/repro.h"

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "delay/rctree.h"
#include "delay/slope_table.h"
#include "fuzz/eco_fuzzer.h"
#include "netlist/eco_io.h"
#include "netlist/sim_io.h"
#include "tech/tech.h"
#include "util/error.h"
#include "util/strings.h"

namespace sldm {
namespace {

void write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) throw Error("cannot create repro file: " + path);
  out << text;
}

/// The directory prefix of `path` including the trailing separator
/// ("" when the path has no directory component).
std::string dir_of(const std::string& path) {
  const auto slash = path.find_last_of('/');
  return slash == std::string::npos ? "" : path.substr(0, slash + 1);
}

std::optional<std::uint64_t> parse_u64(const std::string& token) {
  if (token.empty()) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(token.c_str(), &end, 10);
  if (errno != 0 || end != token.c_str() + token.size()) return std::nullopt;
  return static_cast<std::uint64_t>(v);
}

const Tech& tech_for(Style style) {
  static const Tech nmos = nmos4();
  static const Tech cmos = cmos3();
  return style == Style::kNmos ? nmos : cmos;
}

Style style_of(const Netlist& nl) {
  for (DeviceId d : nl.all_devices()) {
    if (nl.device(d).type == TransistorType::kPEnhancement) {
      return Style::kCmos;
    }
  }
  return Style::kNmos;
}

/// Reconstructs the harness view of a replayed netlist: the stimulated
/// input is the first @in node, the observed output the first @out.
GeneratedCircuit as_generated(Netlist nl, const std::string& name) {
  GeneratedCircuit g;
  g.name = name;
  g.style = style_of(nl);
  for (NodeId n : nl.all_nodes()) {
    const Node& info = nl.node(n);
    if (info.is_input && !g.input.valid()) g.input = n;
    if (info.is_output && !g.output.valid()) g.output = n;
  }
  g.netlist = std::move(nl);
  return g;
}

}  // namespace

std::string write_repro(const std::string& dir, const std::string& name,
                        const ReproCase& c, const std::string& sim_text,
                        const std::string& eco_text,
                        const std::string& tables_text) {
  const std::string base = dir.empty() ? name : dir + "/" + name;
  std::ostringstream manifest;
  manifest << "| sldm fuzz repro case (FORMATS.md section 10)\n";
  manifest << "oracle " << c.oracle << '\n';
  manifest << "seed " << c.seed << '\n';
  manifest << format("slope-ns %g\n", c.slope_ns);
  if (!sim_text.empty()) {
    write_text_file(base + ".sim", sim_text);
    manifest << "sim " << name << ".sim\n";
  }
  if (!eco_text.empty()) {
    write_text_file(base + ".eco", eco_text);
    manifest << "eco " << name << ".eco\n";
  }
  if (!tables_text.empty()) {
    write_text_file(base + ".slopes", tables_text);
    manifest << "tables " << name << ".slopes\n";
  }
  if (!c.detail.empty()) manifest << "detail " << c.detail << '\n';
  const std::string manifest_path = base + ".repro";
  write_text_file(manifest_path, manifest.str());
  return manifest_path;
}

ReproCase load_repro(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open repro case: " + path);
  const std::string dir = dir_of(path);
  ReproCase c;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string stripped = trim(line);
    if (stripped.empty() || stripped[0] == '|') continue;
    const auto space = stripped.find_first_of(" \t");
    const std::string key = stripped.substr(0, space);
    const std::string value =
        space == std::string::npos ? "" : trim(stripped.substr(space + 1));
    if (value.empty()) {
      throw ParseError(path, lineno, "record '" + key + "' needs a value");
    }
    if (key == "oracle") {
      c.oracle = value;
    } else if (key == "seed") {
      const auto v = parse_u64(value);
      if (!v) throw ParseError(path, lineno, "bad seed '" + value + "'");
      c.seed = *v;
    } else if (key == "slope-ns") {
      const auto v = parse_finite_double(value);
      if (!v || *v < 0.0) {
        throw ParseError(path, lineno, "bad slope-ns '" + value + "'");
      }
      c.slope_ns = *v;
    } else if (key == "sim") {
      c.sim_path = dir + value;
    } else if (key == "eco") {
      c.eco_path = dir + value;
    } else if (key == "tables") {
      c.tables_path = dir + value;
    } else if (key == "detail") {
      c.detail = value;
    } else {
      throw ParseError(path, lineno, "unknown repro record '" + key + "'");
    }
  }
  if (c.oracle.empty()) {
    throw ParseError(path, lineno, "manifest has no 'oracle' record");
  }
  return c;
}

OracleResult replay_repro(const ReproCase& c) {
  // Reject-style cases: the referenced file is malformed by design, and
  // the fixed parser must say so.
  if (c.oracle == "tables-reject") {
    if (c.tables_path.empty()) {
      return OracleResult::fail("tables-reject case names no tables file");
    }
    try {
      SlopeTables::read_file(c.tables_path);
    } catch (const ParseError&) {
      return OracleResult::pass();
    }
    return OracleResult::fail("slope tables parsed but must be rejected: " +
                              c.tables_path);
  }
  if (c.oracle == "eco-reject") {
    if (c.sim_path.empty() || c.eco_path.empty()) {
      return OracleResult::fail("eco-reject case needs sim and eco files");
    }
    Netlist nl = read_sim_file(c.sim_path);
    try {
      apply_eco_file(c.eco_path, nl);
    } catch (const ParseError&) {
      return OracleResult::pass();
    }
    return OracleResult::fail("eco script applied but must be rejected: " +
                              c.eco_path);
  }

  // Everything else replays the static oracle suite over the netlist
  // (and the eco-identity check when a script is present).
  if (c.sim_path.empty()) {
    return OracleResult::fail("repro case names no sim file");
  }
  const GeneratedCircuit g =
      as_generated(read_sim_file(c.sim_path), c.sim_path);
  const Seconds slope = c.slope_ns * 1e-9;

  OracleResult r = check_netlist(g.netlist);
  if (!r.ok) return r;

  const RcTreeModel model;
  const Tech& tech = tech_for(g.style);
  TimingAnalyzer analyzer(g.netlist, tech, model);
  analyzer.add_all_input_events(slope);
  analyzer.run();

  r = check_sanity(g.netlist, analyzer);
  if (!r.ok) return r;
  r = check_stage_bounds(g.netlist, tech, analyzer.stages(), slope);
  if (!r.ok) return r;
  r = check_snapshot_roundtrip(g, slope);
  if (!r.ok) return r;

  if (!c.eco_path.empty()) {
    if (!g.input.valid()) {
      return OracleResult::fail("eco-identity replay needs an @in node in " +
                                c.sim_path);
    }
    std::ifstream eco(c.eco_path);
    if (!eco) return OracleResult::fail("cannot open " + c.eco_path);
    std::ostringstream text;
    text << eco.rdbuf();
    r = check_eco_identity(g, text.str(), slope);
    if (!r.ok) return r;
  }
  return OracleResult::pass();
}

}  // namespace sldm

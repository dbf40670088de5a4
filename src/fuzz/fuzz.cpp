#include "fuzz/fuzz.h"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <sstream>

#include "compare/harness.h"
#include "delay/lumped.h"
#include "delay/rctree.h"
#include "delay/slope.h"
#include "fuzz/eco_fuzzer.h"
#include "fuzz/netlist_fuzzer.h"
#include "fuzz/oracles.h"
#include "fuzz/repro.h"
#include "fuzz/rng.h"
#include "fuzz/shrink.h"
#include "netlist/sim_io.h"
#include "tech/tech.h"
#include "timing/analyzer.h"
#include "util/error.h"
#include "util/strings.h"

namespace sldm {
namespace {

const Tech& tech_for(Style style) {
  static const Tech nmos = nmos4();
  static const Tech cmos = cmos3();
  return style == Style::kNmos ? nmos : cmos;
}

/// The serialized .sim bytes of a circuit (for repro files).
std::string sim_text(const Netlist& nl) {
  std::ostringstream os;
  write_sim(nl, os);
  return os.str();
}

/// Builds and runs an analyzer over `g` with events on all inputs;
/// nullopt when the analyzer reports a loop (the caller decides whether
/// that is a failure).
std::optional<TimingAnalyzer> analyze(const GeneratedCircuit& g,
                                      const DelayModel& model,
                                      Seconds slope) {
  TimingAnalyzer an(g.netlist, tech_for(g.style), model);
  an.add_all_input_events(slope);
  try {
    an.run();
  } catch (const Error&) {
    return std::nullopt;
  }
  return an;
}

/// Everything the driver needs to process one oracle failure: shrink,
/// persist, account.
class FailureSink {
 public:
  FailureSink(const FuzzOptions& options, FuzzReport& report,
              std::ostream& log)
      : options_(options), report_(report), log_(log) {}

  void record(int iteration, const std::string& oracle,
              const GeneratedCircuit& g, const std::string& detail,
              const std::string& eco_text, std::uint64_t iter_seed) {
    FuzzFailure f;
    f.iteration = iteration;
    f.oracle = oracle;
    f.circuit = g.name;
    f.detail = detail;
    if (!options_.out_dir.empty()) {
      std::filesystem::create_directories(options_.out_dir);
      ReproCase c;
      c.oracle = oracle;
      c.seed = iter_seed;
      c.slope_ns = options_.input_slope / units::ns;
      c.detail = detail;
      const std::string name =
          format("fuzz_%s_i%04d", oracle.c_str(), iteration);
      f.repro_path = write_repro(options_.out_dir, name, c,
                                 sim_text(g.netlist), eco_text, "");
    }
    log_ << format("FAIL iter %d [%s] %s: %s\n", iteration, oracle.c_str(),
                   g.name.c_str(), detail.c_str());
    report_.failures.push_back(std::move(f));
  }

 private:
  const FuzzOptions& options_;
  FuzzReport& report_;
  std::ostream& log_;
};

}  // namespace

std::string FuzzReport::to_string() const {
  std::ostringstream os;
  os << format("fuzz: seed %llu, %d iteration(s)\n",
               static_cast<unsigned long long>(options.seed), iterations);
  for (const auto& [name, runs] : oracle_runs) {
    const auto skip_it = oracle_skips.find(name);
    const std::size_t skips =
        skip_it == oracle_skips.end() ? 0 : skip_it->second;
    os << format("  %-16s %6zu checked, %zu skipped\n", name.c_str(), runs,
                 skips);
  }
  if (failures.empty()) {
    os << "verdict: clean\n";
  } else {
    os << format("verdict: %zu failure(s)\n", failures.size());
    for (const FuzzFailure& f : failures) {
      os << format("  iter %d [%s] %s: %s\n", f.iteration, f.oracle.c_str(),
                   f.circuit.c_str(), f.detail.c_str());
      if (!f.repro_path.empty()) {
        os << "    repro: " << f.repro_path << '\n';
      }
    }
  }
  return os.str();
}

FuzzReport run_fuzz(const FuzzOptions& options, std::ostream& log) {
  FuzzReport report;
  report.options = options;
  const RcTreeModel model;
  const LumpedRcModel lumped;
  const SlopeModel slope(fuzz_slope_tables());
  FailureSink sink(options, report, log);
  int new_nodes = 0;

  const auto count = [&report](const char* oracle, const OracleResult& r) {
    if (r.skipped) {
      ++report.oracle_skips[oracle];
    } else {
      ++report.oracle_runs[oracle];
    }
    return r.ok;
  };

  for (int i = 0; i < options.iterations; ++i) {
    ++report.iterations;
    // Independent per-iteration stream: iteration i is reproducible in
    // isolation from `seed` and `i` alone.
    const std::uint64_t iter_seed =
        FuzzRng(options.seed + static_cast<std::uint64_t>(i)).fork();
    FuzzRng rng(iter_seed);
    const GeneratedCircuit g = random_circuit(rng);

    {
      const OracleResult r = check_netlist(g.netlist);
      if (!count("netlist-check", r)) {
        // Structural breakage shrinks well: keep the predicate on the
        // same oracle.
        const GeneratedCircuit small = shrink_circuit(
            g, [](const GeneratedCircuit& c) {
              return !check_netlist(c.netlist).ok;
            });
        sink.record(i, "netlist-check", small, r.detail, "", iter_seed);
        continue;
      }
    }

    const auto analyzer = analyze(g, model, options.input_slope);
    if (!analyzer) {
      // A structural timing loop in a generated circuit is a generator
      // bug: the builder vocabulary only composes DAGs.
      sink.record(i, "sanity", g, "analyzer reported a timing loop", "",
                  iter_seed);
      ++report.oracle_runs["sanity"];
      continue;
    }

    {
      const OracleResult r = check_sanity(g.netlist, *analyzer);
      if (!count("sanity", r)) {
        const GeneratedCircuit small =
            shrink_circuit(g, [&](const GeneratedCircuit& c) {
              const auto an = analyze(c, model, options.input_slope);
              return an && !check_sanity(c.netlist, *an).ok;
            });
        sink.record(i, "sanity", small, r.detail, "", iter_seed);
        continue;
      }
    }

    {
      // Every model's arrivals follow from their predecessors' final
      // values; rc-tree reuses the analysis above.
      OracleResult r = check_self_consistency(*analyzer);
      const DelayModel* failed = r.ok ? nullptr : &model;
      for (const DelayModel* m : {static_cast<const DelayModel*>(&lumped),
                                  static_cast<const DelayModel*>(&slope)}) {
        if (failed) break;
        const auto an = analyze(g, *m, options.input_slope);
        r = an ? check_self_consistency(*an) : OracleResult::pass();
        if (!r.ok) failed = m;
      }
      if (!count("self-consistency", r)) {
        const GeneratedCircuit small =
            shrink_circuit(g, [&](const GeneratedCircuit& c) {
              const auto an = analyze(c, *failed, options.input_slope);
              return an && !check_self_consistency(*an).ok;
            });
        sink.record(i, "self-consistency", small, r.detail, "", iter_seed);
        continue;
      }
    }

    {
      const OracleResult r =
          check_stage_bounds(g.netlist, tech_for(g.style),
                             analyzer->stages(), options.input_slope);
      if (!count("stage-bounds", r)) {
        const GeneratedCircuit small =
            shrink_circuit(g, [&](const GeneratedCircuit& c) {
              const auto an = analyze(c, model, options.input_slope);
              return an && !check_stage_bounds(c.netlist,
                                               tech_for(c.style),
                                               an->stages(),
                                               options.input_slope)
                                .ok;
            });
        sink.record(i, "stage-bounds", small, r.detail, "", iter_seed);
        continue;
      }
    }

    {
      // Bit-identity through the .sldc round trip.
      const OracleResult r =
          check_snapshot_roundtrip(g, options.input_slope);
      if (!count("snapshot-roundtrip", r)) {
        const GeneratedCircuit small =
            shrink_circuit(g, [&](const GeneratedCircuit& c) {
              return !check_snapshot_roundtrip(c, options.input_slope).ok;
            });
        sink.record(i, "snapshot-roundtrip", small, r.detail, "",
                    iter_seed);
        continue;
      }
    }

    {
      const OracleResult r = check_switchsim(g, *analyzer);
      if (!count("switchsim", r)) {
        const GeneratedCircuit small =
            shrink_circuit(g, [&](const GeneratedCircuit& c) {
              const auto an = analyze(c, model, options.input_slope);
              return an && !check_switchsim(c, *an).ok;
            });
        sink.record(i, "switchsim", small, r.detail, "", iter_seed);
        continue;
      }
    }

    if (options.analog_every > 0 && i % options.analog_every == 0 &&
        g.netlist.device_count() <= options.max_devices_analog) {
      const OracleResult r =
          check_analog(g, CompareContext::get(g.style),
                       options.input_slope, options.max_analog_error_pct);
      if (!count("analog", r)) {
        // No shrinking: the analog predicate is too slow to iterate,
        // and the un-shrunk circuit is already small by the gate above.
        sink.record(i, "analog", g, r.detail, "", iter_seed);
        continue;
      }
    }

    // ECO mutation fuzzing over the surviving circuit.
    {
      const std::vector<std::string> lines = random_eco_script(
          g.netlist, rng, 1 + static_cast<int>(rng.below(6)), g.input,
          &new_nodes);
      if (lines.empty()) continue;
      const auto eco_fails = [&](const GeneratedCircuit& c,
                                 const std::vector<std::string>& ls) {
        try {
          return !check_eco_identity(c, join_script(ls), options.input_slope)
                      .ok;
        } catch (const Error&) {
          return false;  // script no longer applies to the candidate
        }
      };
      const OracleResult r =
          check_eco_identity(g, join_script(lines), options.input_slope);
      if (!count("eco-identity", r)) {
        // Shrink the script first (cheap), then the circuit under the
        // reduced script.
        const std::vector<std::string> small_eco = shrink_eco(
            lines,
            [&](const std::vector<std::string>& ls) {
              return eco_fails(g, ls);
            });
        const GeneratedCircuit small = shrink_circuit(
            g, [&](const GeneratedCircuit& c) {
              return eco_fails(c, small_eco);
            });
        sink.record(i, "eco-identity", small, r.detail,
                    join_script(small_eco), iter_seed);
      }
    }
  }
  return report;
}

int replay_path(const std::string& path, std::ostream& log) {
  namespace fs = std::filesystem;
  std::vector<std::string> manifests;
  if (fs::is_directory(path)) {
    for (const auto& entry : fs::directory_iterator(path)) {
      if (entry.path().extension() == ".repro") {
        manifests.push_back(entry.path().string());
      }
    }
    std::sort(manifests.begin(), manifests.end());
  } else {
    manifests.push_back(path);
  }
  if (manifests.empty()) {
    log << "no .repro cases under " << path << '\n';
    return 0;
  }
  int failures = 0;
  for (const std::string& m : manifests) {
    OracleResult r;
    try {
      r = replay_repro(load_repro(m));
    } catch (const Error& e) {
      r = OracleResult::fail(e.what());
    }
    if (r.ok) {
      log << "PASS " << m << '\n';
    } else {
      log << "FAIL " << m << ": " << r.detail << '\n';
      ++failures;
    }
  }
  return failures;
}

}  // namespace sldm

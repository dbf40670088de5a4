// perfbench: the sldm benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload (cold_436k, serve_54k, serve_small, analog_ref),
// prints its notes, the answer digest and -- with --trace 1 -- the
// per-layer view, then one JSON result line.  Exits 1 when the
// correctness gate fails (after printing the result) and 2 on bad
// arguments or a crash (without one).  perfbench/run.py builds and
// invokes it; see perfbench/README.md.
#include <malloc.h>
#include <unistd.h>

#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "common.h"
#include "workloads.h"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload cold_436k|serve_54k|serve_small|"
               "analog_ref --seed <n> --seconds <s> --trace <0|1>\n";
  std::exit(2);
}

RunConfig parse(int argc, char** argv) {
  RunConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        cfg.workload = value;
      } else if (key == "--seed") {
        cfg.seed = std::stoull(value);
      } else if (key == "--seconds") {
        cfg.seconds = std::stod(value);
      } else if (key == "--trace") {
        cfg.trace = std::stoi(value) != 0;
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key);
    }
  }
  if (cfg.seconds <= 0) usage("--seconds must be positive");
  return cfg;
}

void print_layers(const RunResult& res) {
  std::cout << "per-layer (self time of each layer call; *.other = "
               "operation wall minus its layer calls):\n";
  for (const LayerMetric& m : layer_metrics()) {
    std::cout << fmt("  %-34s %16.6g %s\n", m.name, res.layers.at(m.name),
                     m.unit);
  }
}

std::string result_line(const RunResult& res, bool trace) {
  std::string metrics;
  auto add = [&](const std::string& name, double value, const std::string& unit) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + json_double(value) +
               ", \"unit\": \"" + unit + "\"}";
  };
  if (trace) {
    for (const LayerMetric& m : layer_metrics()) {
      add(m.name, res.layers.at(m.name), m.unit);
    }
  } else {
    for (const Metric& m : res.end_to_end) add(m.name, m.value, m.unit);
  }
  return fmt("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
             res.correct ? "true" : "false",
             static_cast<unsigned long long>(res.counts.attempted),
             static_cast<unsigned long long>(res.counts.failed)) +
         "\"metrics\": {" + metrics + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg = parse(argc, argv);
  // Pin glibc's mmap threshold at its 128 KiB default.  Left dynamic, it
  // rises after the first large free, and whether later multi-megabyte
  // blocks then stay in the heap depends on allocation order: peak RSS
  // flips between two values (110 vs 120 MiB on serve_54k) run to run.
  // Pinned, large blocks always return to the system when freed.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  // The run must not depend on the caller's environment.
  unsetenv("SLDM_LEDGER");
  unsetenv("SLDM_FAILPOINTS");

  namespace fs = std::filesystem;
  const fs::path out_dir = ".bench_out";
  cfg.work_dir = (out_dir / fmt("run-%s-%llu-%d", cfg.workload.c_str(),
                                static_cast<unsigned long long>(cfg.seed),
                                static_cast<int>(getpid())))
                     .string();
  RunResult res;
  try {
    fs::create_directories(cfg.work_dir);
    if (cfg.workload == "cold_436k") {
      res = run_cold(cfg);
    } else if (cfg.workload == "serve_54k" || cfg.workload == "serve_small") {
      res = run_serve(cfg);
    } else if (cfg.workload == "analog_ref") {
      res = run_analog(cfg);
    } else {
      fs::remove_all(cfg.work_dir);
      usage("unknown workload '" + cfg.workload + "'");
    }
  } catch (const std::exception& e) {
    std::error_code ec;
    fs::remove_all(cfg.work_dir, ec);
    std::cerr << "perfbench: " << cfg.workload << " failed: " << e.what()
              << '\n';
    return 2;
  }
  std::error_code ec;
  fs::remove_all(cfg.work_dir, ec);

  std::cout << "workload " << cfg.workload << "  seed " << cfg.seed
            << "  seconds " << cfg.seconds << "  trace " << cfg.trace << '\n';
  for (const std::string& line : res.notes) std::cout << "  " << line << '\n';
  for (const Metric& m : res.end_to_end) {
    std::cout << fmt("  %-12s %14.6g %s\n", m.name.c_str(), m.value,
                     m.unit.c_str());
  }
  for (const auto& [name, n] : res.counts.failures) {
    std::cout << "  failed " << name << ": " << n << '\n';
  }
  for (const auto& [key, value] : res.digest.entries()) {
    std::cout << "  digest " << key << " = " << value << '\n';
  }
  std::cout << "  answer digest " << res.digest.hex() << '\n';
  for (const std::string& f : res.gate_failures) {
    std::cout << "  GATE FAILED: " << f << '\n';
  }
  if (cfg.trace) {
    print_layers(res);
    const fs::path trace_path =
        out_dir / fmt("trace-%s-seed%llu.json", cfg.workload.c_str(),
                      static_cast<unsigned long long>(cfg.seed));
    std::ofstream(trace_path) << res.trace_json;
    std::cout << "  wrote " << trace_path.string() << '\n';
  }
  std::cout << result_line(res, cfg.trace) << std::endl;
  return res.correct ? 0 : 1;
}

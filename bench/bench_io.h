// Machine-readable bench records.
//
// Every bench_* binary accepts `--json <file>`; when given, one JSON
// object is appended to the file (JSONL) describing the run: bench
// name, engine version, wall seconds, the largest circuit exercised
// (with its design fingerprint when noted), and the worst absolute
// model error observed.  The flag
// is stripped from argv before google-benchmark sees it (it rejects
// unknown flags), so benches that call benchmark::Initialize construct
// the BenchMain guard first.  Schema: FORMATS.md, "Bench records".
//
// Usage:
//   int main(int argc, char** argv) {
//     sldm::benchio::BenchMain bench("bench_fig4_carry_chain", argc, argv);
//     ...
//     sldm::benchio::note_circuit(r.circuit, r.devices);
//     sldm::benchio::note_error_pct(slope.error_pct);
//   }
#pragma once

#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>

#include "util/json.h"
#include "util/strings.h"
#include "util/version.h"

namespace sldm {
namespace benchio {

/// Collects the record for the current process; one bench == one record.
class Reporter {
 public:
  static Reporter& instance() {
    static Reporter reporter;
    return reporter;
  }

  void start(const std::string& bench, const std::string& path) {
    bench_ = bench;
    path_ = path;
    t0_ = std::chrono::steady_clock::now();
  }

  /// Remembers the largest circuit (by device count) seen so far,
  /// along with its design fingerprint when the bench computes one
  /// (design_fingerprint(); joins bench records to ledger records).
  void note_circuit(const std::string& name, std::size_t devices,
                    std::uint64_t fingerprint = 0) {
    if (devices >= devices_) {
      circuit_ = name;
      devices_ = devices;
      fingerprint_ = fingerprint;
    }
  }

  /// Remembers the worst (largest-magnitude) signed model error.
  void note_error_pct(double pct) {
    if (!has_error_ || std::abs(pct) > std::abs(error_pct_)) {
      error_pct_ = pct;
    }
    has_error_ = true;
  }

  /// Appends the record; no-op without `--json`.  Idempotent.
  void finish() {
    if (path_.empty()) return;
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
            .count();
    std::ofstream out(path_, std::ios::app);
    if (!out) {
      std::cerr << "bench_io: cannot open '" << path_ << "'\n";
      path_.clear();
      return;
    }
    out << "{\"bench\":\"" << json_escape(bench_) << '"';
    out << ",\"version\":\"" << json_escape(sldm_version()) << '"';
    out << ",\"wall_seconds\":" << json_number(wall);
    if (!circuit_.empty()) {
      out << ",\"circuit\":\"" << json_escape(circuit_) << '"'
          << ",\"devices\":" << devices_;
    }
    if (fingerprint_ != 0) {
      out << ",\"fingerprint\":\""
          << format("%016llx",
                    static_cast<unsigned long long>(fingerprint_))
          << '"';
    }
    if (has_error_) {
      out << ",\"model_error_pct\":" << json_number(error_pct_);
    }
    out << "}\n";
    std::cout << "appended bench record to " << path_ << '\n';
    path_.clear();
  }

 private:
  std::string bench_;
  std::string path_;
  std::string circuit_;
  std::size_t devices_ = 0;
  std::uint64_t fingerprint_ = 0;
  double error_pct_ = 0.0;
  bool has_error_ = false;
  std::chrono::steady_clock::time_point t0_;
};

/// Removes `--json <file>` (or `--json=<file>`) from argv, returning
/// the path ("" if absent).  Must run before benchmark::Initialize.
inline std::string extract_json_path(int& argc, char** argv) {
  std::string path;
  int w = 1;
  for (int r = 1; r < argc; ++r) {
    const std::string arg = argv[r];
    if (arg == "--json" && r + 1 < argc) {
      path = argv[++r];
    } else if (arg.rfind("--json=", 0) == 0) {
      path = arg.substr(7);
    } else {
      argv[w++] = argv[r];
    }
  }
  argc = w;
  return path;
}

/// RAII guard for main(): parses/strips `--json`, times the whole
/// payload, appends the record on destruction.
class BenchMain {
 public:
  BenchMain(const char* bench, int& argc, char** argv) {
    Reporter::instance().start(bench, extract_json_path(argc, argv));
  }
  ~BenchMain() { Reporter::instance().finish(); }

  BenchMain(const BenchMain&) = delete;
  BenchMain& operator=(const BenchMain&) = delete;
};

inline void note_circuit(const std::string& name, std::size_t devices,
                         std::uint64_t fingerprint = 0) {
  Reporter::instance().note_circuit(name, devices, fingerprint);
}
inline void note_error_pct(double pct) {
  Reporter::instance().note_error_pct(pct);
}

}  // namespace benchio
}  // namespace sldm

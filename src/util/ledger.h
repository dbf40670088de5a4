// The append-only run ledger: one JSONL record per analysis the
// process performed (timing run, incremental ECO, design compile, fuzz
// campaign), durable where per-session metrics are not.
//
// The hub (util/telemetry.h) answers "what is this process doing right
// now"; the ledger answers "what has been analyzed, ever": each record
// carries the design fingerprint, engine version, model, phase timings,
// a critical-path summary, and the outcome, so latency trajectories
// stay attributable across processes, versions, and machines.  Enabled per CLI command via `--ledger <file>` or the
// SLDM_LEDGER environment variable; `sldm ledger summarize <file>`
// renders a per-fingerprint latency table.  Schema: FORMATS.md
// section 12.
//
// Appends are line-atomic at the POSIX level (one write of one line in
// append mode); readers tolerate and skip blank lines but reject
// malformed JSON with a line-numbered Error, like every other reader
// in the project.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sldm {

/// One ledger line.  String fields left empty and numeric fields left
/// zero are omitted from the JSON.
struct LedgerRecord {
  std::string kind;     ///< "run" | "eco" | "compile" | "fuzz"
  std::string version;  ///< sldm_version()
  /// design_fingerprint() of the analyzed netlist + technology
  /// (0 = not applicable, e.g. a fuzz campaign).
  std::uint64_t fingerprint = 0;
  std::string source;  ///< input path (.sim / .sldc) as given
  std::string model;   ///< DelayModel::name()

  // Phase timings (seconds) and the headline work counter.
  double extract_seconds = 0.0;
  double propagate_seconds = 0.0;
  double update_seconds = 0.0;
  std::uint64_t stage_evaluations = 0;

  // Critical-path summary: the worst arrival the analysis found.
  bool has_critical = false;
  std::string critical_node;
  std::string critical_dir;  ///< "rise" | "fall"
  double critical_arrival_s = 0.0;

  std::string outcome;  ///< "ok" | "violations" | "clean" | "failures" |
                        ///< "mismatch" | "error"
  std::string detail;   ///< free text (error message, campaign summary)

  /// Wall-clock stamp, milliseconds since the Unix epoch; filled by
  /// append_ledger_record() when zero.
  std::int64_t unix_ms = 0;

  /// One JSON object (single line, no trailing newline).
  std::string to_json() const;
};

/// Appends one record (stamping unix_ms if unset) to the JSONL file at
/// `path`, creating it if needed.  Throws Error when the file cannot
/// be opened for append or the write comes up short.  Fault-injection
/// site "ledger.append" (FORMATS.md section 15): `error` throws before
/// touching the file, `partial` writes a torn line (half the record,
/// no newline) and then throws -- the torn-line shape a crash mid-
/// append leaves behind.
void append_ledger_record(const std::string& path, LedgerRecord record);

/// Best-effort append for callers whose primary work must not fail on
/// a ledger fault (the CLI's destructor-append, the serve per-request
/// records).  A failure is *surfaced*, not swallowed: it bumps the
/// process metric "ledger.append_failures" and warns to stderr once
/// per process.  Returns true when the record landed.
bool try_append_ledger_record(const std::string& path,
                              const LedgerRecord& record);

/// Parses every record in the JSONL file at `path` (blank lines
/// skipped).  Throws Error on I/O failure or, with `path:line:`
/// context, on malformed records (`bad <member>` for a number out of
/// its member's range).
std::vector<LedgerRecord> read_ledger_file(const std::string& path);

/// A per-fingerprint summary table: record counts by kind, the models
/// seen, and min/mean/max propagation latency (`sldm ledger
/// summarize`).  Records without a fingerprint group under "-".
std::string summarize_ledger(const std::vector<LedgerRecord>& records);

}  // namespace sldm

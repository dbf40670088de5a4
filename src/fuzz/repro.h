// Replayable fuzz repro cases (FORMATS.md section 10).
//
// A repro case is a small directory-relative bundle: a `.repro` text
// manifest naming the failing oracle and parameters, plus the `.sim`
// netlist and optional `.eco` script / `.slopes` table it refers to.
// Cases are written by the fuzz driver when an oracle fails (after
// shrinking) and checked into testdata/fuzz/ once the underlying bug is
// fixed, where `sldm fuzz --replay` and scripts/check.sh re-run them as
// regression gates.
//
// Manifest records, one per line ('|' introduces a comment):
//   oracle <kind>          which oracle the case exercises (required)
//   seed <u64>             originating fuzz seed (provenance)
//   slope-ns <x>           input transition time in ns
//   sim <relpath>          netlist, relative to the manifest
//   eco <relpath>          eco script, relative to the manifest
//   tables <relpath>       slope-table file, relative to the manifest
//   detail <text to eol>   human note about the original failure
//
// Replay semantics by oracle kind:
//   eco-reject / tables-reject   the named file must FAIL to parse
//                                (ParseError); parsing it is the bug;
//   anything else                the netlist must pass the static
//                                oracles (netlist-check, sanity,
//                                stage-bounds, snapshot-roundtrip),
//                                and when an eco script is present,
//                                eco-identity.
#pragma once

#include <cstdint>
#include <string>

#include "fuzz/oracles.h"

namespace sldm {

struct ReproCase {
  std::string oracle;
  std::uint64_t seed = 0;
  double slope_ns = 1.0;
  std::string sim_path;     ///< absolute after load_repro
  std::string eco_path;     ///< "" when absent
  std::string tables_path;  ///< "" when absent
  std::string detail;
};

/// Writes `<dir>/<name>.repro` plus the referenced files.  `sim_text`
/// and `eco_text` / `tables_text` are the exact bytes to persist ("" =
/// omit the file and its manifest record).  Returns the manifest path.
/// Throws Error if a file cannot be created.
std::string write_repro(const std::string& dir, const std::string& name,
                        const ReproCase& c, const std::string& sim_text,
                        const std::string& eco_text,
                        const std::string& tables_text);

/// Parses a manifest; referenced paths are resolved relative to it.
/// Throws ParseError (line-numbered) on malformed manifests.
ReproCase load_repro(const std::string& path);

/// Replays one case per the semantics above.
OracleResult replay_repro(const ReproCase& c);

}  // namespace sldm

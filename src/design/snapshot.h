// The .sldc compiled-design snapshot: a versioned binary serialization
// of a CompiledDesign, so warm starts skip parse + partition +
// extraction entirely (FORMATS.md section 11 documents the layout and
// the versioning policy).
//
// Layout: a fixed header (magic, format version, technology
// fingerprint) followed by tagged sections, each integrity-checked
// independently:
//
//   [tag u32][payload length u64][snapshot_checksum u64][payload]
//
// Every payload is a few scalars plus flat arrays ([count u64][count
// elements]), so the codec moves each array with one memcpy in either
// direction.  All integers are little-endian and doubles travel as their
// exact IEEE-754 bit patterns, which is what makes a loaded design's
// analysis bit-identical to the direct path: the StageStore's cached
// electrical quantities and the slope tables are restored verbatim,
// never re-derived.  Structures that are cheap and deterministic to
// rebuild (the CccPartition, the trigger index) are *not* serialized --
// the loader reconstructs them from the netlist.
//
// Loads are defensive: a wrong magic, a format version other than the
// current one, a short read, a checksum mismatch, an unknown or repeated
// section, or an internally inconsistent payload each produce an Error
// naming the file and the failing section.  Every count is checked
// against the bytes left before anything is allocated for it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "delay/slope_table.h"
#include "design/compiled_design.h"

namespace sldm {

/// "SLDC", read as a little-endian u32.
constexpr std::uint32_t kSnapshotMagic = 0x43444C53u;
/// Current .sldc format version.  Bump on any layout change; loaders
/// reject snapshots from the future and from every older version --
/// the compile step is cheap enough that migration shims are not worth
/// their risk.
constexpr std::uint32_t kSnapshotFormatVersion = 2;

/// The per-section integrity hash (FORMATS.md section 11): four
/// independent 64-bit lanes over little-endian 8-byte words, folded
/// with the length.  Every step is a bijection of the lane state, so
/// any change confined to one 8-byte word -- in particular every
/// single-byte flip -- changes the result.
std::uint64_t snapshot_checksum(const std::uint8_t* data, std::size_t n);

/// A deserialized snapshot: the design (owning its netlist and tech)
/// plus the optional calibration payload baked at compile time.
struct LoadedDesign {
  std::shared_ptr<CompiledDesign> design;
  std::optional<SlopeTables> slope_tables;
};

/// Serializes `design` (and, when given, the slope tables) to the
/// .sldc byte layout.
std::vector<std::uint8_t> serialize_design(const CompiledDesign& design,
                                           const SlopeTables* tables =
                                               nullptr);

/// Parses a .sldc byte buffer.  `origin` names the source in error
/// messages.  Throws Error on any integrity failure (see file
/// comment).
LoadedDesign deserialize_design(std::span<const std::uint8_t> bytes,
                                const std::string& origin = "<memory>");

/// File conveniences.  Throws Error if the file cannot be written or
/// read; load_design_file also rejects a path that is not a regular
/// file (a directory, a FIFO) before reading from it.
void save_design_file(const CompiledDesign& design, const std::string& path,
                      const SlopeTables* tables = nullptr);
LoadedDesign load_design_file(const std::string& path);

}  // namespace sldm

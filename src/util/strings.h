// String utilities for the .sim / technology-file parsers and the report
// writers.  Kept deliberately small; everything is std::string based.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sldm {

/// Splits on any run of whitespace; no empty tokens are produced.
std::vector<std::string> split_ws(std::string_view line);

/// Splits on a single character delimiter; empty fields are preserved.
std::vector<std::string> split(std::string_view line, char delim);

/// Removes leading and trailing whitespace.
std::string trim(std::string_view s);

/// ASCII case-insensitive equality, without copying either side.
bool iequals(std::string_view a, std::string_view b);

/// True if `s` starts with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// Parses a double; returns nullopt unless the whole token is consumed.
/// Allocation-free for tokens under 64 bytes.
/// Hex-float spellings ("0x1p3") and values that overflow the double
/// range (errno ERANGE at +/-HUGE_VAL) are rejected; the textual
/// "nan"/"inf" spellings still parse — use parse_finite_double() when
/// only finite values are acceptable (every input-file parser should).
std::optional<double> parse_double(std::string_view token);

/// parse_double() restricted to finite values: the shared guard for
/// untrusted numeric fields (a "nan" width or "inf" capacitance must
/// become a diagnostic, not a poisoned analysis).
std::optional<double> parse_finite_double(std::string_view token);

/// Parses a base-10 long; returns nullopt on any deviation, including
/// out-of-range values (errno ERANGE — no silent LONG_MAX saturation).
std::optional<long> parse_long(std::string_view token);

/// Parses 1..16 lowercase/uppercase hex digits (no "0x" prefix, no
/// sign) into a uint64; nullopt on empty, overlong, or non-hex input.
/// Used for ledger design fingerprints, which arrive untrusted.
std::optional<std::uint64_t> parse_hex_u64(std::string_view token);

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace sldm

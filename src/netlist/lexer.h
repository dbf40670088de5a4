// Line tokenizer and value checks shared by the netlist decoders (.sim
// and .eco).
//
// Both formats are line records of whitespace-separated tokens.  The
// decoders parse one in-memory buffer: LineLexer finds line ends with
// memchr and hands out each line's tokens as string_views into the
// buffer, in one reused vector, so a record costs no allocation.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace sldm {

/// Iterates the lines of a text buffer that hold at least one token.
/// Lines end at '\n' (a last line without one still counts); tokens
/// are maximal runs of bytes outside the C-locale isspace set (space,
/// \t, \n, \v, \f, \r), so a CR before the '\n' and any \v or \f
/// separate tokens like a space does.
class LineLexer {
 public:
  explicit LineLexer(std::string_view text)
      : pos_(text.data()), end_(text.data() + text.size()) {}

  /// Advances to the next non-blank line; false when the text is done.
  bool next();

  /// 1-based number of the current line, counting blank lines.
  int line() const { return line_; }

  /// The current line's tokens (never empty after next() returned
  /// true).  Views into the text; valid until the next call to next().
  const std::vector<std::string_view>& tokens() const { return tokens_; }

 private:
  const char* pos_;
  const char* end_;
  int line_ = 0;
  std::vector<std::string_view> tokens_;
};

/// The whole remaining content of `in`, for the stream entry points.
std::string read_stream(std::istream& in);

// Physical ranges (FORMATS.md section 1), shared by every record that
// carries a transistor dimension or a capacitance.  Far wider than any
// MOS process, yet narrow enough that no resistance, capacitance, or
// delay the engine derives from them can overflow to inf.

/// A transistor length or width in meters: a finite positive number of
/// file units of `unit_m` meters, within [1 nm, 1 cm] once scaled.
/// `what` names the dimension ("length"/"width").  Throws ParseError at
/// `origin`:`lineno` otherwise.
double parse_dimension(std::string_view token, double unit_m,
                       const char* what, const std::string& origin,
                       int lineno);

/// A capacitance record value in farads: finite fF within [0, 1 nF].
/// Throws ParseError at `origin`:`lineno` otherwise.
double parse_cap(std::string_view token, const std::string& origin,
                 int lineno);

}  // namespace sldm

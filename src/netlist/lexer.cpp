#include "netlist/lexer.h"

#include <cstring>
#include <istream>
#include <iterator>

#include "util/error.h"
#include "util/strings.h"
#include "util/units.h"

namespace sldm {
namespace {

constexpr double kMinDimension = 1e-9;  // meters (1 nm)
constexpr double kMaxDimension = 1e-2;  // meters (1 cm)
constexpr double kMaxCap = 1e-9;        // farads (1 nF) per record

/// C-locale isspace, without the locale lookup.
constexpr bool is_space(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

}  // namespace

bool LineLexer::next() {
  while (pos_ != end_) {
    const auto* nl = static_cast<const char*>(
        std::memchr(pos_, '\n', static_cast<std::size_t>(end_ - pos_)));
    const char* eol = nl != nullptr ? nl : end_;
    ++line_;
    tokens_.clear();
    for (const char* p = pos_;;) {
      while (p != eol && is_space(*p)) ++p;
      if (p == eol) break;
      const char* start = p;
      while (p != eol && !is_space(*p)) ++p;
      tokens_.emplace_back(start, static_cast<std::size_t>(p - start));
    }
    pos_ = nl != nullptr ? nl + 1 : end_;
    if (!tokens_.empty()) return true;
  }
  return false;
}

std::string read_stream(std::istream& in) {
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

double parse_dimension(std::string_view token, double unit_m,
                       const char* what, const std::string& origin,
                       int lineno) {
  const auto v = parse_finite_double(token);
  if (!v || *v <= 0.0) {
    throw ParseError(origin, lineno,
                     format("bad transistor %s '%.*s' (finite positive "
                            "number)",
                            what, static_cast<int>(token.size()),
                            token.data()));
  }
  const double meters = *v * unit_m;
  if (!(meters >= kMinDimension && meters <= kMaxDimension)) {
    throw ParseError(
        origin, lineno,
        format("transistor %s %.*s (%g um) outside the physical range "
               "[%g, %g] um",
               what, static_cast<int>(token.size()), token.data(),
               meters / units::um, kMinDimension / units::um,
               kMaxDimension / units::um));
  }
  return meters;
}

double parse_cap(std::string_view token, const std::string& origin,
                 int lineno) {
  const auto v = parse_finite_double(token);
  if (!v || *v < 0.0) {
    throw ParseError(origin, lineno,
                     format("bad cap '%.*s' (finite non-negative fF)",
                            static_cast<int>(token.size()), token.data()));
  }
  const double farads = *v * units::fF;
  if (!(farads <= kMaxCap)) {
    throw ParseError(origin, lineno,
                     format("cap %.*s fF outside the physical range "
                            "[0, %g] fF",
                            static_cast<int>(token.size()), token.data(),
                            kMaxCap / units::fF));
  }
  return farads;
}

}  // namespace sldm

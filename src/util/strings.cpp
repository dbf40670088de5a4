#include "util/strings.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace sldm {

std::vector<std::string> split_ws(std::string_view line) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() &&
           std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    std::size_t start = i;
    while (i < line.size() &&
           !std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    if (i > start) out.emplace_back(line.substr(start, i - start));
  }
  return out;
}

std::vector<std::string> split(std::string_view line, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= line.size(); ++i) {
    if (i == line.size() || line[i] == delim) {
      out.emplace_back(line.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

namespace {

// True for "0x.."/"0X.." after an optional sign: strtod would parse it
// as a hex float, which no sldm input format speaks.
bool looks_hex(std::string_view token) {
  std::size_t i = 0;
  if (i < token.size() && (token[i] == '+' || token[i] == '-')) ++i;
  return i + 1 < token.size() && token[i] == '0' &&
         (token[i + 1] == 'x' || token[i + 1] == 'X');
}

}  // namespace

std::optional<double> parse_double(std::string_view token) {
  if (token.empty()) return std::nullopt;
  if (looks_hex(token)) return std::nullopt;
  // strtod needs a NUL-terminated copy: on the stack for every token a
  // decoder sees in practice, on the heap past that.
  char stack[64];
  std::string heap;
  char* buf = stack;
  if (token.size() < sizeof stack) {
    std::memcpy(stack, token.data(), token.size());
    stack[token.size()] = '\0';
  } else {
    heap.assign(token);
    buf = heap.data();
  }
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(buf, &end);
  if (end != buf + token.size()) return std::nullopt;
  // ERANGE overflow saturates to +/-HUGE_VAL: an out-of-range literal,
  // not a representable value.  ERANGE underflow (tiny denormals) is
  // fine — the nearest representable value was returned.
  if (errno == ERANGE && (v == HUGE_VAL || v == -HUGE_VAL)) {
    return std::nullopt;
  }
  return v;
}

std::optional<double> parse_finite_double(std::string_view token) {
  const auto v = parse_double(token);
  if (!v || !std::isfinite(*v)) return std::nullopt;
  return v;
}

std::optional<long> parse_long(std::string_view token) {
  if (token.empty()) return std::nullopt;
  std::string buf(token);
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(buf.c_str(), &end, 10);
  if (end != buf.c_str() + buf.size()) return std::nullopt;
  if (errno == ERANGE) return std::nullopt;
  return v;
}

std::optional<std::uint64_t> parse_hex_u64(std::string_view token) {
  if (token.empty() || token.size() > 16) return std::nullopt;
  std::uint64_t v = 0;
  for (char c : token) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = c - 'A' + 10;
    } else {
      return std::nullopt;
    }
    v = (v << 4) | static_cast<std::uint64_t>(digit);
  }
  return v;
}

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args2;
  va_copy(args2, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  if (needed < 0) {
    va_end(args2);
    return {};
  }
  std::string out(static_cast<std::size_t>(needed), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args2);
  va_end(args2);
  return out;
}

}  // namespace sldm

#include "util/json.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/error.h"
#include "util/strings.h"

namespace sldm {

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) throw Error("JSON value is not a boolean");
  return bool_;
}

double JsonValue::as_number() const {
  if (kind_ != Kind::kNumber) throw Error("JSON value is not a number");
  return number_;
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) throw Error("JSON value is not a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (kind_ != Kind::kArray) throw Error("JSON value is not an array");
  return items_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  if (kind_ != Kind::kObject) throw Error("JSON value is not an object");
  return members_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* v = find(key);
  if (!v) throw Error("JSON object has no member '" + key + "'");
  return *v;
}

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after JSON document");
    return v;
  }

 private:
  /// Arrays and objects nest at most this deep.  The parser recurses
  /// once per level, so without a cap one short line of `[` overflows
  /// the stack; no record the project writes comes near it.
  static constexpr int kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& what) const {
    throw Error(format("JSON parse error at offset %zu: ", pos_) + what);
  }

  /// One array or object level, open for the guard's lifetime.
  class Nesting {
   public:
    explicit Nesting(JsonParser& p) : p_(p) {
      if (++p_.depth_ > kMaxDepth) {
        p_.fail(format("nesting deeper than %d levels", kMaxDepth));
      }
    }
    ~Nesting() { --p_.depth_; }
    Nesting(const Nesting&) = delete;
    Nesting& operator=(const Nesting&) = delete;

   private:
    JsonParser& p_;
  };

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(format("expected '%c'", c));
    ++pos_;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        JsonValue v;
        v.kind_ = JsonValue::Kind::kString;
        v.string_ = parse_string();
        return v;
      }
      case 't':
      case 'f': return parse_literal_bool();
      case 'n': parse_literal("null"); return JsonValue();
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    const Nesting nesting(*this);
    JsonValue v;
    v.kind_ = JsonValue::Kind::kObject;
    expect('{');
    skip_ws();
    if (consume('}')) return v;
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.members_.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (consume(',')) continue;
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    const Nesting nesting(*this);
    JsonValue v;
    v.kind_ = JsonValue::Kind::kArray;
    expect('[');
    skip_ws();
    if (consume(']')) return v;
    while (true) {
      v.items_.push_back(parse_value());
      skip_ws();
      if (consume(',')) continue;
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': out += parse_unicode_escape(); break;
        default: fail("unknown escape sequence");
      }
    }
  }

  std::string parse_unicode_escape() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned cp = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      cp <<= 4;
      if (c >= '0' && c <= '9') {
        cp |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        cp |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        cp |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("bad hex digit in \\u escape");
      }
    }
    // UTF-8 encode the code point (surrogates are passed through as-is;
    // the project never emits them).
    std::string out;
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
    return out;
  }

  JsonValue parse_literal_bool() {
    JsonValue v;
    v.kind_ = JsonValue::Kind::kBool;
    if (peek() == 't') {
      parse_literal("true");
      v.bool_ = true;
    } else {
      parse_literal("false");
      v.bool_ = false;
    }
    return v;
  }

  void parse_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) {
      fail("bad literal (expected " + std::string(lit) + ")");
    }
    pos_ += lit.size();
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {}
    if (!std::isdigit(static_cast<unsigned char>(peek()))) {
      fail("bad number");
    }
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (consume('.')) {
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        fail("bad number: digits must follow '.'");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() &&
          (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        fail("bad number: digits must follow exponent");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    const std::string token(text_.substr(start, pos_ - start));
    JsonValue v;
    v.kind_ = JsonValue::Kind::kNumber;
    v.number_ = std::strtod(token.c_str(), nullptr);
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< arrays and objects open at pos_
};

JsonValue parse_json(std::string_view text) {
  return JsonParser(text).parse_document();
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += format("\\u%04x", static_cast<unsigned char>(c));
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  // %.17g round-trips every finite double exactly.
  return format("%.17g", v);
}

JsonValue parse_json_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open JSON file '" + path + "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_json(ss.str());
}

}  // namespace sldm

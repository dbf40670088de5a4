#include "serve/protocol.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "util/json.h"
#include "util/strings.h"

namespace sldm {
namespace {

using namespace serve_errors;

/// Renders an "id" member back to a JSON token.  Only numbers and
/// strings are legal ids; anything else reports bad-request (the
/// caller must be able to echo the id into one line).
std::string id_token_of(const JsonValue& v) {
  if (v.kind() == JsonValue::Kind::kString) {
    return format("\"%s\"", json_escape(v.as_string()).c_str());
  }
  if (v.kind() == JsonValue::Kind::kNumber) {
    return json_number(v.as_number());
  }
  throw RequestError(kBadRequest, "\"id\" must be a string or number");
}

std::string require_string(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  if (!v || v->kind() != JsonValue::Kind::kString || v->as_string().empty()) {
    throw RequestError(kBadRequest, std::string("request needs a non-empty "
                                                "string \"") +
                                        key + "\" member");
  }
  return v->as_string();
}

std::string optional_string(const JsonValue& obj, const char* key,
                            std::string fallback) {
  const JsonValue* v = obj.find(key);
  if (!v) return fallback;
  if (v->kind() != JsonValue::Kind::kString) {
    throw RequestError(kBadRequest,
                       std::string("\"") + key + "\" must be a string");
  }
  return v->as_string();
}

double optional_number(const JsonValue& obj, const char* key,
                       double fallback) {
  const JsonValue* v = obj.find(key);
  if (!v) return fallback;
  if (v->kind() != JsonValue::Kind::kNumber) {
    throw RequestError(kBadRequest,
                       std::string("\"") + key + "\" must be a number");
  }
  return v->as_number();
}

int optional_threads(const JsonValue& obj) {
  const double v = optional_number(obj, "threads", 1.0);
  if (v < 1.0 || v > 1024.0 || v != std::floor(v)) {
    throw RequestError(kBadRequest,
                       "\"threads\" must be an integer in [1, 1024]");
  }
  return static_cast<int>(v);
}

double optional_slope_ns(const JsonValue& obj) {
  const double v = optional_number(obj, "slope_ns", 1.0);
  if (!std::isfinite(v) || v < 0.0) {
    throw RequestError(kBadRequest,
                       "\"slope_ns\" must be a finite non-negative number");
  }
  return v;
}

double optional_deadline_ms(const JsonValue& obj) {
  const double v = optional_number(obj, "deadline_ms", 0.0);
  if (!std::isfinite(v) || v < 0.0) {
    throw RequestError(
        kBadRequest,
        "\"deadline_ms\" must be a finite non-negative number");
  }
  return v;
}

}  // namespace

ServeRequest parse_request(const std::string& line) {
  JsonValue obj;
  try {
    obj = parse_json(line);
  } catch (const Error& e) {
    throw RequestError(kParse, e.what());
  }
  if (!obj.is_object()) {
    throw RequestError(kParse, "request is not a JSON object");
  }

  ServeRequest req;
  if (const JsonValue* id = obj.find("id")) req.id_token = id_token_of(*id);

  const JsonValue* kind = obj.find("kind");
  if (!kind || kind->kind() != JsonValue::Kind::kString) {
    throw RequestError(kBadRequest,
                       "request needs a string \"kind\" member");
  }
  const std::string& k = kind->as_string();
  if (k == "load") {
    req.kind = RequestKind::kLoad;
    req.path = require_string(obj, "path");
    req.tech = optional_string(obj, "tech", "");
    req.model = optional_string(obj, "model", "slope");
    req.threads = optional_threads(obj);
  } else if (k == "time" || k == "explain" || k == "eco") {
    req.kind = k == "time" ? RequestKind::kTime
               : k == "explain" ? RequestKind::kExplain
                                : RequestKind::kEco;
    req.design = require_string(obj, "design");
    req.model = optional_string(obj, "model", "slope");
    // Threads size extraction, which time and explain never run.
    if (req.kind == RequestKind::kEco) req.threads = optional_threads(obj);
    req.slope_ns = optional_slope_ns(obj);
    req.deadline_ms = optional_deadline_ms(obj);
    if (req.kind == RequestKind::kExplain) {
      req.node = require_string(obj, "node");
      req.dir = optional_string(obj, "dir", "");
      if (!req.dir.empty() && req.dir != "rise" && req.dir != "fall") {
        throw RequestError(kBadRequest,
                           "\"dir\" must be \"rise\" or \"fall\"");
      }
    }
    if (req.kind == RequestKind::kEco) {
      req.script = optional_string(obj, "script", "");
      req.path = optional_string(obj, "path", "");
      if (req.script.empty() == req.path.empty()) {
        throw RequestError(kBadRequest,
                           "eco needs exactly one of \"script\" (inline "
                           "edit text) or \"path\" (edit-script file)");
      }
    }
  } else if (k == "stats") {
    req.kind = RequestKind::kStats;
  } else if (k == "shutdown") {
    req.kind = RequestKind::kShutdown;
  } else {
    throw RequestError(kUnknownKind, "unknown request kind '" + k + "'");
  }
  return req;
}

std::string request_id_token(const std::string& line) {
  try {
    const JsonValue obj = parse_json(line);
    if (!obj.is_object()) return "";
    const JsonValue* id = obj.find("id");
    return id ? id_token_of(*id) : "";
  } catch (const Error&) {
    return "";
  }
}

std::string request_id_token_prefix(const std::string& prefix) {
  const std::string parsed = request_id_token(prefix);
  if (!parsed.empty()) return parsed;
  const auto key = prefix.find("\"id\"");
  if (key == std::string::npos) return "";
  std::size_t i = key + 4;
  const auto skip_ws = [&] {
    while (i < prefix.size() &&
           std::isspace(static_cast<unsigned char>(prefix[i]))) {
      ++i;
    }
  };
  skip_ws();
  if (i >= prefix.size() || prefix[i] != ':') return "";
  ++i;
  skip_ws();
  if (i >= prefix.size()) return "";
  if (prefix[i] == '"') {
    const auto close = prefix.find('"', i + 1);
    if (close == std::string::npos) return "";
    // An escape anywhere in the body means `close` may be an escaped
    // quote, not the terminator; give up rather than guess.
    const std::string body = prefix.substr(i + 1, close - i - 1);
    if (body.find('\\') != std::string::npos) return "";
    return prefix.substr(i, close - i + 1);
  }
  std::size_t end = i;
  while (end < prefix.size()) {
    const char c = prefix[end];
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '-' ||
        c == '+' || c == '.' || c == 'e' || c == 'E') {
      ++end;
    } else {
      break;
    }
  }
  // A numeric token running into the truncation point may have lost
  // digits; only trust one terminated inside the prefix.
  if (end == i || end == prefix.size()) return "";
  const std::string token = prefix.substr(i, end - i);
  char* stop = nullptr;
  errno = 0;
  (void)std::strtod(token.c_str(), &stop);
  if (errno != 0 || stop != token.c_str() + token.size()) return "";
  return token;
}

std::string error_response(const std::string& id_token, const char* error,
                           const std::string& detail) {
  std::ostringstream os;
  os << '{';
  if (!id_token.empty()) os << "\"id\":" << id_token << ',';
  os << "\"error\":\"" << json_escape(error) << "\",\"detail\":\""
     << json_escape(detail) << "\"}";
  return os.str();
}

}  // namespace sldm

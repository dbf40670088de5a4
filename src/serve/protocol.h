// The `sldm serve` wire protocol: line-delimited JSON requests and
// responses (FORMATS.md section 14).
//
// Every request is one JSON object on one line with a "kind" member
// selecting the operation (load / time / explain / eco / stats /
// shutdown) and an optional "id" the server echoes verbatim, so
// clients can match responses to requests even when a concurrent
// server interleaves them.  Every failure -- malformed line, unknown
// kind, missing field, unknown design, admission overload -- produces
// a structured error envelope
//
//   {"id":<echoed>,"error":"<name>","detail":"<human text>"}
//
// with a *named* error (never an uncaught exception and never a closed
// connection), because inputs arriving over a pipe or socket are
// untrusted by definition.
#pragma once

#include <string>

#include "util/error.h"

namespace sldm {

/// The protocol's named errors (the "error" member of an envelope).
namespace serve_errors {
inline constexpr const char* kParse = "parse";
inline constexpr const char* kUnknownKind = "unknown-kind";
inline constexpr const char* kBadRequest = "bad-request";
inline constexpr const char* kUnknownDesign = "unknown-design";
inline constexpr const char* kOverloaded = "overloaded";
inline constexpr const char* kEcoShared = "eco-shared";
inline constexpr const char* kFailed = "failed";
inline constexpr const char* kDeadline = "deadline";
inline constexpr const char* kTooLarge = "too-large";
}  // namespace serve_errors

enum class RequestKind { kLoad, kTime, kExplain, kEco, kStats, kShutdown };

/// A parsed, validated request.  String members default empty; numeric
/// members default to the cold-CLI defaults so a serve request with
/// only the required fields behaves exactly like the bare CLI command.
struct ServeRequest {
  /// The "id" member as a rendered JSON token ("7", "\"abc\""), empty
  /// when absent.  Echoed verbatim into the response.
  std::string id_token;
  RequestKind kind = RequestKind::kStats;

  // load
  std::string path;  ///< .sim to compile or .sldc to load
  std::string tech;  ///< preset name or .tech path; "" = server default

  // load / time / explain / eco
  std::string design;          ///< 16-hex design fingerprint
  std::string model = "slope";
  int threads = 1;  ///< extraction workers; read by load and eco only
  double slope_ns = 1.0;
  /// Cooperative per-request deadline in milliseconds; 0 (the default)
  /// means no request-level deadline (the server-wide default, if any,
  /// still applies).  Expiry aborts propagation between wavefronts and
  /// answers with the named "deadline" envelope; partial arrivals are
  /// discarded, so the design cache is untouched.
  double deadline_ms = 0.0;

  // explain
  std::string node;
  std::string dir;  ///< "", "rise", or "fall"

  // eco
  std::string script;  ///< inline edit-script text (eco_io format)
};

/// A protocol-level failure: `name()` is the serve_errors constant for
/// the envelope, what() the human detail.
class RequestError : public Error {
 public:
  RequestError(const char* name, const std::string& detail)
      : Error(detail), name_(name) {}
  const char* name() const { return name_; }

 private:
  const char* name_;
};

/// Parses and validates one request line.  Throws RequestError with
/// the appropriate protocol name (parse / unknown-kind / bad-request)
/// on any deviation; never throws anything else.
ServeRequest parse_request(const std::string& line);

/// Best-effort "id" extraction from a possibly malformed request line,
/// for envelopes written before parsing completes (overload rejection).
/// Returns a rendered JSON token, or "" when absent or unrecoverable.
std::string request_id_token(const std::string& line);

/// Like request_id_token, but for a *truncated* prefix of an oversized
/// line (the too-large envelope): falls back to scanning for a
/// complete `"id":<scalar>` member when the full parse fails.  A value
/// that may itself be cut off by the truncation yields "" rather than
/// a corrupt id.
std::string request_id_token_prefix(const std::string& prefix);

/// The error envelope for `id_token` (may be empty) and a named error.
std::string error_response(const std::string& id_token, const char* error,
                           const std::string& detail);

}  // namespace sldm

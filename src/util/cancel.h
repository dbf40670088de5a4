// Cooperative cancellation for long-running analyses.
//
// A CancelToken carries an optional monotonic-clock deadline; code on a
// cancellable path calls check() at its own safe points and the token
// throws CancelledError once the deadline has passed.  The checkpoints
// are deliberately coarse -- Session::run() consults the token once per
// level, never inside the delay kernels -- so a run that
// completes is bit-identical to the same run with no token attached:
// cancellation can only abort work, never reorder or reprice it.
//
// The serve layer builds one token per request from `deadline_ms` /
// `--deadline-ms` (FORMATS.md section 14) and maps CancelledError to
// the named "deadline" envelope, discarding the partial session and
// releasing the design lease on the way out.
#pragma once

#include <chrono>
#include <string>

#include "util/error.h"

namespace sldm {

/// Thrown by CancelToken::check() once the deadline has passed.  The
/// message is deterministic ("deadline expired during <what>") so
/// envelope tests can pin it.
class CancelledError : public Error {
 public:
  explicit CancelledError(const char* what_phase)
      : Error(std::string("deadline expired during ") + what_phase) {}
};

class CancelToken {
 public:
  /// An inert token: never expires, check() is a comparison.
  CancelToken() = default;

  /// A token expiring `seconds` from now (steady clock; seconds may be
  /// zero or negative for an already-expired token).
  static CancelToken deadline_after(double seconds) {
    CancelToken token;
    token.armed_ = true;
    token.deadline_ =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(seconds));
    return token;
  }

  bool armed() const { return armed_; }

  bool expired() const {
    return armed_ && std::chrono::steady_clock::now() >= deadline_;
  }

  /// Throws CancelledError naming `what_phase` when expired; otherwise
  /// returns immediately.
  void check(const char* what_phase) const {
    if (expired()) throw CancelledError(what_phase);
  }

 private:
  bool armed_ = false;
  std::chrono::steady_clock::time_point deadline_{};
};

}  // namespace sldm

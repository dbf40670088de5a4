// The `sldm serve` front ends: a stdin/stdout pipe loop and a
// localhost TCP listener, both dispatching request lines onto a shared
// TimingService over a worker pool with bounded admission.
//
// Admission control is a hard cap, not a queue: when `max_inflight`
// requests are already dispatched, a newly read line is answered
// immediately with the structured "overloaded" envelope on the reader
// thread -- the server never blocks the input stream and never buffers
// unbounded work.  Input is bounded too: a request line longer than
// `max_line_bytes` is answered with the "too-large" envelope and (on
// TCP) discarded without ever being buffered whole, so a hostile or
// broken client cannot balloon the server.  Responses are written one
// per line, each under the output mutex, so concurrent completions
// interleave by whole lines (clients correlate via the echoed "id").
//
// Both loops install SIGINT/SIGTERM drain handlers (self-pipe, no
// SA_RESTART so blocked reads wake with EINTR): the first signal stops
// admission, answers every in-flight request, flushes ledger and
// telemetry as a side effect of those answers, and exits 0; a second
// signal force-exits immediately with status 130.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "serve/service.h"

namespace sldm {

struct ServeLoopOptions {
  /// Maximum requests dispatched concurrently; further lines are
  /// rejected with {"error":"overloaded"}.  Must be >= 1.
  int max_inflight = 64;
  /// Worker pool size: requests executing at once.  Must be >= 1.
  int workers = 4;
  /// Maximum bytes in one request line; longer lines are rejected with
  /// {"error":"too-large"} and their bytes discarded.  Must be >= 64.
  std::size_t max_line_bytes = std::size_t{1} << 20;
};

/// Runs the line-delimited JSON loop over a pipe: reads request lines
/// from `in` until EOF or a shutdown request, writes one response line
/// (flushed) per request to `out`.  Returns the process exit code (0;
/// request failures are in-band envelopes, not exit codes).
int serve_pipe(TimingService& service, std::istream& in, std::ostream& out,
               const ServeLoopOptions& options);

/// The localhost TCP front end.  Binds 127.0.0.1:`port` at
/// construction (port 0 picks an ephemeral port, see port()); run()
/// accepts connections until a shutdown request arrives on any of
/// them, serving each connection the same line protocol as
/// serve_pipe().  The in-flight cap spans all connections.
class TcpServer {
 public:
  /// Throws Error when the socket cannot be bound or the options are
  /// out of range.
  TcpServer(TimingService& service, const ServeLoopOptions& options,
            int port);
  ~TcpServer();
  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// The bound port (resolves port 0 to the kernel's choice).
  int port() const { return port_; }

  /// Accept loop; returns the process exit code (0) after shutdown.
  int run();

 private:
  TimingService& service_;
  ServeLoopOptions options_;
  int listen_fd_ = -1;
  int port_ = 0;
};

}  // namespace sldm

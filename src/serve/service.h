// The concurrent timing service behind `sldm serve`.
//
// A TimingService owns an LRU cache of CompiledDesigns keyed by their
// 16-hex design fingerprint and processes protocol requests
// (serve/protocol.h) against it.  The design around the PR 6 split:
//
//   * `load` compiles a .sim (calibrating exactly like the cold CLI
//     when the slope model is requested, so later analyses are
//     bit-identical to single-shot runs) or restores a .sldc snapshot,
//     and caches the design under its fingerprint;
//   * `time` / `explain` take a *lease* on the cached entry and run a
//     fresh Session over the shared immutable design -- any number of
//     mixed-model requests proceed concurrently with no cloning, each
//     bit-identical to an independent cold analyzer
//     (tests/design_test.cpp extends that guarantee here).  They run no
//     extraction, so they do not read `threads`, which sizes only the
//     extraction of a `load` and of an eco's update();
//   * `eco` is the single writer: it removes the entry from the cache
//     (refusing with "eco-shared" while reader leases are outstanding),
//     mutates the design through TimingAnalyzer::update() with the
//     use_count discipline as a backstop, and re-inserts the result
//     under its *new* fingerprint -- an edited design is a different
//     design, and stale fingerprints fail fast with "unknown-design";
//   * the entry keeps the analysis its last successful eco left (a
//     *warm* analyzer, keyed by model token, slope_ns and threads --
//     the last because it sizes update()'s re-extraction).
//     The next eco with the same key applies its script and calls
//     update() on it, with no full propagate of the pre-edit design;
//     any other key, a re-load or a failure starts a fresh analyzer,
//     exactly as a first eco does.  Only models whose delay ignores
//     input slope keep one: for them update() is bit-identical to a
//     rebuild, so a warm answer equals a cold one.  A `slope` eco
//     always starts afresh (ROADMAP item 4).  The response reports
//     this request's share of the warm session's counters.
//
// handle_line() is thread-safe and never throws: every failure becomes
// a structured error envelope, because a worker-pool task that throws
// would poison the pool's wait().  Each request appends a run-ledger
// record (when configured) and publishes Session telemetry labeled
// with the request kind, so `sldm stats --prom` covers live traffic.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "delay/slope_table.h"
#include "design/compiled_design.h"

namespace sldm {

struct ServeOptions {
  /// Maximum cached designs; least-recently-used unleased entries are
  /// evicted beyond this.  Must be >= 1.
  int cache_capacity = 8;
  /// Technology for .sim loads that do not name one: preset ("nmos",
  /// "cmos") or a .tech file path.
  std::string default_tech = "nmos";
  /// Run-ledger file for per-request records; empty disables.
  std::string ledger_path;
  /// Server-wide default deadline for time/explain/eco requests, in
  /// milliseconds; 0 disables.  A request's own "deadline_ms" member
  /// overrides it.  Expiry is cooperative (checked between propagation
  /// wavefronts) and answers with the named "deadline" envelope.
  double default_deadline_ms = 0.0;
};

class TimingService {
 public:
  /// Enables the process TelemetryHub (the service *is* the process
  /// worth observing).  Throws Error on bad options.
  explicit TimingService(ServeOptions options = {});

  /// Parses and fully processes one request line, returning the
  /// single-line JSON response (no trailing newline).  Thread-safe;
  /// never throws -- failures come back as error envelopes.
  std::string handle_line(const std::string& line);

  /// The "overloaded" envelope for a line refused at admission, with
  /// the id recovered best-effort.  Counts the rejection.
  std::string overload_response(const std::string& line);

  /// The "too-large" envelope for a line that exceeded the serve loop's
  /// --max-line-bytes bound.  `line_prefix` is whatever prefix the loop
  /// retained (the id is recovered best-effort from it, usually empty
  /// because the JSON is truncated).  Counts as an error.
  std::string too_large_response(const std::string& line_prefix,
                                 std::size_t limit);

  /// True once a shutdown request has been processed (the pipe loop /
  /// TCP accept loop exit condition).
  bool shutdown_requested() const {
    return shutdown_.load(std::memory_order_acquire);
  }

  /// Marks the service shutting down without a protocol request -- the
  /// serve loops call this when a SIGINT/SIGTERM drain begins, so any
  /// concurrent loop sharing the service also stops admitting.
  void note_shutdown() { shutdown_.store(true, std::memory_order_release); }

  /// A reader's hold on a cached design: while alive, `eco` against
  /// the same fingerprint is refused with "eco-shared".  Exposed so
  /// embedders (and the eco-refusal tests) can pin a design exactly
  /// like an in-flight time/explain request does.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& o) noexcept : entry_(std::move(o.entry_)) {}
    Lease& operator=(Lease&& o) noexcept;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { release(); }

    std::shared_ptr<const CompiledDesign> design() const;
    std::shared_ptr<const SlopeTables> tables() const;

   private:
    friend class TimingService;
    struct CacheEntry;
    explicit Lease(std::shared_ptr<CacheEntry> entry);
    void release();
    std::shared_ptr<CacheEntry> entry_;
  };

  /// Takes a reader lease on the design with this 16-hex fingerprint.
  /// Throws RequestError("unknown-design") when it is not cached.
  Lease lease(const std::string& fingerprint);

  std::size_t design_count() const;
  std::uint64_t requests_handled() const {
    return requests_.load(std::memory_order_relaxed);
  }
  std::uint64_t errors_returned() const {
    return errors_.load(std::memory_order_relaxed);
  }
  std::uint64_t overloads_rejected() const {
    return overloads_.load(std::memory_order_relaxed);
  }

 private:
  struct ServeRequestDispatch;

  /// Inserts (or refreshes) a cache entry and evicts LRU unleased
  /// entries beyond capacity.  Caller must not hold mutex_.
  void insert_entry(const std::string& fingerprint,
                    std::shared_ptr<Lease::CacheEntry> entry);

  /// Removes the entry for an eco rewrite; throws RequestError
  /// ("unknown-design" / "eco-shared") when absent or leased.
  std::shared_ptr<Lease::CacheEntry> take_for_eco(
      const std::string& fingerprint);

  void append_ledger(const class LedgerRecord& record);
  void publish_service_metrics();

  ServeOptions options_;
  mutable std::mutex mutex_;  ///< guards cache_ and use_clock_
  std::map<std::string, std::shared_ptr<Lease::CacheEntry>> cache_;
  std::uint64_t use_clock_ = 0;  ///< LRU timestamp source

  std::mutex ledger_mutex_;
  std::atomic<bool> shutdown_{false};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> overloads_{0};
};

}  // namespace sldm

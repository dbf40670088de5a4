// Chaos suite for the fault-injection subsystem (util/failpoint.h) and
// the crash-safety contracts of `sldm serve`:
//
//   * failpoint grammar and firing semantics are deterministic --
//     counted (`*N`) and probabilistic (`*1inK@seed`) schedules fire on
//     exactly the same visit indices every run;
//   * every injected fault at an I/O boundary (ledger append, snapshot
//     read/write, cache insert/evict, thread-pool submit) surfaces as
//     the boundary's documented failure, never a crash, and leaves the
//     touched state consistent;
//   * under a fixed-seed randomized schedule the pipe server still
//     answers exactly one envelope per request line, in a byte-wise
//     reproducible sequence (workers=1);
//   * a SIGTERM drain on the TCP front end answers in-flight requests
//     and exits 0.
//
// Deliberately excluded from the tsan stage of scripts/check.sh: the
// SIGTERM test raises real signals, which sanitizer runtimes intercept
// with their own handlers.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "design/compiled_design.h"
#include "design/snapshot.h"
#include "netlist/sim_io.h"
#include "serve/server.h"
#include "serve/service.h"
#include "tech/tech.h"
#include "util/failpoint.h"
#include "util/ledger.h"
#include "util/metrics.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"

namespace sldm {
namespace {

/// Every test disarms on exit so suites sharing the binary start
/// clean; the process-wide registry is exactly why this guard exists.
class FailpointGuard {
 public:
  FailpointGuard() { FailpointRegistry::instance().clear(); }
  ~FailpointGuard() { FailpointRegistry::instance().clear(); }
};

class HubGuard {
 public:
  HubGuard() { reset(); }
  ~HubGuard() { reset(); }

 private:
  static void reset() {
    TelemetryHub::instance().disable();
    TelemetryHub::instance().clear();
  }
};

class TempFile {
 public:
  TempFile(const std::string& name, const std::string& contents)
      : path_(::testing::TempDir() + "sldm_chaos_test_" + name) {
    std::ofstream out(path_);
    out << contents;
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

constexpr const char* kInverterSim =
    "e in gnd out 4 8\n"
    "d out out vdd 8 4\n"
    "@in in\n"
    "@out out\n";

constexpr const char* kChainSim =
    "e in gnd s1 4 8\n"
    "d s1 s1 vdd 8 4\n"
    "e s1 gnd out 4 8\n"
    "d out out vdd 8 4\n"
    "@in in\n"
    "@out out\n";

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// --- grammar --------------------------------------------------------------

TEST(FailpointGrammar, ParsesEveryActionAndModifier) {
  const auto terms = FailpointRegistry::parse_spec(
      "a=error,b=delay:25,c=partial,d=error*3,e=partial*1in4@99");
  ASSERT_EQ(terms.size(), 5u);
  EXPECT_EQ(terms[0].site, "a");
  EXPECT_EQ(terms[0].action, FailpointAction::kError);
  EXPECT_EQ(terms[0].max_hits, UINT64_MAX);
  EXPECT_EQ(terms[1].action, FailpointAction::kDelay);
  EXPECT_EQ(terms[1].delay_ms, 25);
  EXPECT_EQ(terms[2].action, FailpointAction::kPartial);
  EXPECT_EQ(terms[3].max_hits, 3u);
  EXPECT_EQ(terms[4].one_in, 4u);
  EXPECT_EQ(terms[4].seed, 99u);
}

TEST(FailpointGrammar, RejectsMalformedTermsWithTheOffendingText) {
  for (const char* bad : {
           "nosuchaction",           // no '='
           "x=",                     // empty action
           "x=explode",              // unknown action
           "x=delay",                // delay without ms
           "x=delay:-5",             // negative ms
           "x=delay:999999999",      // ms out of range
           "x=error*",               // empty modifier
           "x=error*0",              // zero count
           "x=error*1in0@7",         // K out of range
           "x=error*1in4",           // probabilistic without seed
           "=error",                 // empty site
       }) {
    EXPECT_THROW(FailpointRegistry::parse_spec(bad), Error) << bad;
  }
  // An empty spec is a valid no-op (how the CLI disarms).
  EXPECT_TRUE(FailpointRegistry::parse_spec("").empty());
}

// --- firing semantics -----------------------------------------------------

TEST(FailpointFiring, DisarmedProcessNeverFires) {
  FailpointGuard guard;
  EXPECT_FALSE(failpoints_armed());
  EXPECT_FALSE(failpoint("chaos.nowhere"));
}

TEST(FailpointFiring, CountedErrorFiresExactlyNTimes) {
  FailpointGuard guard;
  FailpointRegistry::instance().configure("chaos.counted=error*2");
  int fires = 0;
  for (int i = 0; i < 10; ++i) {
    try {
      failpoint("chaos.counted");
    } catch (const FailpointError&) {
      ++fires;
    }
  }
  EXPECT_EQ(fires, 2);
  const FailpointCounts counts =
      FailpointRegistry::instance().counts("chaos.counted");
  EXPECT_EQ(counts.visits, 10u);
  EXPECT_EQ(counts.fires, 2u);
}

TEST(FailpointFiring, PartialReturnsTrueAndErrorThrows) {
  FailpointGuard guard;
  FailpointRegistry::instance().configure(
      "chaos.partial=partial,chaos.error=error");
  EXPECT_TRUE(failpoint("chaos.partial"));
  EXPECT_THROW(failpoint("chaos.error"), FailpointError);
  // Unconfigured sites stay cold even while the process is armed.
  EXPECT_FALSE(failpoint("chaos.other"));
}

TEST(FailpointFiring, ProbabilisticScheduleIsSeedDeterministic) {
  FailpointGuard guard;
  const auto fire_indices = [] {
    FailpointRegistry::instance().configure("chaos.prob=error*1in4@1234");
    std::vector<int> fired;
    for (int i = 0; i < 200; ++i) {
      try {
        failpoint("chaos.prob");
      } catch (const FailpointError&) {
        fired.push_back(i);
      }
    }
    return fired;
  };
  const std::vector<int> first = fire_indices();
  const std::vector<int> second = fire_indices();
  EXPECT_EQ(first, second);
  // ~1 in 4 of 200: the exact count is pinned by the seed; it must at
  // least be plausible and nonzero, or the modifier is inert.
  EXPECT_GT(first.size(), 20u);
  EXPECT_LT(first.size(), 120u);
  // A different seed fires on a different schedule.
  FailpointRegistry::instance().configure("chaos.prob=error*1in4@77");
  std::vector<int> other;
  for (int i = 0; i < 200; ++i) {
    try {
      failpoint("chaos.prob");
    } catch (const FailpointError&) {
      other.push_back(i);
    }
  }
  EXPECT_NE(first, other);
}

// --- boundary: ledger -----------------------------------------------------

TEST(ChaosLedger, InjectedAppendFailureIsCountedNotFatal) {
  FailpointGuard guard;
  const std::string path = ::testing::TempDir() + "sldm_chaos_ledger.jsonl";
  std::remove(path.c_str());
  LedgerRecord r;
  r.kind = "run";
  r.outcome = "ok";

  const std::uint64_t before = snapshot_process_metrics()
                                   .counter("ledger.append_failures")
                                   .value();
  FailpointRegistry::instance().configure("ledger.append=error");
  EXPECT_THROW(append_ledger_record(path, r), Error);
  EXPECT_FALSE(try_append_ledger_record(path, r));
  const std::uint64_t after = snapshot_process_metrics()
                                  .counter("ledger.append_failures")
                                  .value();
  EXPECT_EQ(after - before, 1u);

  // Disarmed, the same append succeeds and the file parses whole.
  FailpointRegistry::instance().clear();
  EXPECT_TRUE(try_append_ledger_record(path, r));
  EXPECT_EQ(read_ledger_file(path).size(), 1u);
  std::remove(path.c_str());
}

TEST(ChaosLedger, PartialAppendLeavesExactlyTheTornHalfLine) {
  FailpointGuard guard;
  const std::string path =
      ::testing::TempDir() + "sldm_chaos_ledger_torn.jsonl";
  std::remove(path.c_str());
  LedgerRecord r;
  r.kind = "run";
  r.unix_ms = 1;  // fixed so the rendered line (and its half) is stable
  r.outcome = "ok";
  const std::string line = r.to_json();

  FailpointRegistry::instance().configure("ledger.append=partial");
  EXPECT_THROW(append_ledger_record(path, r), Error);
  EXPECT_EQ(read_file(path), line.substr(0, line.size() / 2));
  // The torn line is not valid JSON, exactly like a mid-append crash;
  // the reader reports it instead of misparsing.
  EXPECT_THROW(read_ledger_file(path), Error);
  std::remove(path.c_str());
}

// --- boundary: snapshot ---------------------------------------------------

TEST(ChaosSnapshot, WriteAndReadFaultsSurfaceAsErrorsNotCrashes) {
  FailpointGuard guard;
  TempFile sim("snapshot_inv.sim", kInverterSim);
  Netlist nl = read_sim_file(sim.path());
  const auto design = CompiledDesign::compile(nl, nmos4());
  const std::string path = ::testing::TempDir() + "sldm_chaos.sldc";
  std::remove(path.c_str());

  FailpointRegistry::instance().configure("snapshot.write=error");
  EXPECT_THROW(save_design_file(*design, path), Error);

  // A half-written snapshot (injected partial, i.e. a crash mid-write)
  // must be rejected by the loader's integrity checks.
  FailpointRegistry::instance().configure("snapshot.write=partial");
  EXPECT_THROW(save_design_file(*design, path), Error);
  EXPECT_THROW(load_design_file(path), Error);

  // A good snapshot read through an injected truncation also fails
  // cleanly; disarmed, the same file loads.
  FailpointRegistry::instance().clear();
  save_design_file(*design, path);
  FailpointRegistry::instance().configure("snapshot.read=partial");
  EXPECT_THROW(load_design_file(path), Error);
  FailpointRegistry::instance().configure("snapshot.read=error");
  EXPECT_THROW(load_design_file(path), Error);
  FailpointRegistry::instance().clear();
  EXPECT_NO_THROW(load_design_file(path));
  std::remove(path.c_str());
}

// --- boundary: design cache ----------------------------------------------

TEST(ChaosCache, RefusedInsertLeavesTheCacheConsistent) {
  FailpointGuard guard;
  HubGuard hub;
  TimingService service;
  TempFile sim("cache_insert.sim", kInverterSim);
  FailpointRegistry::instance().configure("cache.insert=error");
  const std::string r = service.handle_line(
      "{\"kind\":\"load\",\"path\":\"" + sim.path() +
      "\",\"model\":\"lumped\"}");
  EXPECT_NE(r.find("\"error\":\"failed\""), std::string::npos) << r;
  EXPECT_EQ(service.design_count(), 0u);

  // Disarmed, the identical load succeeds and serves requests.
  FailpointRegistry::instance().clear();
  const std::string ok = service.handle_line(
      "{\"kind\":\"load\",\"path\":\"" + sim.path() +
      "\",\"model\":\"lumped\"}");
  EXPECT_NE(ok.find("\"ok\":true"), std::string::npos) << ok;
  EXPECT_EQ(service.design_count(), 1u);
}

TEST(ChaosCache, RefusedEvictionLeavesEveryEntryServing) {
  FailpointGuard guard;
  HubGuard hub;
  ServeOptions options;
  options.cache_capacity = 1;
  TimingService service(options);
  TempFile a("cache_evict_a.sim", kInverterSim);
  TempFile b("cache_evict_b.sim", kChainSim);
  const std::string ra = service.handle_line(
      "{\"kind\":\"load\",\"path\":\"" + a.path() +
      "\",\"model\":\"lumped\"}");
  ASSERT_NE(ra.find("\"ok\":true"), std::string::npos) << ra;

  // The second load inserts, then the eviction of the LRU entry is
  // refused: the load reports failure but the cache must stay
  // consistent -- over capacity, with *both* designs still resolving.
  FailpointRegistry::instance().configure("cache.evict=error");
  const std::string rb = service.handle_line(
      "{\"kind\":\"load\",\"path\":\"" + b.path() +
      "\",\"model\":\"lumped\"}");
  EXPECT_NE(rb.find("\"error\":\"failed\""), std::string::npos) << rb;
  FailpointRegistry::instance().clear();
  EXPECT_EQ(service.design_count(), 2u);
  const std::string key = "\"design\":\"";
  const std::string fp_a = ra.substr(ra.find(key) + key.size(), 16);
  for (const std::string& fp : {fp_a}) {
    const std::string t = service.handle_line(
        "{\"kind\":\"time\",\"design\":\"" + fp + "\",\"model\":\"lumped\"}");
    EXPECT_NE(t.find("\"ok\":true"), std::string::npos) << t;
  }
}

// --- boundary: thread pool ------------------------------------------------

TEST(ChaosPool, RefusedSubmitIsAnsweredInlineWithOneEnvelope) {
  FailpointGuard guard;
  HubGuard hub;
  TimingService service;
  // workers=2 takes the real enqueue path; the first dispatch is
  // refused and must still produce exactly one envelope, inline.
  FailpointRegistry::instance().configure("pool.submit=error*1");
  std::istringstream in(
      "{\"id\":1,\"kind\":\"stats\"}\n"
      "{\"id\":2,\"kind\":\"shutdown\"}\n");
  std::ostringstream out;
  ServeLoopOptions options;
  options.workers = 2;
  EXPECT_EQ(serve_pipe(service, in, out, options), 0);
  const std::string text = out.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
  EXPECT_NE(text.find("\"id\":1,\"error\":\"failed\""), std::string::npos)
      << text;
  EXPECT_NE(text.find("\"id\":2,\"kind\":\"shutdown\",\"ok\":true"),
            std::string::npos)
      << text;
}

TEST(ChaosPool, RefusedSubmitLeavesInFlightTasksForWaitToDrain) {
  FailpointGuard guard;
  // Fire on the 3rd of 8 submits: tasks 1-2 are already in flight and
  // reference `ran` below; the refused one never runs, and wait() must
  // still drain the two before the caller unwinds (asan would flag a
  // use-after-free if it did not).
  FailpointRegistry::instance().configure("pool.submit=error*1in3@5");
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  int submitted = 0;
  bool threw = false;
  try {
    for (; submitted < 64; ++submitted) {
      pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
  } catch (const FailpointError&) {
    threw = true;
  }
  pool.wait();
  EXPECT_TRUE(threw);
  EXPECT_LT(submitted, 64);
  EXPECT_EQ(ran.load(), submitted);
}

// --- fixed-seed randomized schedule over the pipe server ------------------

/// One full pipe session under an armed schedule; returns stdout.
std::string chaos_session(const std::string& failpoints,
                          const std::string& input,
                          const std::string& ledger_path) {
  // The hub is process-wide and stats responses embed its aggregate;
  // a fresh session must not see its predecessor's snapshots.
  TelemetryHub::instance().clear();
  FailpointRegistry::instance().configure(failpoints);
  ServeOptions sopts;
  sopts.ledger_path = ledger_path;
  TimingService service(sopts);
  ServeLoopOptions lopts;
  lopts.workers = 1;  // inline dispatch: deterministic response order
  lopts.max_line_bytes = 4096;
  std::istringstream in(input);
  std::ostringstream out;
  EXPECT_EQ(serve_pipe(service, in, out, lopts), 0);
  FailpointRegistry::instance().clear();
  return out.str();
}

/// Strips the wall-clock-bearing tails -- the per-request "stats"
/// object and the hub "telemetry" aggregate (whose *.seconds gauges
/// and latency-histogram means are timing-dependent) -- so lines
/// compare byte-wise across runs.
std::string deterministic_prefix(const std::string& response) {
  auto pos = response.find(",\"stats\":");
  if (pos == std::string::npos) pos = response.find(",\"telemetry\":");
  return pos == std::string::npos ? response : response.substr(0, pos);
}

TEST(ChaosSchedule, FixedSeedScheduleAnswersEveryLineReproducibly) {
  FailpointGuard guard;
  HubGuard hub;
  TempFile inv("sched_inv.sim", kInverterSim);
  TempFile chain("sched_chain.sim", kChainSim);
  const std::string ledger =
      ::testing::TempDir() + "sldm_chaos_sched.jsonl";

  // The request mix: loads, times against a fingerprint resolved by a
  // first clean pass, garbage, oversized lines, explains.
  std::remove(ledger.c_str());
  TimingService probe;
  const std::string lr = probe.handle_line(
      "{\"kind\":\"load\",\"path\":\"" + inv.path() +
      "\",\"model\":\"lumped\"}");
  const std::string key = "\"design\":\"";
  ASSERT_NE(lr.find(key), std::string::npos) << lr;
  const std::string fp = lr.substr(lr.find(key) + key.size(), 16);

  std::ostringstream input;
  std::vector<int> expected_ids;  ///< ids recoverable from their lines
  int id = 0;
  int unparseable = 0;
  for (int round = 0; round < 6; ++round) {
    input << "{\"id\":" << ++id << ",\"kind\":\"load\",\"path\":\""
          << inv.path() << "\",\"model\":\"lumped\"}\n";
    expected_ids.push_back(id);
    input << "{\"id\":" << ++id << ",\"kind\":\"time\",\"design\":\"" << fp
          << "\",\"model\":\"lumped\"}\n";
    expected_ids.push_back(id);
    input << "{\"id\":" << ++id << ",\"kind\":\"explain\",\"design\":\""
          << fp << "\",\"model\":\"lumped\",\"node\":\"out\"}\n";
    expected_ids.push_back(id);
    // Unparseable line: still owed one envelope, but its id is
    // unrecoverable from broken JSON.
    input << "{\"id\":" << ++id << " broken json\n";
    ++unparseable;
    input << "{\"id\":" << ++id << ",\"kind\":\"frobnicate\"}\n";
    expected_ids.push_back(id);
    input << "{\"id\":" << ++id << ",\"kind\":\"load\",\"path\":\""
          << chain.path() << "\",\"model\":\"lumped\"}\n";
    expected_ids.push_back(id);
    input << "{\"id\":" << ++id << ",\"kind\":\"stats\"}\n";
    expected_ids.push_back(id);
  }
  const int lines = id;

  // The fixed-seed schedule: probabilistic faults at every boundary
  // the session crosses.
  const std::string schedule =
      "ledger.append=error*1in3@101,"
      "cache.insert=error*1in4@202,"
      "cache.evict=partial*1in2@303,"
      "pool.submit=error*1in5@404,"
      "serve.request=error*1in7@505";

  const std::string first =
      chaos_session(schedule, input.str(), ledger);
  // Exactly one envelope per request line, every line answered.
  EXPECT_EQ(std::count(first.begin(), first.end(), '\n'), lines);
  (void)unparseable;
  for (const int i : expected_ids) {
    EXPECT_NE(first.find("\"id\":" + std::to_string(i)), std::string::npos)
        << "no envelope for request " << i;
  }

  // Bit-reproducible: the same schedule over the same input yields the
  // same per-line responses (modulo wall-clock stats members).
  std::remove(ledger.c_str());
  const std::string second =
      chaos_session(schedule, input.str(), ledger);
  std::istringstream a(first), b(second);
  std::string la, lb;
  int lineno = 0;
  while (std::getline(a, la) && std::getline(b, lb)) {
    ++lineno;
    EXPECT_EQ(deterministic_prefix(la), deterministic_prefix(lb))
        << "line " << lineno;
  }

  // Whatever ledger lines survived the injected append failures parse
  // whole -- error appends refuse before writing, so no torn lines.
  EXPECT_NO_THROW(read_ledger_file(ledger));
  std::remove(ledger.c_str());
}

// --- SIGTERM drain --------------------------------------------------------

TEST(ChaosDrain, SigtermDrainsTheTcpServerToExitZero) {
  FailpointGuard guard;
  HubGuard hub;
  TimingService service;
  ServeLoopOptions options;
  options.workers = 2;
  TcpServer server(service, options, 0);
  const int port = server.port();
  int rc = -1;
  std::thread server_thread([&server, &rc] { rc = server.run(); });

  // A connected client with a request in flight: the drain must still
  // answer it before the server exits.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  const std::string req = "{\"id\":1,\"kind\":\"stats\"}\n";
  ASSERT_EQ(::send(fd, req.data(), req.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(req.size()));
  // Wait for the response first so the request is provably in flight
  // before the signal, then drain.
  std::string response;
  char c = 0;
  while (::recv(fd, &c, 1, 0) == 1 && c != '\n') response += c;
  EXPECT_NE(response.find("\"id\":1,\"kind\":\"stats\",\"ok\":true"),
            std::string::npos)
      << response;

  ASSERT_EQ(::raise(SIGTERM), 0);
  server_thread.join();
  EXPECT_EQ(rc, 0);
  EXPECT_TRUE(service.shutdown_requested());
  ::close(fd);
}

}  // namespace
}  // namespace sldm

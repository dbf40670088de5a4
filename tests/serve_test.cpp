// Tests for the `sldm serve` layer: protocol error envelopes (including
// the "deadline" and "too-large" goldens), the design cache's lease /
// single-writer-eco discipline, bounded admission in the pipe loop,
// client-disconnect survival on the TCP front end, the wait-for-load
// client rule, exact `stats` telemetry over retired request sessions,
// warm eco sessions (chained ecos equal a cold analysis at every step;
// key changes, deadlines, failures, eviction and re-load), and the
// headline
// concurrency guarantee -- mixed-model request streams answered
// concurrently are bit-identical to cold single-shot CLI runs (run
// under tsan by scripts/check.sh).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "calib/calibrate.h"
#include "cli/cli.h"
#include "delay/bounds.h"
#include "delay/lumped.h"
#include "delay/rctree.h"
#include "delay/slope.h"
#include "delay/unit.h"
#include "design/compiled_design.h"
#include "design/snapshot.h"
#include "gen/generators.h"
#include "netlist/eco_io.h"
#include "netlist/sim_io.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/service.h"
#include "tech/tech.h"
#include "timing/analyzer.h"
#include "timing/report.h"
#include "util/failpoint.h"
#include "util/json.h"
#include "util/ledger.h"
#include "util/strings.h"
#include "util/telemetry.h"

namespace sldm {
namespace {

/// TimingService enables the process hub; leave it as a fresh process
/// would have it so suites sharing the binary see no leaked snapshots.
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
      : path_(::testing::TempDir() + "sldm_serve_test_" + name) {
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

/// Issues a load and returns the 16-hex fingerprint from the response.
std::string load_design(TimingService& service, const std::string& path,
                        const std::string& model) {
  const std::string response = service.handle_line(
      "{\"kind\":\"load\",\"path\":\"" + json_escape(path) +
      "\",\"model\":\"" + model + "\"}");
  const std::string key = "\"design\":\"";
  const auto pos = response.find(key);
  EXPECT_NE(pos, std::string::npos) << response;
  if (pos == std::string::npos) return "";
  return response.substr(pos + key.size(), 16);
}

/// Everything before the ",\"stats\":" member: the response fields that
/// must be bit-identical across runs (the stats object carries
/// wall-clock timings, which legitimately vary).
std::string deterministic_prefix(const std::string& response) {
  const auto pos = response.find(",\"stats\":");
  return pos == std::string::npos ? response : response.substr(0, pos);
}

std::string cold_cli(const std::vector<std::string>& args) {
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(run_cli(args, out, err), 0) << err.str();
  return out.str();
}

// --- protocol error envelopes --------------------------------------------

TEST(ServeProtocol, MalformedJsonIsParseError) {
  HubGuard guard;
  TimingService service;
  const std::string r = service.handle_line("{definitely not json");
  EXPECT_NE(r.find("\"error\":\"parse\""), std::string::npos) << r;
  EXPECT_EQ(service.errors_returned(), 1u);
  EXPECT_EQ(service.requests_handled(), 1u);
}

TEST(ServeProtocol, NonObjectAndBadIdAreStructuredErrors) {
  HubGuard guard;
  TimingService service;
  EXPECT_NE(service.handle_line("[1,2]").find("\"error\":\"parse\""),
            std::string::npos);
  EXPECT_NE(service.handle_line("{\"id\":[1],\"kind\":\"stats\"}")
                .find("\"error\":\"bad-request\""),
            std::string::npos);
}

TEST(ServeProtocol, UnknownKindEchoesTheRequestId) {
  HubGuard guard;
  TimingService service;
  const std::string r =
      service.handle_line("{\"id\":7,\"kind\":\"frobnicate\"}");
  EXPECT_NE(r.find("\"id\":7,"), std::string::npos) << r;
  EXPECT_NE(r.find("\"error\":\"unknown-kind\""), std::string::npos) << r;
}

TEST(ServeProtocol, MissingOrBadFieldsAreBadRequest) {
  HubGuard guard;
  TimingService service;
  for (const char* line : {
           "{\"kind\":\"load\"}",                          // no path
           "{\"kind\":\"time\"}",                          // no design
           "{\"kind\":\"explain\",\"design\":\"0\"}",      // no node
           "{\"kind\":\"load\",\"path\":\"x.sim\",\"threads\":0}",
           "{\"kind\":\"eco\",\"design\":\"0\",\"script\":\"x\","
           "\"threads\":0}",
           "{\"kind\":\"time\",\"design\":\"0\",\"slope_ns\":-1}",
           "{\"kind\":\"eco\",\"design\":\"0\"}",          // script xor path
           "{\"kind\":\"eco\",\"design\":\"0\",\"script\":\"x\","
           "\"path\":\"y\"}",
       }) {
    const std::string r = service.handle_line(line);
    EXPECT_NE(r.find("\"error\":\"bad-request\""), std::string::npos)
        << line << " -> " << r;
  }
}

TEST(ServeService, UnloadedFingerprintIsUnknownDesign) {
  HubGuard guard;
  TimingService service;
  const std::string r = service.handle_line(
      "{\"id\":\"q1\",\"kind\":\"time\",\"design\":\"00000000000000aa\","
      "\"model\":\"lumped\"}");
  EXPECT_NE(r.find("\"id\":\"q1\","), std::string::npos) << r;
  EXPECT_NE(r.find("\"error\":\"unknown-design\""), std::string::npos) << r;
}

TEST(ServeService, AnalysisFailuresAreNamedNotThrown) {
  HubGuard guard;
  TimingService service;
  // Unreadable netlist path: the compile throws inside the handler and
  // must come back as a "failed" envelope.
  const std::string r = service.handle_line(
      "{\"kind\":\"load\",\"path\":\"/nonexistent/x.sim\"}");
  EXPECT_NE(r.find("\"error\":\"failed\""), std::string::npos) << r;
  // Unknown model name is a bad request, pre-dispatch.
  TempFile sim("inv_badmodel.sim", kInverterSim);
  const std::string r2 = service.handle_line(
      "{\"kind\":\"load\",\"path\":\"" + json_escape(sim.path()) +
      "\",\"model\":\"quantum\"}");
  EXPECT_NE(r2.find("\"error\":\"bad-request\""), std::string::npos) << r2;
}

// --- deadline + too-large goldens ----------------------------------------

TEST(ServeDeadline, ExpiredDeadlineIsTheNamedEnvelope) {
  HubGuard guard;
  TimingService service;
  TempFile sim("deadline_inv.sim", kInverterSim);
  const std::string fp = load_design(service, sim.path(), "lumped");
  ASSERT_EQ(fp.size(), 16u);
  // A sub-microsecond deadline has expired by the first wavefront
  // check, so the envelope is fully deterministic -- pin it whole.
  const std::string r = service.handle_line(
      "{\"id\":9,\"kind\":\"time\",\"design\":\"" + fp +
      "\",\"model\":\"lumped\",\"deadline_ms\":1e-6}");
  EXPECT_EQ(r,
            "{\"id\":9,\"error\":\"deadline\",\"detail\":\"deadline "
            "expired during propagate\"}");
  // The partial run was discarded and the lease released: the same
  // design still answers an undeadlined request, and an eco (which
  // needs zero outstanding leases) is not blocked.
  const std::string ok = service.handle_line(
      "{\"kind\":\"time\",\"design\":\"" + fp + "\",\"model\":\"lumped\"}");
  EXPECT_NE(ok.find("\"ok\":true"), std::string::npos) << ok;
  const std::string eco = service.handle_line(
      "{\"kind\":\"eco\",\"design\":\"" + fp +
      "\",\"model\":\"lumped\",\"script\":\"addcap out 5\\n\"}");
  EXPECT_NE(eco.find("\"kind\":\"eco\",\"ok\":true"), std::string::npos)
      << eco;
}

TEST(ServeDeadline, CompletedRunIsByteIdenticalToUndeadlinedRun) {
  HubGuard guard;
  TimingService service;
  TempFile sim("deadline_chain.sim", kChainSim);
  const std::string fp = load_design(service, sim.path(), "lumped");
  const std::string without = service.handle_line(
      "{\"id\":1,\"kind\":\"time\",\"design\":\"" + fp +
      "\",\"model\":\"lumped\"}");
  // A generous deadline never fires mid-run; the cooperative check is
  // between wavefronts only, so completion implies bit-identity.
  const std::string with = service.handle_line(
      "{\"id\":1,\"kind\":\"time\",\"design\":\"" + fp +
      "\",\"model\":\"lumped\",\"deadline_ms\":60000}");
  ASSERT_NE(without.find("\"ok\":true"), std::string::npos) << without;
  EXPECT_EQ(deterministic_prefix(with), deterministic_prefix(without));
}

// `threads` sizes extraction, which a time request never runs: the
// member is ignored, so the answer is the same bytes with or without it
// (the propagate wall clock, erased here, aside).
TEST(ServeService, TimeIgnoresThreads) {
  HubGuard guard;
  TimingService service;
  TempFile sim("threads_chain.sim", kChainSim);
  const std::string fp = load_design(service, sim.path(), "lumped");
  const auto answer = [&](const std::string& extra) {
    std::string r = service.handle_line(
        "{\"id\":1,\"kind\":\"time\",\"design\":\"" + fp +
        "\",\"model\":\"lumped\"" + extra + "}");
    const std::string key = "\"propagate_seconds\":";
    const auto begin = r.find(key);
    EXPECT_NE(begin, std::string::npos) << r;
    if (begin == std::string::npos) return r;
    const auto end = r.find_first_of(",}", begin + key.size());
    return r.erase(begin + key.size(), end - begin - key.size());
  };
  const std::string without = answer("");
  ASSERT_NE(without.find("\"ok\":true"), std::string::npos) << without;
  EXPECT_EQ(answer(",\"threads\":4"), without);
  EXPECT_EQ(answer(",\"threads\":0"), without);
}

TEST(ServeDeadline, ServerDefaultAppliesAndRequestsOverrideIt) {
  HubGuard guard;
  ServeOptions options;
  options.default_deadline_ms = 1e-6;  // every request expires instantly
  TimingService service(options);
  TempFile sim("deadline_default.sim", kInverterSim);
  const std::string fp = load_design(service, sim.path(), "lumped");
  const std::string r = service.handle_line(
      "{\"kind\":\"time\",\"design\":\"" + fp + "\",\"model\":\"lumped\"}");
  EXPECT_NE(r.find("\"error\":\"deadline\""), std::string::npos) << r;
  // A request-level deadline wins over the server default.
  const std::string wide = service.handle_line(
      "{\"kind\":\"time\",\"design\":\"" + fp +
      "\",\"model\":\"lumped\",\"deadline_ms\":60000}");
  EXPECT_NE(wide.find("\"ok\":true"), std::string::npos) << wide;
}

TEST(ServePipe, OversizedLineGetsTheTooLargeGolden) {
  HubGuard guard;
  TimingService service;
  std::string big = "{\"kind\":\"stats\",\"pad\":\"";
  big.append(200, 'x');
  big += "\"}";
  std::istringstream in(big + "\n{\"id\":2,\"kind\":\"shutdown\"}\n");
  std::ostringstream out;
  ServeLoopOptions options;
  options.workers = 1;
  options.max_line_bytes = 64;
  EXPECT_EQ(serve_pipe(service, in, out, options), 0);
  const std::string text = out.str();
  // The oversized line's id is unrecoverable from a 64-byte prefix of
  // truncated JSON, so the golden envelope has no id member.
  EXPECT_NE(text.find("{\"error\":\"too-large\",\"detail\":\"request line "
                      "exceeds --max-line-bytes (64); split the request or "
                      "raise the limit\"}"),
            std::string::npos)
      << text;
  // Exactly one envelope per line: the oversized line and the shutdown.
  EXPECT_NE(text.find("\"id\":2,\"kind\":\"shutdown\",\"ok\":true"),
            std::string::npos)
      << text;
}

TEST(ServePipe, OversizedLineEchoesAnIdRecoverableFromItsPrefix) {
  HubGuard guard;
  TimingService service;
  std::string big = "{\"id\":41,\"kind\":\"stats\",\"pad\":\"";
  big.append(200, 'x');
  big += "\"}";
  std::istringstream in(big + "\n{\"id\":2,\"kind\":\"shutdown\"}\n");
  std::ostringstream out;
  ServeLoopOptions options;
  options.workers = 1;
  options.max_line_bytes = 64;
  EXPECT_EQ(serve_pipe(service, in, out, options), 0);
  // The id member fits inside the 64-byte prefix, so the envelope
  // echoes it even though the full line never parsed.
  EXPECT_NE(out.str().find("{\"id\":41,\"error\":\"too-large\","),
            std::string::npos)
      << out.str();
}

TEST(ServeProtocol, PrefixIdRecoveryRefusesAnythingPossiblyTruncated) {
  // Complete scalar ids are recovered from truncated prefixes...
  EXPECT_EQ(request_id_token_prefix("{\"id\":41,\"kind\":\"st"), "41");
  EXPECT_EQ(request_id_token_prefix("{\"id\" : -2.5e3 ,\"pad"), "-2.5e3");
  EXPECT_EQ(request_id_token_prefix("{\"id\":\"r-7\",\"pad\":\"xx"),
            "\"r-7\"");
  // ...but a value that may itself be cut off yields no id at all.
  EXPECT_EQ(request_id_token_prefix("{\"id\":41"), "");
  EXPECT_EQ(request_id_token_prefix("{\"id\":\"r-7"), "");
  EXPECT_EQ(request_id_token_prefix("{\"id\":\"a\\"), "");
  EXPECT_EQ(request_id_token_prefix("{\"pad\":\"x\",\"i"), "");
  // A prefix that happens to parse whole still goes through the full
  // parser (object ids and such are rejected there, not echoed).
  EXPECT_EQ(request_id_token_prefix("{\"id\":7}"), "7");
}

// --- TCP: client disconnect mid-request ----------------------------------

namespace {

int connect_localhost(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  return fd;
}

void send_all(int fd, const std::string& text) {
  std::size_t off = 0;
  while (off < text.size()) {
    const ssize_t n =
        ::send(fd, text.data() + off, text.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace

TEST(ServeTcp, ClientDisconnectMidRequestDoesNotKillTheServer) {
  HubGuard guard;
  TimingService service;
  ServeLoopOptions options;
  options.workers = 2;
  TcpServer server(service, options, 0);
  const int port = server.port();
  std::thread server_thread([&server] { EXPECT_EQ(server.run(), 0); });

  // Client 1 fires a request and slams the connection before the
  // response can be written: the worker's send hits EPIPE/ECONNRESET
  // (MSG_NOSIGNAL, so no SIGPIPE) and must simply drop the response.
  {
    const int fd = connect_localhost(port);
    send_all(fd, "{\"id\":1,\"kind\":\"stats\"}\n");
    struct linger hard = {1, 0};  // RST on close: the rudest disconnect
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
    ::close(fd);
  }

  // Client 2 proves the server is still alive and orderly, then shuts
  // it down; run() returning 0 is the survival assertion.
  {
    const int fd = connect_localhost(port);
    send_all(fd, "{\"id\":2,\"kind\":\"shutdown\"}\n");
    std::string response;
    char c = 0;
    while (::recv(fd, &c, 1, 0) == 1 && c != '\n') response += c;
    EXPECT_NE(response.find("\"kind\":\"shutdown\",\"ok\":true"),
              std::string::npos)
        << response;
    ::close(fd);
  }
  server_thread.join();
}

namespace {

/// Buffered line reader over a connected socket.
class SocketLines {
 public:
  explicit SocketLines(int fd) : fd_(fd) {}

  /// The next response line (without '\n'); empty once the peer closed.
  std::string next() {
    std::size_t nl;
    while ((nl = buffer_.find('\n')) == std::string::npos) {
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return "";
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
    std::string line = buffer_.substr(0, nl);
    buffer_.erase(0, nl + 1);
    return line;
  }

 private:
  int fd_;
  std::string buffer_;
};

}  // namespace

// FORMATS.md section 14: a client waits for the `load` envelope before
// it uses the fingerprint.  One that does so never sees unknown-design,
// even with 4 workers answering out of order.
TEST(ServeTcp, ClientThatWaitsForLoadNeverSeesUnknownDesign) {
  HubGuard guard;
  TimingService service;
  TempFile inv("wait_inv.sim", kInverterSim);
  TempFile chain("wait_chain.sim", kChainSim);
  ServeLoopOptions options;
  options.workers = 4;
  options.max_inflight = 512;  // admission is not under test here
  TcpServer server(service, options, 0);
  std::thread server_thread([&server] { EXPECT_EQ(server.run(), 0); });

  const int fd = connect_localhost(server.port());
  SocketLines lines(fd);
  int unknown = 0;
  int timed = 0;
  int time_sent = 0;
  const auto tally = [&](const std::string& line) {
    if (line.find("\"error\":\"unknown-design\"") != std::string::npos) {
      ++unknown;
    } else if (line.find("\"kind\":\"time\",\"ok\":true") !=
               std::string::npos) {
      ++timed;
    } else {
      ADD_FAILURE() << "unexpected response: " << line;
    }
  };
  constexpr int kTimesPerLoad = 50;
  int id = 0;
  for (int round = 0; round < 4; ++round) {
    for (const TempFile* sim : {&inv, &chain}) {
      send_all(fd, "{\"id\":" + std::to_string(++id) +
                       ",\"kind\":\"load\",\"path\":\"" +
                       json_escape(sim->path()) + "\",\"model\":\"lumped\"}\n");
      // Wait for this load's envelope; earlier time answers may arrive
      // first.
      std::string fp;
      while (fp.empty()) {
        const std::string line = lines.next();
        ASSERT_FALSE(line.empty()) << "server closed the connection";
        const std::string key = "\"kind\":\"load\",\"ok\":true,\"design\":\"";
        const auto pos = line.find(key);
        if (pos == std::string::npos) {
          tally(line);
        } else {
          fp = line.substr(pos + key.size(), 16);
        }
      }
      std::string batch;
      for (int i = 0; i < kTimesPerLoad; ++i) {
        batch += "{\"id\":" + std::to_string(++id) +
                 ",\"kind\":\"time\",\"design\":\"" + fp +
                 "\",\"model\":\"lumped\"}\n";
      }
      send_all(fd, batch);
      time_sent += kTimesPerLoad;
    }
  }
  while (unknown + timed < time_sent) {
    const std::string line = lines.next();
    ASSERT_FALSE(line.empty()) << "server closed the connection";
    tally(line);
  }
  EXPECT_EQ(unknown, 0);
  EXPECT_EQ(timed, time_sent);
  send_all(fd, "{\"kind\":\"shutdown\"}\n");
  ::close(fd);
  server_thread.join();
}

// --- cache + single-writer eco -------------------------------------------

TEST(ServeService, LoadCachesByFingerprintAndStatsSeeIt) {
  HubGuard guard;
  TimingService service;
  TempFile sim("inv_cache.sim", kInverterSim);
  const std::string fp = load_design(service, sim.path(), "lumped");
  ASSERT_EQ(fp.size(), 16u);
  // Re-loading the identical design hits the cache.
  const std::string again = service.handle_line(
      "{\"kind\":\"load\",\"path\":\"" + json_escape(sim.path()) +
      "\",\"model\":\"lumped\"}");
  EXPECT_NE(again.find("\"design\":\"" + fp + "\""), std::string::npos);
  EXPECT_NE(again.find("\"cached\":true"), std::string::npos) << again;
  EXPECT_EQ(service.design_count(), 1u);

  const std::string stats = service.handle_line("{\"kind\":\"stats\"}");
  EXPECT_NE(stats.find("\"designs\":1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"telemetry\":{"), std::string::npos) << stats;
}

// Retired request sessions fold into per-kind rollups: the `stats`
// telemetry still counts every request's propagation work exactly, and
// the hub holds one rollup per (model, threads, request) plus the
// service's own publisher, however many requests were answered.
TEST(ServeService, StatsTelemetryCountsEveryRetiredRequest) {
  HubGuard guard;
  TimingService service;
  TempFile inv("retire_inv.sim", kInverterSim);
  TempFile chain("retire_chain.sim", kChainSim);
  const std::vector<std::string> fps = {
      load_design(service, inv.path(), "lumped"),
      load_design(service, chain.path(), "lumped")};
  const std::vector<std::string> models = {"lumped", "rc-tree", "unit"};
  double expected = 0.0;
  for (int round = 0; round < 20; ++round) {
    for (const std::string& fp : fps) {
      for (const std::string& model : models) {
        const std::string timed = service.handle_line(
            "{\"kind\":\"time\",\"design\":\"" + fp + "\",\"model\":\"" +
            model + "\"}");
        ASSERT_NE(timed.find("\"ok\":true"), std::string::npos) << timed;
        const double evaluations = parse_json(timed)
                                       .at("stats")
                                       .at("stage_evaluations")
                                       .as_number();
        EXPECT_GT(evaluations, 0.0);
        // An explain runs the same analysis as a time request over the
        // same design and model, so it does the same work.
        const std::string explain = service.handle_line(
            "{\"kind\":\"explain\",\"design\":\"" + fp +
            "\",\"model\":\"" + model + "\",\"node\":\"out\"}");
        ASSERT_NE(explain.find("\"ok\":true"), std::string::npos) << explain;
        expected += 2.0 * evaluations;
      }
    }
  }
  const JsonValue stats =
      parse_json(service.handle_line("{\"kind\":\"stats\"}"));
  EXPECT_EQ(stats.at("telemetry")
                .at("counters")
                .at("propagate.stage_evaluations")
                .as_number(),
            expected);
  EXPECT_LE(TelemetryHub::instance().snapshot_count(),
            1 + 2 * models.size());
}

TEST(ServeService, EcoRefusedWhileLeasedThenRehashesTheDesign) {
  HubGuard guard;
  TimingService service;
  TempFile sim("chain_eco.sim", kChainSim);
  const std::string fp = load_design(service, sim.path(), "lumped");
  ASSERT_EQ(fp.size(), 16u);

  const std::string eco_line =
      "{\"kind\":\"eco\",\"design\":\"" + fp +
      "\",\"model\":\"lumped\",\"script\":\"addcap out 5\\n\"}";
  {
    // A held lease is exactly an in-flight reader: eco must refuse.
    TimingService::Lease lease = service.lease(fp);
    const std::string r = service.handle_line(eco_line);
    EXPECT_NE(r.find("\"error\":\"eco-shared\""), std::string::npos) << r;
  }
  // Lease released: the eco applies and re-keys the design.
  const std::string r = service.handle_line(eco_line);
  EXPECT_NE(r.find("\"kind\":\"eco\",\"ok\":true"), std::string::npos) << r;
  EXPECT_NE(r.find("\"applied\":1"), std::string::npos) << r;
  EXPECT_NE(r.find("\"was\":\"" + fp + "\""), std::string::npos) << r;
  const std::string key = "\"design\":\"";
  const std::string new_fp = r.substr(r.find(key) + key.size(), 16);
  EXPECT_NE(new_fp, fp);

  // The old identity is gone; the new one serves timing requests.
  const std::string stale = service.handle_line(
      "{\"kind\":\"time\",\"design\":\"" + fp + "\",\"model\":\"lumped\"}");
  EXPECT_NE(stale.find("\"error\":\"unknown-design\""), std::string::npos);
  const std::string fresh = service.handle_line(
      "{\"kind\":\"time\",\"design\":\"" + new_fp +
      "\",\"model\":\"lumped\"}");
  EXPECT_NE(fresh.find("\"kind\":\"time\",\"ok\":true"), std::string::npos);
}

TEST(ServeService, FailedEcoScriptSalvagesThePristineDesign) {
  HubGuard guard;
  TimingService service;
  TempFile sim("chain_badeco.sim", kChainSim);
  const std::string fp = load_design(service, sim.path(), "lumped");
  const std::string r = service.handle_line(
      "{\"kind\":\"eco\",\"design\":\"" + fp +
      "\",\"model\":\"lumped\",\"script\":\"cap nosuchnode 5\\n\"}");
  EXPECT_NE(r.find("\"error\":\"failed\""), std::string::npos) << r;
  // The script failed before mutating anything, so the design is still
  // cached under its old fingerprint.
  const std::string again = service.handle_line(
      "{\"kind\":\"time\",\"design\":\"" + fp + "\",\"model\":\"lumped\"}");
  EXPECT_NE(again.find("\"ok\":true"), std::string::npos) << again;
}

TEST(ServeService, LruEvictionSkipsLeasedDesigns) {
  HubGuard guard;
  ServeOptions options;
  options.cache_capacity = 1;
  TimingService service(options);
  TempFile a("lru_a.sim", kInverterSim);
  TempFile b("lru_b.sim", kChainSim);
  const std::string fp_a = load_design(service, a.path(), "lumped");
  {
    // While a is leased, loading b must not evict it.
    TimingService::Lease lease = service.lease(fp_a);
    const std::string fp_b = load_design(service, b.path(), "lumped");
    EXPECT_EQ(service.design_count(), 2u);
    EXPECT_NE(fp_a, fp_b);
  }
  // Unleased now: the next *insert* (a third, distinct design) evicts
  // back down to capacity.  A repeat load of a cached design is a hit
  // and triggers no eviction.
  TempFile c("lru_c.sim",
             "e in gnd out 6 8\nd out out vdd 8 4\n@in in\n@out out\n");
  const std::string fp_c = load_design(service, c.path(), "lumped");
  EXPECT_EQ(service.design_count(), 1u);
  const std::string r = service.handle_line(
      "{\"kind\":\"time\",\"design\":\"" + fp_c +
      "\",\"model\":\"lumped\"}");
  EXPECT_NE(r.find("\"ok\":true"), std::string::npos) << r;
  const std::string evicted = service.handle_line(
      "{\"kind\":\"time\",\"design\":\"" + fp_a + "\",\"model\":\"lumped\"}");
  EXPECT_NE(evicted.find("\"error\":\"unknown-design\""), std::string::npos);
}

// --- pipe loop: admission + shutdown -------------------------------------

TEST(ServePipe, ShutdownStopsTheLoopBeforeRemainingLines) {
  HubGuard guard;
  TimingService service;
  std::istringstream in(
      "{\"id\":1,\"kind\":\"stats\"}\n"
      "{\"id\":2,\"kind\":\"shutdown\"}\n"
      "{\"id\":3,\"kind\":\"stats\"}\n");
  std::ostringstream out;
  ServeLoopOptions options;
  options.workers = 1;  // inline execution: deterministic ordering
  EXPECT_EQ(serve_pipe(service, in, out, options), 0);
  EXPECT_TRUE(service.shutdown_requested());
  const std::string text = out.str();
  EXPECT_NE(text.find("\"id\":1,\"kind\":\"stats\""), std::string::npos);
  EXPECT_NE(text.find("\"id\":2,\"kind\":\"shutdown\",\"ok\":true"),
            std::string::npos);
  // The loop exited on the flag; request 3 was never admitted.
  EXPECT_EQ(text.find("\"id\":3"), std::string::npos) << text;
  EXPECT_EQ(service.requests_handled(), 2u);
}

TEST(ServePipe, OverloadedLinesGetStructuredRejections) {
  HubGuard guard;
  TimingService service;
  // An injected delay on the first request makes the overload
  // deterministic: the reader thread bumps the in-flight count *before*
  // dispatching, and the second line arrives while the first request is
  // still asleep, so it must see the service saturated.
  FailpointRegistry::instance().configure("serve.request=delay:1000*1");
  TempFile sim("inv_overload.sim", kInverterSim);
  std::istringstream in(
      "{\"id\":1,\"kind\":\"load\",\"path\":\"" + json_escape(sim.path()) +
      "\",\"model\":\"rc-tree\"}\n"
      "{\"id\":2,\"kind\":\"stats\"}\n");
  std::ostringstream out;
  ServeLoopOptions options;
  options.workers = 2;
  options.max_inflight = 1;
  EXPECT_EQ(serve_pipe(service, in, out, options), 0);
  FailpointRegistry::instance().clear();

  const std::string text = out.str();
  EXPECT_NE(text.find("\"id\":2,\"error\":\"overloaded\""),
            std::string::npos)
      << text;
  EXPECT_EQ(service.overloads_rejected(), 1u);
  // The delayed load completed and was counted.
  EXPECT_NE(text.find("\"id\":1,\"kind\":\"load\""), std::string::npos)
      << text;
  EXPECT_EQ(service.requests_handled(), 1u);
}

TEST(ServePipe, FifoLoadFailsByNameAndTheWorkerStaysLive) {
  HubGuard guard;
  TimingService service;
  // Opening a FIFO for reading would block until a writer appeared and
  // hold the worker; the loader must refuse it by name instead.
  const std::string fifo = ::testing::TempDir() + "sldm_serve_test_load.fifo";
  std::remove(fifo.c_str());
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  TempFile sim("inv_after_fifo.sim", kInverterSim);
  std::istringstream in(
      "{\"id\":1,\"kind\":\"load\",\"path\":\"" + json_escape(fifo) +
      "\",\"model\":\"rc-tree\"}\n"
      "{\"id\":2,\"kind\":\"load\",\"path\":\"" + json_escape(sim.path()) +
      "\",\"model\":\"rc-tree\"}\n");
  std::ostringstream out;
  ServeLoopOptions options;
  options.workers = 1;  // one worker: a hung load would starve line 2
  EXPECT_EQ(serve_pipe(service, in, out, options), 0);
  std::remove(fifo.c_str());

  const std::string text = out.str();
  EXPECT_NE(text.find("\"id\":1,\"error\":\"failed\""), std::string::npos)
      << text;
  EXPECT_NE(text.find("not a regular file"), std::string::npos) << text;
  EXPECT_NE(text.find("\"id\":2,\"kind\":\"load\",\"ok\":true"),
            std::string::npos)
      << text;
}

// --- warm eco sessions ----------------------------------------------------

/// An nMOS random_logic design as .sim text (6x16 is about 300
/// devices): big enough that an eco's damage is a small part of it.
std::string generated_sim(int layers, int width) {
  std::ostringstream out;
  write_sim(random_logic(Style::kNmos, layers, width, 11).netlist, out);
  return out.str();
}

/// The slope-independent serve models, built as the service builds
/// them.
std::unique_ptr<DelayModel> test_model(const std::string& model) {
  if (model == "lumped") return std::make_unique<LumpedRcModel>();
  if (model == "rph-upper") {
    return std::make_unique<RphBoundsModel>(RphBoundsModel::Mode::kUpper);
  }
  if (model == "unit") return std::make_unique<UnitDelayModel>(1e-9);
  return std::make_unique<RcTreeModel>();
}

/// The `report`, `arrivals` and `worst` members of an eco or time
/// response, rendered from `analyzer` the way the service renders them.
std::string rendered_members(const TimingAnalyzer& analyzer,
                             const std::string& model_name) {
  const Netlist& nl = analyzer.netlist();
  std::ostringstream os;
  os << ",\"report\":\""
     << json_escape("model: " + model_name + "\n\n" +
                    format_output_arrivals(nl, analyzer) + "\n")
     << "\",\"arrivals\":[";
  bool first = true;
  for (NodeId n : nl.all_nodes()) {
    if (!nl.node(n).is_output) continue;
    for (const Transition dir : {Transition::kRise, Transition::kFall}) {
      const auto a = analyzer.arrival(n, dir);
      if (!a) continue;
      os << (first ? "" : ",") << "{\"node\":\""
         << json_escape(nl.node(n).name.str()) << "\",\"dir\":\""
         << to_string(dir) << "\",\"time_s\":" << json_number(a->time)
         << ",\"slope_s\":" << json_number(a->slope) << '}';
      first = false;
    }
  }
  os << ']';
  if (const auto w = analyzer.worst_arrival(true)) {
    os << ",\"worst\":{\"node\":\"" << json_escape(nl.node(w->node).name.str())
       << "\",\"dir\":\"" << to_string(w->dir)
       << "\",\"time_s\":" << json_number(w->time) << '}';
  }
  return os.str();
}

/// The response members a cold analysis of `nl` must reproduce byte for
/// byte: everything between the envelope header and "stats".
std::string cold_members(const Netlist& nl, const std::string& model) {
  const std::unique_ptr<DelayModel> dm = test_model(model);
  TimingAnalyzer cold(nl, nmos4(), *dm);
  cold.add_all_input_events(1e-9);
  cold.run();
  return rendered_members(cold, dm->name());
}

/// The `report` .. `worst` members of an eco or time response.
std::string answer_members(const std::string& response) {
  const auto begin = response.find(",\"report\":");
  const auto end = response.find(",\"stats\":");
  if (begin == std::string::npos || end == std::string::npos) return response;
  return response.substr(begin, end - begin);
}

std::string design_member(const std::string& response) {
  const std::string key = "\"design\":\"";
  const auto pos = response.find(key);
  return pos == std::string::npos ? "" : response.substr(pos + key.size(), 16);
}

std::string eco_request(const std::string& fp, const std::string& model,
                        const std::string& script,
                        const std::string& extra = "") {
  return "{\"kind\":\"eco\",\"design\":\"" + fp + "\",\"model\":\"" + model +
         "\",\"script\":\"" + json_escape(script) + "\"" + extra + "}";
}

/// Whether an ok eco response ran the full pre-edit propagate (a miss)
/// rather than update() alone on the warm analysis (a hit).
bool ran_full_propagate(const std::string& response) {
  return parse_json(response).at("stats").at("propagate_seconds").as_number() >
         0.0;
}

/// Step `i` of a chained eco stream over the current netlist: `addcap`
/// and `width` edits (the in-place re-bake), with step 7 adding a
/// pull-down device (re-extract + splice).
std::string chained_edit(const Netlist& nl, int i) {
  if (i == 7) return "transistor e in3 gnd g2_5 2 4\n";
  if (i % 2 == 0) {
    return format("addcap g%d_%d %.1f\n", i % 6, (5 * i) % 16, 1.0 + 0.5 * i);
  }
  const Transistor& t = nl.device(DeviceId(static_cast<std::uint32_t>(
      (37u * static_cast<unsigned>(i)) % nl.device_count())));
  return format("width %s %s %s %d\n", nl.node(t.gate).name.c_str(),
                nl.node(t.source).name.c_str(), nl.node(t.drain).name.c_str(),
                2 + i % 5);
}

class ServeWarmEco : public ::testing::TestWithParam<std::string> {};

// Twenty chained ecos on one design and one key: the first is a miss
// (full propagate, then update), every later one a hit (update alone on
// the analysis the previous eco left).  After each, the answer is
// byte-equal to a cold analyzer over the same edited netlist.
TEST_P(ServeWarmEco, ChainedEcosEqualAColdAnalyzerAtEveryStep) {
  HubGuard guard;
  const std::string model = GetParam();
  TimingService service;
  TempFile sim("warm_chain_" + model + ".sim", generated_sim(6, 16));
  std::string fp = load_design(service, sim.path(), model);
  Netlist shadow = read_sim_file(sim.path());
  for (int i = 0; i < 20; ++i) {
    const std::string script = chained_edit(shadow, i);
    std::istringstream in(script);
    apply_eco(in, shadow, "<shadow>");
    const std::string r = service.handle_line(eco_request(fp, model, script));
    ASSERT_NE(r.find("\"ok\":true"), std::string::npos) << i << ": " << r;
    EXPECT_EQ(ran_full_propagate(r), i == 0) << "step " << i;
    EXPECT_EQ(answer_members(r), cold_members(shadow, model))
        << "step " << i << ": " << script;
    fp = design_member(r);
  }
  EXPECT_EQ(service.design_count(), 1u);
}

std::string model_case_name(
    const ::testing::TestParamInfo<std::string>& param) {
  if (param.param == "rc-tree") return "RcTree";
  if (param.param == "rph-upper") return "RphUpper";
  return param.param == "unit" ? "Unit" : "Lumped";
}

INSTANTIATE_TEST_SUITE_P(Models, ServeWarmEco,
                         ::testing::Values("rc-tree", "lumped", "rph-upper",
                                           "unit"),
                         model_case_name);

// The slope model keeps no warm state: update() is not bit-identical to
// a rebuild when delay depends on input slope (ROADMAP item 4), and a
// kept analysis would carry one eco's divergence into the next.  So
// every slope eco in a chain runs the full pre-edit propagate, and its
// answer is exactly that of a fresh analyzer over the pre-edit design
// that runs, applies the script and updates.
TEST(ServeWarmEcoKeys, SlopeEcosAlwaysMissAndMatchRunThenUpdate) {
  HubGuard guard;
  CalibrationOptions calibration;
  calibration.ratios = {0.1, 1.0, 8.0};
  const CalibrationResult cal =
      calibrate(nmos4(), Style::kNmos, calibration);
  const SlopeTables& tables = cal.tables;
  const SlopeModel model(tables);
  Netlist pre = random_logic(Style::kNmos, 6, 16, 11).netlist;
  TempFile sldc("warm_slope.sldc", "");
  save_design_file(*CompiledDesign::compile_owned(Netlist(pre), cal.tech),
                   sldc.path(), &tables);
  TimingService service;
  std::string fp = load_design(service, sldc.path(), "slope");
  for (int i = 0; i < 10; ++i) {
    const std::string script = chained_edit(pre, i);
    // The analyzer borrows `pre`, so the script edits it in place.
    TimingAnalyzer reference(pre, cal.tech, model);
    reference.add_all_input_events(1e-9);
    reference.run();
    std::istringstream in(script);
    apply_eco(in, pre, "<reference>");
    reference.update();

    const std::string r = service.handle_line(eco_request(fp, "slope", script));
    ASSERT_NE(r.find("\"ok\":true"), std::string::npos) << i << ": " << r;
    EXPECT_TRUE(ran_full_propagate(r)) << "step " << i;
    EXPECT_EQ(answer_members(r), rendered_members(reference, "slope"))
        << "step " << i << ": " << script;
    fp = design_member(r);
  }
  EXPECT_EQ(service.design_count(), 1u);
}

// A model switch or a slope change is a different key: the eco misses,
// runs the full propagate, and its answer still equals a cold analysis;
// the analysis it leaves serves the next eco with that key.
TEST(ServeWarmEcoKeys, KeyChangesMissAndStayEqual) {
  HubGuard guard;
  TimingService service;
  TempFile sim("warm_keys.sim", generated_sim(6, 16));
  std::string fp = load_design(service, sim.path(), "rc-tree");
  Netlist shadow = read_sim_file(sim.path());
  struct Step {
    std::string model;
    std::string extra;
    bool miss;
  };
  const std::vector<Step> steps = {
      {"rc-tree", "", true},  {"rc-tree", "", false}, {"lumped", "", true},
      {"lumped", "", false},  {"rc-tree", "", true},  {"rc-tree", "", false},
      {"rc-tree", ",\"slope_ns\":2", true}, {"rc-tree", ",\"slope_ns\":2", false},
      {"rc-tree", ",\"slope_ns\":1", true}};
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const std::string script = chained_edit(shadow, static_cast<int>(2 * i));
    std::istringstream in(script);
    apply_eco(in, shadow, "<shadow>");
    const Step& st = steps[i];
    const std::string r =
        service.handle_line(eco_request(fp, st.model, script, st.extra));
    ASSERT_NE(r.find("\"ok\":true"), std::string::npos) << i << ": " << r;
    EXPECT_EQ(ran_full_propagate(r), st.miss) << "step " << i;
    if (st.extra.find("slope_ns\":2") == std::string::npos) {
      EXPECT_EQ(answer_members(r), cold_members(shadow, st.model))
          << "step " << i;
    } else {
      // The cold oracle seeds 1 ns inputs; at 2 ns compare against a
      // time request over the same edited design instead.
      const std::string timed = service.handle_line(
          "{\"kind\":\"time\",\"design\":\"" + design_member(r) +
          "\",\"model\":\"" + st.model + "\"" + st.extra + "}");
      EXPECT_EQ(answer_members(r), answer_members(timed)) << "step " << i;
    }
    fp = design_member(r);
  }
}

// A warm hit's only propagate runs inside update(), after the script
// mutated the netlist: a deadline that expires there loses the design.
TEST(ServeWarmEcoKeys, DeadlineExpiredWarmEcoEvictsTheDesign) {
  HubGuard guard;
  TimingService service;
  TempFile sim("warm_deadline.sim", generated_sim(6, 16));
  const std::string fp0 = load_design(service, sim.path(), "rc-tree");
  const std::string first =
      service.handle_line(eco_request(fp0, "rc-tree", "addcap g3_3 4\n"));
  ASSERT_NE(first.find("\"ok\":true"), std::string::npos) << first;
  const std::string fp1 = design_member(first);
  const std::string expired = service.handle_line(eco_request(
      fp1, "rc-tree", "addcap g3_3 4\n", ",\"deadline_ms\":1e-6"));
  EXPECT_NE(expired.find("\"error\":\"deadline\""), std::string::npos)
      << expired;
  EXPECT_EQ(service.design_count(), 0u);
  const std::string stale = service.handle_line(
      "{\"kind\":\"time\",\"design\":\"" + fp1 + "\",\"model\":\"rc-tree\"}");
  EXPECT_NE(stale.find("\"error\":\"unknown-design\""), std::string::npos)
      << stale;
}

// A script that fails before it mutates anything leaves the design and
// its warm analysis in place: the next eco is still a hit, and equal.
TEST(ServeWarmEcoKeys, PristineFailureKeepsTheWarmState) {
  HubGuard guard;
  TimingService service;
  TempFile sim("warm_pristine.sim", generated_sim(6, 16));
  Netlist shadow = read_sim_file(sim.path());
  const std::string fp0 = load_design(service, sim.path(), "rc-tree");
  const std::string first =
      service.handle_line(eco_request(fp0, "rc-tree", "addcap g2_2 3\n"));
  ASSERT_NE(first.find("\"ok\":true"), std::string::npos) << first;
  const std::string fp1 = design_member(first);
  const std::string bad =
      service.handle_line(eco_request(fp1, "rc-tree", "cap nosuchnode 5\n"));
  EXPECT_NE(bad.find("\"error\":\"failed\""), std::string::npos) << bad;
  const std::string next =
      service.handle_line(eco_request(fp1, "rc-tree", "addcap g4_9 2\n"));
  ASSERT_NE(next.find("\"ok\":true"), std::string::npos) << next;
  EXPECT_FALSE(ran_full_propagate(next));
  std::istringstream edits("addcap g2_2 3\naddcap g4_9 2\n");
  apply_eco(edits, shadow, "<shadow>");
  EXPECT_EQ(answer_members(next), cold_members(shadow, "rc-tree"));
}

// An eco that fails before it touches the design -- here its model
// cannot be built, as the design carries no slope tables -- leaves the
// design cached under its old fingerprint.
TEST(ServeWarmEcoKeys, EcoWhoseModelCannotBeBuiltKeepsTheDesign) {
  HubGuard guard;
  TimingService service;
  TempFile sim("warm_nomodel.sim", kChainSim);
  const std::string fp = load_design(service, sim.path(), "lumped");
  const std::string r =
      service.handle_line(eco_request(fp, "slope", "addcap out 2\n"));
  EXPECT_NE(r.find("\"error\":\"failed\""), std::string::npos) << r;
  EXPECT_EQ(service.design_count(), 1u);
  const std::string again =
      service.handle_line(eco_request(fp, "lumped", "addcap out 2\n"));
  EXPECT_NE(again.find("\"ok\":true"), std::string::npos) << again;
}

// Eviction drops the entry and with it the warm analysis; a re-load of
// a cached design drops the warm analysis and keeps the entry.  Either
// way the next eco misses.
TEST(ServeWarmEcoKeys, EvictionAndReloadDropWarmState) {
  HubGuard guard;
  ServeOptions options;
  options.cache_capacity = 1;
  TimingService service(options);
  TempFile a("warm_reload_a.sim", kChainSim);
  // kChainSim after `width in gnd s1 16`, spelled as a .sim.
  TempFile edited("warm_reload_b.sim",
                  "e in gnd s1 4 16\n"
                  "d s1 s1 vdd 8 4\n"
                  "e s1 gnd out 4 8\n"
                  "d out out vdd 8 4\n"
                  "@in in\n"
                  "@out out\n");
  TempFile other("warm_reload_c.sim", kInverterSim);
  const std::string fp_a = load_design(service, a.path(), "lumped");
  const std::string r1 =
      service.handle_line(eco_request(fp_a, "lumped", "width in gnd s1 16\n"));
  ASSERT_NE(r1.find("\"ok\":true"), std::string::npos) << r1;
  const std::string fp_b = design_member(r1);

  // Re-load: same fingerprint, a cache hit, and the warm state is gone.
  const std::string reload = service.handle_line(
      "{\"kind\":\"load\",\"path\":\"" + json_escape(edited.path()) +
      "\",\"model\":\"lumped\"}");
  ASSERT_EQ(design_member(reload), fp_b) << reload;
  EXPECT_NE(reload.find("\"cached\":true"), std::string::npos) << reload;
  const std::string r2 =
      service.handle_line(eco_request(fp_b, "lumped", "addcap out 2\n"));
  ASSERT_NE(r2.find("\"ok\":true"), std::string::npos) << r2;
  EXPECT_TRUE(ran_full_propagate(r2));
  const std::string fp_c = design_member(r2);

  // Eviction: loading another design at capacity 1 evicts the warm
  // entry; loading it again compiles afresh, so the next eco misses.
  load_design(service, other.path(), "lumped");
  EXPECT_EQ(service.design_count(), 1u);
  const std::string gone = service.handle_line(
      eco_request(fp_c, "lumped", "addcap out 2\n"));
  EXPECT_NE(gone.find("\"error\":\"unknown-design\""), std::string::npos)
      << gone;
  const std::string r3 =
      service.handle_line(eco_request(fp_b, "lumped", "addcap out 2\n"));
  EXPECT_NE(r3.find("\"error\":\"unknown-design\""), std::string::npos) << r3;
  ASSERT_EQ(load_design(service, edited.path(), "lumped"), fp_b);
  const std::string r4 =
      service.handle_line(eco_request(fp_b, "lumped", "addcap out 2\n"));
  ASSERT_NE(r4.find("\"ok\":true"), std::string::npos) << r4;
  EXPECT_TRUE(ran_full_propagate(r4));
  EXPECT_EQ(answer_members(r4), answer_members(r2));
}

// Each eco response carries its own share of the warm session's work,
// so `stats` still equals the sum over the answered responses, and each
// eco's ledger record carries the same share as its response.
TEST(ServeWarmEcoKeys, StatsCountEachEcoOnce) {
  HubGuard guard;
  TempFile ledger("warm_stats.jsonl", "");
  ServeOptions options;
  options.ledger_path = ledger.path();
  TimingService service(options);
  TempFile sim("warm_stats.sim", generated_sim(6, 16));
  std::string fp = load_design(service, sim.path(), "rc-tree");
  Netlist shadow = read_sim_file(sim.path());
  double sum = 0.0;
  std::vector<JsonValue> answered;
  for (int i = 0; i < 12; ++i) {
    const std::string model = i == 6 ? "lumped" : "rc-tree";
    const std::string script = chained_edit(shadow, i);
    std::istringstream in(script);
    apply_eco(in, shadow, "<shadow>");
    const std::string r = service.handle_line(eco_request(fp, model, script));
    ASSERT_NE(r.find("\"ok\":true"), std::string::npos) << r;
    answered.push_back(parse_json(r).at("stats"));
    EXPECT_EQ(answered.back().at("incremental_updates").as_number(), 1.0)
        << i;
    sum += answered.back().at("stage_evaluations").as_number();
    fp = design_member(r);
  }
  const std::vector<LedgerRecord> records = read_ledger_file(ledger.path());
  ASSERT_EQ(records.size(), 1 + answered.size());  // the load, then ecos
  for (std::size_t i = 0; i < answered.size(); ++i) {
    const LedgerRecord& rec = records[i + 1];
    EXPECT_EQ(rec.kind, "eco");
    EXPECT_EQ(static_cast<double>(rec.stage_evaluations),
              answered[i].at("stage_evaluations").as_number())
        << i;
    EXPECT_EQ(rec.propagate_seconds,
              answered[i].at("propagate_seconds").as_number())
        << i;
    // Ecos 0 and 6 (the model switch) and 7 (back) run the full
    // pre-edit propagate; the rest answer from the warm analysis.
    EXPECT_EQ(rec.propagate_seconds > 0.0, i == 0 || i == 6 || i == 7) << i;
  }
  const JsonValue stats =
      parse_json(service.handle_line("{\"kind\":\"stats\"}"));
  EXPECT_GT(sum, 0.0);
  EXPECT_EQ(stats.at("telemetry")
                .at("counters")
                .at("propagate.stage_evaluations")
                .as_number(),
            sum);
}

/// Names of this process's threads that are thread-pool workers.
std::vector<std::string> pool_worker_threads() {
  std::vector<std::string> out;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return out;
  while (const dirent* e = readdir(dir)) {
    if (e->d_name[0] == '.') continue;
    std::ifstream comm(std::string("/proc/self/task/") + e->d_name + "/comm");
    std::string name;
    std::getline(comm, name);
    if (name.rfind("sldm-w", 0) == 0) out.push_back(name);
  }
  closedir(dir);
  return out;
}

/// pool_worker_threads() once every joined worker has left
/// /proc/self/task.  pthread_join returns when the kernel clears an
/// exiting thread's tid, a moment before it removes the thread's task
/// entry, so a pool destroyed just now can still be listed briefly; a
/// pool that is kept alive stays listed, and after 5 s the listing is
/// returned as it stands.
std::vector<std::string> pool_workers_after_join() {
  std::vector<std::string> names = pool_worker_threads();
  for (int i = 0; i < 5000 && !names.empty(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    names = pool_worker_threads();
  }
  return names;
}

// A warm session outlives its request, but no worker does: a
// `threads: 8` eco whose structural edit fanned update()'s
// re-extraction out over workers leaves none alive once it has
// answered.
TEST(ServeWarmEcoKeys, WarmSessionHoldsNoWorkerThreads) {
  HubGuard guard;
  TimingService service;
  TempFile sim("warm_threads.sim", generated_sim(8, 128));
  const std::string fp = load_design(service, sim.path(), "rc-tree");
  // Counts submissions without perturbing them, to show the pool ran.
  FailpointRegistry::instance().configure("pool.submit=delay:0");
  const std::string r = service.handle_line(eco_request(
      fp, "rc-tree", "transistor e in3 gnd g2_5 2 4\n", ",\"threads\":8"));
  const std::uint64_t submits =
      FailpointRegistry::instance().counts("pool.submit").visits;
  FailpointRegistry::instance().clear();
  ASSERT_NE(r.find("\"ok\":true"), std::string::npos) << r;
  EXPECT_GT(submits, 0u) << "the eco never fanned its re-extraction out";
  EXPECT_EQ(pool_workers_after_join(), std::vector<std::string>{});
  // And the warm state it left still serves the next eco.
  const std::string next = service.handle_line(
      eco_request(design_member(r), "rc-tree",
                  "transistor e in5 gnd g5_7 2 4\n", ",\"threads\":8"));
  ASSERT_NE(next.find("\"ok\":true"), std::string::npos) << next;
  EXPECT_FALSE(ran_full_propagate(next));
  EXPECT_EQ(pool_workers_after_join(), std::vector<std::string>{});
}

// --- the concurrency guarantee -------------------------------------------

TEST(ServeConcurrency, MixedModelStreamsMatchColdCliRunsBitIdentically) {
  HubGuard guard;
  TimingService service;
  TempFile inv("conc_inv.sim", kInverterSim);
  TempFile chain("conc_chain.sim", kChainSim);
  const std::string fp_inv = load_design(service, inv.path(), "lumped");
  const std::string fp_chain = load_design(service, chain.path(), "lumped");
  ASSERT_EQ(service.design_count(), 2u);

  // Mixed-model request stream: 2 designs x 4 models, time + explain.
  struct Case {
    std::string line;
    std::string expected;  ///< deterministic prefix, precomputed serially
  };
  std::vector<Case> cases;
  const std::vector<std::pair<std::string, std::string>> designs = {
      {fp_inv, inv.path()}, {fp_chain, chain.path()}};
  const std::vector<std::string> models = {"lumped", "rc-tree", "rph-upper",
                                           "unit"};
  int id = 0;
  for (const auto& [fp, sim_path] : designs) {
    for (const std::string& model : models) {
      cases.push_back({"{\"id\":" + std::to_string(++id) +
                           ",\"kind\":\"time\",\"design\":\"" + fp +
                           "\",\"model\":\"" + model + "\",\"threads\":2}",
                       ""});
      cases.push_back({"{\"id\":" + std::to_string(++id) +
                           ",\"kind\":\"explain\",\"design\":\"" + fp +
                           "\",\"model\":\"" + model +
                           "\",\"node\":\"out\"}",
                       ""});
    }
  }

  // Serial pass fixes the expected responses; a fresh Session per
  // request makes them independent of service history.
  for (Case& c : cases) {
    c.expected = deterministic_prefix(service.handle_line(c.line));
    ASSERT_NE(c.expected.find("\"ok\":true"), std::string::npos)
        << c.line << " -> " << c.expected;
  }

  // The serve-side report must be byte-identical to the cold CLI's
  // stdout, and the embedded explain object to `explain --json`.
  for (const auto& [fp, sim_path] : designs) {
    for (const std::string& model : models) {
      const std::string cold =
          cold_cli({"time", sim_path, "--model", model});
      const std::string want = "\"report\":\"" + json_escape(cold) + "\"";
      bool found = false;
      for (const Case& c : cases) {
        found = found || c.expected.find(want) != std::string::npos;
      }
      EXPECT_TRUE(found) << "no serve response carried the cold report "
                         << "for " << model << " over " << sim_path;
      std::string cold_explain = cold_cli(
          {"explain", sim_path, "out", "--model", model, "--json"});
      if (!cold_explain.empty() && cold_explain.back() == '\n') {
        cold_explain.pop_back();
      }
      const std::string want_explain = "\"explain\":" + cold_explain;
      found = false;
      for (const Case& c : cases) {
        found = found || c.expected.find(want_explain) != std::string::npos;
      }
      EXPECT_TRUE(found) << "no serve response embedded the cold explain "
                         << "for " << model << " over " << sim_path;
    }
  }

  // Concurrent pass: every case on its own client thread (16 threads,
  // both designs, all four models in flight at once), plus repeats.
  for (int round = 0; round < 2; ++round) {
    std::vector<std::string> got(cases.size());
    std::vector<std::thread> clients;
    clients.reserve(cases.size());
    for (std::size_t i = 0; i < cases.size(); ++i) {
      clients.emplace_back([&service, &cases, &got, i] {
        got[i] = service.handle_line(cases[i].line);
      });
    }
    for (std::thread& t : clients) t.join();
    for (std::size_t i = 0; i < cases.size(); ++i) {
      EXPECT_EQ(deterministic_prefix(got[i]), cases[i].expected)
          << "round " << round << ", case " << cases[i].line;
    }
  }
}

}  // namespace
}  // namespace sldm

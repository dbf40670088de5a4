// serve_54k and serve_small: the in-process TimingService, driven
// through handle_line by closed-loop client threads (each sends its
// next request when the previous answer arrives).
//
// A run is a sequence of *episodes*.  Each episode starts a fresh
// service with an empty telemetry hub -- the state a fresh process
// starts in -- and sends a fixed number of requests per client.  Every
// time/explain request publishes a new per-session snapshot into the
// process-wide hub, and the hub's publish scans every stored snapshot,
// so latency depends on how many requests the process has served.
// Sizing episodes by request count, never by duration, keeps that
// dependence identical across runs, machines and commits; the time
// budget only decides how many equal-sized episodes a run pools.
//
// Kinds: serve_54k k1 = time, k2 = explain, k3 = eco;
//        serve_small k1 = time, k2 = explain, k3 = late time (the `time`
//        requests in the last tenth of each reader's stream, when the hub
//        is nearly full).
//
// On serve_small the readers meet at a barrier before that last tenth.
// Without it the readers drift apart over the episode, the last tenth
// ran beside 0 to 2 other readers depending on how far, and k3 spread
// 15% between runs of the same code.
//
// serve_small ends each episode with `stats` scrapes, sent from the main
// thread once the clients have finished, so all of them fold the same
// hub.  They are not an end-to-end kind: at that one hub size a scrape
// read about 480 ms in some runs and 600 ms in others, too far apart for
// a bound.  They feed the notes and the per-layer view.
//
// The ECO writer times with the rc-tree model: with the slope model an
// incremental update is not bit-identical to a rebuild (`sldm eco
// --verify` reports arrivals about 2e-4 early after a single `addcap`),
// so a slope-model writer would fail the gate on most seeds.
#include <barrier>
#include <exception>
#include <fstream>
#include <latch>
#include <sstream>
#include <thread>

#include "delay/lumped.h"
#include "delay/rctree.h"
#include "delay/slope.h"
#include "design/snapshot.h"
#include "inputs.h"
#include "netlist/eco_io.h"
#include "netlist/sim_io.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "timing/analyzer.h"
#include "timing/explain.h"
#include "timing/report.h"
#include "util/json.h"
#include "util/telemetry.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kReaders = 3;
constexpr double kSlope = 1e-9;  // serve's default slope_ns 1
/// In traced episodes, every Nth reader request (and every `stats`
/// scrape) is followed by its layer decomposition.
constexpr int kDecomposeEvery = 16;

/// The traffic of one serve workload.  No record of real serve traffic
/// exists, so apart from the client counts, the 54k design and the
/// serve_small episode size (all from the profiling that motivated this
/// benchmark), every share and count here is an assumption, chosen for
/// what it exercises; README.md lists them.
struct Shape {
  std::vector<std::pair<int, int>> designs;  ///< reader designs (layers, width)
  bool writer = false;        ///< one ECO writer on its own 64x256 design
  int reader_requests = 0;    ///< per reader client per episode
  int eco_requests = 0;       ///< writer requests per episode
  double explain_share = 0.0;
  int stats_repeats = 0;      ///< `stats` lines sent after the clients finish
  int eco_check_every = 0;    ///< every Nth eco is checked against a rebuild
  /// Readers meet at a barrier before the last tenth of their streams.
  bool sync_late = false;
  /// Whether end-to-end timings are scaled to the host probe (README.md,
  /// "Host-speed scaling").
  bool scaled = true;
};

Shape shape_for(const std::string& workload) {
  if (workload == "serve_54k") {
    // 70 ecos (~37 ms each) take about as long as 300 reader requests
    // (~10 ms each), so all four clients stay busy to the episode's end.
    return {{{64, 256}}, true, 300, 70, 0.3, 0, 20, false, true};
  }
  // Table-5-sized designs (about 1e2 to 3e3 devices), all within the
  // service's default cache of 8.  An episode is the 45k requests over
  // which profiling saw throughput fall from 21k to 3.3k req/s; the hub
  // it leaves is scraped 3 times.  The probe sorts in cache while these
  // requests scan the hub in memory: on five seeds the scaled `time` p50
  // spread 16% and the measured one 5%, so the timings stay as measured.
  return {{{4, 8}, {6, 12}, {8, 16}, {8, 24}, {10, 32}, {12, 40}, {16, 48},
           {16, 64}},
          false, 15000, 0, 0.4, 3, 0, true, false};
}

struct DesignFiles {
  std::string sim;
  std::string sldc;
};

struct Prepared {
  std::vector<DesignFiles> readers;
  std::vector<std::vector<std::string>> outputs;  ///< per reader design
  DesignFiles writer;
  sldm::Netlist writer_netlist;
};

/// One episode's requests.  Each episode draws fresh streams (seeded by
/// the run seed and the episode index), so a run pools many distinct
/// edits and explain targets instead of repeating one draw.
struct Streams {
  std::vector<std::vector<RequestSpec>> readers;  ///< per reader client
  std::vector<std::string> eco;
};

Streams streams_for(const Prepared& p, const Shape& s, std::uint64_t seed,
                    int episode) {
  Streams out;
  const std::uint64_t episode_seed =
      derive_seed(seed, 1000 + static_cast<std::uint64_t>(episode));
  for (int c = 0; c < kReaders; ++c) {
    out.readers.push_back(reader_stream(episode_seed, c, s.reader_requests,
                                        p.outputs, s.explain_share));
  }
  if (s.writer) out.eco = eco_stream(p.writer_netlist, episode_seed, s.eco_requests);
  return out;
}

DesignFiles write_design(const sldm::GeneratedCircuit& g,
                         const std::string& stem) {
  DesignFiles f{stem + ".sim", stem + ".sldc"};
  sldm::write_sim_file(g.netlist, f.sim);
  const int rc = cli({"compile", f.sim, "-o", f.sldc, "--tech", "cmos"});
  if (rc != 0) throw std::runtime_error("compile of " + f.sim + " failed");
  return f;
}

/// Success iff the response is an ok envelope; otherwise the error name.
std::string error_name(const std::string& resp) {
  const auto ok = resp.find(",\"ok\":true");
  const auto err = resp.find("\"error\":\"");
  if (ok != std::string::npos && (err == std::string::npos || ok < err)) {
    return "";
  }
  if (err == std::string::npos) return "malformed";
  const auto start = err + 9;
  return resp.substr(start, resp.find('"', start) - start);
}

/// The "design" member of a load or eco response.
std::string design_of(const std::string& resp) {
  const auto at = resp.find("\"design\":\"");
  return at == std::string::npos ? "" : resp.substr(at + 10, 16);
}

std::vector<std::string> load_all(sldm::TimingService& svc,
                                  const std::vector<DesignFiles>& files) {
  std::vector<std::string> fps;
  for (const DesignFiles& f : files) {
    const std::string resp = svc.handle_line(load_line(f.sldc));
    if (!error_name(resp).empty()) {
      throw std::runtime_error("serve load failed: " + resp);
    }
    fps.push_back(design_of(resp));
  }
  return fps;
}

Prepared prepare(const RunConfig& cfg, const Shape& s, double* setup_s) {
  Prepared p;
  std::vector<double> setups;
  const double setup_start = now_s();
  while (more_setups(setups.size(), setup_start)) {
    const double t0 = now_s();
    p = Prepared{};
    for (std::size_t i = 0; i < s.designs.size(); ++i) {
      const auto [layers, width] = s.designs[i];
      const sldm::GeneratedCircuit g =
          make_logic(layers, width, derive_seed(cfg.seed, 10 + i));
      p.readers.push_back(
          write_design(g, fmt("%s/r%zu", cfg.work_dir.c_str(), i)));
      p.outputs.push_back(output_names(g.netlist));
    }
    if (s.writer) {
      sldm::GeneratedCircuit g = make_logic(64, 256, derive_seed(cfg.seed, 2));
      p.writer = write_design(g, cfg.work_dir + "/w");
      p.writer_netlist = std::move(g.netlist);
    }
    (void)streams_for(p, s, cfg.seed, 0);
    sldm::TimingService svc;
    load_all(svc, p.readers);
    if (s.writer) load_all(svc, {p.writer});
    setups.push_back(now_s() - t0);
  }
  *setup_s = median_of(setups);
  return p;
}

struct ClientOut {
  Samples time, explain, stats, eco;
  Samples time_head, time_tail;  ///< first / last tenth of the stream
  Counts counts;
  /// First episode only: the first ok `time` response per design x model
  /// and the eco responses the gate checks.
  std::map<std::string, std::string> time_responses;
  std::vector<std::pair<std::size_t, std::string>> eco_responses;
  /// A benchmark-side failure on the client thread (handle_line itself
  /// never throws), rethrown on the main thread after the join.
  std::exception_ptr error;

  void merge(const ClientOut& o) {
    time.append(o.time);
    explain.append(o.explain);
    stats.append(o.stats);
    eco.append(o.eco);
    time_head.append(o.time_head);
    time_tail.append(o.time_tail);
    counts.merge(o.counts);
  }
};

std::unique_ptr<sldm::DelayModel> make_model(
    const std::string& name, const std::shared_ptr<const sldm::SlopeTables>& t) {
  if (name == "rc-tree") return std::make_unique<sldm::RcTreeModel>();
  if (name == "lumped") return std::make_unique<sldm::LumpedRcModel>();
  return std::make_unique<sldm::SlopeModel>(*t);
}

/// Untimed decomposition of one reader request into its layer calls.
///
/// Session::run() ends by publishing a new snapshot into the hub, as the
/// request's own session did, so each decomposed request adds one extra
/// snapshot (decomposing every kDecomposeEvery-th request keeps that to
/// 1/kDecomposeEvery of the clients' own growth).  That publish scans
/// the whole hub -- util-layer cost, not propagation -- so it is timed
/// apart: the session publishes again right after run(), an equal-label
/// replace that walks the hub exactly as far and adds nothing, and
/// design.propagate_ms is run() minus that publish.
void decompose_reader(Tracer& tr, sldm::TimingService& svc,
                      const RequestSpec& spec, const std::string& line,
                      const std::string& fp, int parent, std::uint64_t id,
                      double op_s) {
  const double parse = timed(tr, "serve.parse_request", parent, id,
                             [&] { (void)sldm::parse_request(line); });
  if (spec.kind == RequestSpec::Kind::kStats) {
    const double agg =
        timed(tr, "util.telemetry_aggregate", parent, id,
              [&] { (void)sldm::TelemetryHub::instance().aggregate(); });
    tr.count("serve.stats_other_ms", (op_s - parse - agg) * 1e3);
    return;
  }
  sldm::TimingService::Lease lease;
  const double lease_s = timed(tr, "serve.lease", parent, id,
                               [&] { lease = svc.lease(fp); });
  const auto model = make_model(spec.model, lease.tables());
  std::optional<sldm::Session> session;
  const double run = timed(tr, "design.propagate", parent, id, [&] {
    session.emplace(lease.design(), *model);
    session->add_all_input_events(kSlope);
    session->run();
  });
  const double publish = timed(tr, "util.session_publish", parent, id,
                               [&] { session->publish_telemetry(); });
  const double prop = run - publish;
  tr.count("design.propagate_ms", prop * 1e3);
  tr.count("delay.stage_evaluations",
           static_cast<double>(session->stage_evaluations()));
  tr.count("design.batches", static_cast<double>(session->stats().batches));
  const sldm::Netlist& nl = session->netlist();
  if (spec.kind == RequestSpec::Kind::kTime) {
    const double rep = timed(tr, "timing.report", parent, id, [&] {
      (void)sldm::format_output_arrivals(nl, *session);
    });
    tr.count("serve.other_ms",
             (op_s - parse - lease_s - prop - publish - rep) * 1e3);
    return;
  }
  const double exp = timed(tr, "timing.explain", parent, id, [&] {
    const sldm::NodeId node = *nl.find_node(spec.node);
    const auto rise = session->arrival(node, sldm::Transition::kRise);
    const auto fall = session->arrival(node, sldm::Transition::kFall);
    const auto dir = (!fall || (rise && rise->time >= fall->time))
                         ? sldm::Transition::kRise
                         : sldm::Transition::kFall;
    (void)sldm::explain_json(nl, sldm::explain_arrival(*session, node, dir));
  });
  tr.count("serve.explain_other_ms",
           (op_s - parse - lease_s - prop - publish - exp) * 1e3);
}

/// Mirrors the writer's stream on a private analyzer so each eco can be
/// split into the layer calls the service makes for it.
struct EcoMirror {
  sldm::LoadedDesign loaded;
  sldm::RcTreeModel model;
  std::unique_ptr<sldm::TimingAnalyzer> analyzer;

  explicit EcoMirror(const std::string& sldc)
      : loaded(sldm::load_design_file(sldc)),
        analyzer(std::make_unique<sldm::TimingAnalyzer>(
            std::move(loaded.design), model)) {}

  void decompose(Tracer& tr, const std::string& script, int parent,
                 std::uint64_t id, double op_s) {
    sldm::TimingAnalyzer& a = *analyzer;
    // The mirror's publishes replace its own snapshot, which sits near
    // the front of the hub, so they cost next to nothing here; the
    // request's own publishes stay in serve.eco_other_ms.
    const double prop = timed(tr, "design.propagate", parent, id, [&] {
      a.reset();
      a.add_all_input_events(kSlope);
      a.run();
    });
    tr.count("design.propagate_ms", prop * 1e3);
    const double apply = timed(tr, "netlist.apply_eco", parent, id, [&] {
      std::istringstream in(script);
      sldm::apply_eco(in, a.mutable_netlist(), "<eco>");
    });
    const double update =
        timed(tr, "timing.eco_update", parent, id, [&] { a.update(); });
    const sldm::AnalyzerStats& st = a.stats();
    tr.count("timing.eco_dirty_cccs", static_cast<double>(st.dirty_cccs));
    tr.count("timing.eco_reextracted_stages",
             static_cast<double>(st.reextracted_stages));
    tr.count("timing.eco_reused_stages", static_cast<double>(st.reused_stages));
    tr.count("timing.eco_frontier_keys", static_cast<double>(st.frontier_keys));
    const double fp = timed(tr, "design.fingerprint", parent, id, [&] {
      (void)sldm::design_fingerprint(a.netlist(), a.tech());
    });
    const double rep = timed(tr, "timing.report", parent, id, [&] {
      (void)sldm::format_output_arrivals(a.netlist(), a);
    });
    tr.count("serve.eco_other_ms",
             (op_s - prop - apply - update - fp - rep) * 1e3);
  }
};

void record(Samples& s, Counts& counts, const std::string& err, double dt) {
  if (err.empty()) {
    s.add(dt);
    counts.ok();
  } else {
    s.add_failure();
    counts.fail(err);
  }
}

/// Sends `stats` `repeats` times, once every client has finished: the hub
/// does not grow in between, so every repeat folds the same snapshots.
void scrape(sldm::TimingService& svc, int repeats, Tracer* tr, ClientOut& out) {
  RequestSpec spec;
  spec.kind = RequestSpec::Kind::kStats;
  for (int r = 0; r < repeats; ++r) {
    const std::uint64_t id =
        static_cast<std::uint64_t>(kReaders + 1) * 1000000 + r;
    const std::string line = request_line(spec, id, {});
    std::optional<Span> span;
    if (tr) span.emplace(*tr, "serve.stats", -1, id);
    const double t0 = now_s();
    const std::string resp = svc.handle_line(line);
    const double dt = now_s() - t0;
    const std::string err = error_name(resp);
    record(out.stats, out.counts, err, dt);
    if (tr) {
      span->end();
      if (err.empty()) decompose_reader(*tr, svc, spec, line, "", span->id(), id, dt);
    }
  }
}

/// `late`, when set, is a barrier the readers meet at before the last
/// tenth of their streams (out.time_tail), so that tenth always runs
/// with every reader active.
void run_reader(sldm::TimingService& svc, const std::vector<RequestSpec>& stream,
                const std::vector<std::string>& fps, int client, bool keep,
                Tracer* tr, std::barrier<>* late, ClientOut& out,
                std::latch& go) {
  go.arrive_and_wait();
  const std::size_t n = stream.size();
  bool met = false;
  // A reader that leaves before the barrier (a benchmark-side exception)
  // drops out of it, so the others do not wait for it.
  struct Leave {
    std::barrier<>* late;
    const bool& met;
    ~Leave() {
      if (late && !met) late->arrive_and_drop();
    }
  } leave{late, met};
  for (std::size_t i = 0; i < n; ++i) {
    if (late && i == n - n / 10) {
      late->arrive_and_wait();
      met = true;
    }
    const RequestSpec& spec = stream[i];
    const std::uint64_t id = static_cast<std::uint64_t>(client) * 1000000 + i;
    const std::string line = request_line(spec, id, fps);
    const bool is_time = spec.kind == RequestSpec::Kind::kTime;
    std::optional<Span> span;
    if (tr) span.emplace(*tr, is_time ? "serve.time" : "serve.explain", -1, id);
    const double t0 = now_s();
    const std::string resp = svc.handle_line(line);
    const double dt = now_s() - t0;
    const std::string err = error_name(resp);
    if (is_time) {
      record(out.time, out.counts, err, dt);
      if (i < n / 10) {
        err.empty() ? out.time_head.add(dt) : out.time_head.add_failure();
      } else if (i >= n - n / 10) {
        err.empty() ? out.time_tail.add(dt) : out.time_tail.add_failure();
      }
      if (keep && err.empty()) {
        out.time_responses.emplace(fmt("d%d.%s", spec.design, spec.model.c_str()),
                                   resp);
      }
    } else {
      record(out.explain, out.counts, err, dt);
    }
    if (tr) {
      span->end();
      if (i % kDecomposeEvery == 0 && err.empty()) {
        decompose_reader(*tr, svc, spec, line,
                         fps[static_cast<std::size_t>(spec.design)], span->id(),
                         id, dt);
      }
    }
  }
}

void run_writer(sldm::TimingService& svc, const std::vector<std::string>& scripts,
                std::string fp, int check_every, bool keep, Tracer* tr,
                EcoMirror* mirror, ClientOut& out, std::latch& go) {
  go.arrive_and_wait();
  for (std::size_t k = 0; k < scripts.size(); ++k) {
    const std::uint64_t id = static_cast<std::uint64_t>(kReaders) * 1000000 + k;
    std::optional<Span> span;
    if (tr) span.emplace(*tr, "serve.eco", -1, id);
    const double t0 = now_s();
    const std::string resp = svc.handle_line(eco_line(scripts[k], id, fp));
    const double dt = now_s() - t0;
    const std::string err = error_name(resp);
    record(out.eco, out.counts, err, dt);
    if (err.empty()) fp = design_of(resp);
    if (keep && (k + 1) % static_cast<std::size_t>(check_every) == 0) {
      out.eco_responses.push_back({k, resp});
    }
    if (tr) {
      span->end();
      mirror->decompose(*tr, scripts[k], span->id(), id, dt);
    }
  }
}

struct EpisodeOut {
  ClientOut merged;  ///< the clients
  ClientOut after;   ///< the `stats` scrapes, sent once the clients finished
  std::map<std::string, std::string> time_responses;
  std::vector<std::pair<std::size_t, std::string>> eco_responses;
  double window_s = 0.0;  ///< from release of the clients to the last join
  double hub_snapshots = 0.0;
  double publish_us = 0.0;
};

EpisodeOut episode(const Prepared& p, const Shape& s, const Streams& st,
                   bool keep, Tracer* tr) {
  sldm::TelemetryHub& hub = sldm::TelemetryHub::instance();
  hub.clear();
  sldm::TimingService svc;
  const std::vector<std::string> fps = load_all(svc, p.readers);
  std::string writer_fp;
  std::optional<EcoMirror> mirror;
  if (s.writer) {
    writer_fp = load_all(svc, {p.writer}).front();
    if (tr) mirror.emplace(p.writer.sldc);
  }

  const int clients = kReaders + (s.writer ? 1 : 0);
  std::vector<ClientOut> outs(static_cast<std::size_t>(clients));
  std::latch go(clients + 1);
  // A client body only throws on a benchmark-side failure (handle_line
  // never does); the exception is carried here and rethrown after the
  // join.
  auto guarded = [](ClientOut* out, auto body) {
    return [out, body] {
      try {
        body();
      } catch (...) {
        out->error = std::current_exception();
      }
    };
  };
  std::barrier<> late_barrier(kReaders);
  std::barrier<>* late = s.sync_late ? &late_barrier : nullptr;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kReaders; ++c) {
    ClientOut* out = &outs[c];
    const std::vector<RequestSpec>* stream = &st.readers[c];
    threads.emplace_back(guarded(out, [&, c, out, stream] {
      run_reader(svc, *stream, fps, static_cast<int>(c), keep, tr, late, *out,
                 go);
    }));
  }
  if (s.writer) {
    ClientOut* out = &outs.back();
    EcoMirror* m = mirror ? &*mirror : nullptr;
    threads.emplace_back(guarded(out, [&, out, m] {
      run_writer(svc, st.eco, writer_fp, s.eco_check_every, keep, tr, m, *out,
                 go);
    }));
  }
  go.arrive_and_wait();
  const double start = now_s();
  for (std::thread& t : threads) t.join();
  for (const ClientOut& o : outs) {
    if (o.error) std::rethrow_exception(o.error);
  }

  EpisodeOut ep;
  ep.window_s = now_s() - start;
  scrape(svc, s.stats_repeats, tr, ep.after);
  for (const ClientOut& o : outs) {
    ep.merged.merge(o);
    ep.time_responses.insert(o.time_responses.begin(), o.time_responses.end());
    ep.eco_responses.insert(ep.eco_responses.end(), o.eco_responses.begin(),
                            o.eco_responses.end());
  }
  // Cost of one publish at the hub size the episode left behind: the
  // replace path scans every stored snapshot.
  ep.hub_snapshots = static_cast<double>(hub.snapshot_count());
  const sldm::MetricsRegistry empty;
  const sldm::TelemetryLabels labels("bench-probe", "-", 1);
  std::vector<double> publish;
  for (int i = 0; i < 21; ++i) {
    const double t0 = now_s();
    hub.publish(labels, empty);
    publish.push_back((now_s() - t0) * 1e6);
  }
  ep.publish_us = median_of(publish);
  return ep;
}

struct Phase {
  ClientOut all;    ///< the clients of every episode
  ClientOut after;  ///< what each episode sent after its clients finished
  double window_s = 0.0;
  double first_peak_mb = 0.0;  ///< peak RSS after the first episode
  std::vector<double> hub_snapshots, publish_us;
  EpisodeOut first;
  std::vector<std::string> first_eco;  ///< the first episode's edits
  /// Sampled around every untraced episode, while no client runs.
  HostProbe probe;
};

Phase run_episodes(const Prepared& p, const Shape& s, std::uint64_t seed,
                   double budget, Tracer* tr) {
  Phase ph;
  release_free_memory();
  const double start = now_s();
  double last = 0.0;
  int index = 0;
  do {
    const bool first = index == 0;
    const Streams st = streams_for(p, s, seed, index++);
    if (!tr) ph.probe.sample();
    const double e0 = now_s();
    EpisodeOut ep = episode(p, s, st, first, tr);
    ph.all.merge(ep.merged);
    ph.after.merge(ep.after);
    ph.window_s += ep.window_s;
    ph.hub_snapshots.push_back(ep.hub_snapshots);
    ph.publish_us.push_back(ep.publish_us);
    if (first) {
      ph.first = std::move(ep);
      ph.first_eco = st.eco;
      ph.first_peak_mb = peak_rss_mb();
    }
    last = now_s() - e0;
  } while (now_s() - start + last <= budget);
  if (!tr) ph.probe.sample();
  return ph;
}

/// The highest quantile up to `level` the sample count supports.
double tail(const Samples& s, double level) {
  const auto supported = highest_supported_level(s.size());
  if (!supported) return s.empty() ? 0.0 : s.quantile(1.0);
  return s.quantile(std::min(level, *supported));
}

double drift(const ClientOut& c) {
  if (c.time_head.empty() || c.time_tail.empty()) return 0.0;
  return c.time_tail.median() / c.time_head.median();
}

void gate(const Prepared& p, const Shape& s, const Phase& ph,
          const std::string& work_dir, RunResult& res) {
  const EpisodeOut& first = ph.first;
  const std::vector<std::string>& scripts = ph.first_eco;
  // Serve `time` reports are byte-equal to CLI output (FORMATS.md
  // section 14).
  for (const auto& [key, resp] : first.time_responses) {
    const sldm::JsonValue v = sldm::parse_json(resp);
    const auto dot = key.find('.');
    const std::size_t d = std::stoul(key.substr(1, dot - 1));
    const std::string model = key.substr(dot + 1);
    // The CLI over the same compiled design: a cold .sim run would
    // re-calibrate (see cold.cpp on table precision) and, for rc-tree and
    // lumped, analyze the uncalibrated technology -- a different design.
    const std::vector<std::string> args = {"time", "--load", p.readers[d].sldc,
                                           "--model", model};
    std::string cold;
    const int rc = cli(args, &cold);
    res.gate(rc == 0 && cold == v.at("report").as_string(),
             "serve time report differs from cold CLI for " + key);
    const sldm::JsonValue& worst = v.at("worst");
    res.digest.add("serve." + key + ".worst." + worst.at("node").as_string() +
                       "." + worst.at("dir").as_string(),
                   worst.at("time_s").as_number());
    res.digest.add("serve." + key + ".stage_evaluations",
                   v.at("stats").at("stage_evaluations").as_number());
  }
  if (!s.writer) return;

  // Every checked eco equals a rebuild of the edited netlist, at every
  // output bit for bit, and `sldm eco --verify` (incremental vs full
  // rebuild over every node) passes on the same edit.
  const sldm::LoadedDesign loaded = sldm::load_design_file(p.writer.sldc);
  const sldm::RcTreeModel model;
  sldm::Netlist nl = loaded.design->netlist();
  std::size_t next = 0;
  for (std::size_t k = 0; k < scripts.size() &&
                          next < first.eco_responses.size();
       ++k) {
    const bool check = first.eco_responses[next].first == k;
    if (check) {
      const std::string prev_sim = work_dir + "/eco_prev.sim";
      const std::string script = work_dir + "/eco_step.eco";
      sldm::write_sim_file(nl, prev_sim);
      std::ofstream(script) << scripts[k];
      std::string out;
      const int rc = cli({"eco", prev_sim, script, "--tech", "cmos",
                          "--model", "rc-tree", "--verify"},
                         &out);
      res.gate(rc == 0, fmt("sldm eco --verify failed on eco %zu", k));
    }
    std::istringstream in(scripts[k]);
    sldm::apply_eco(in, nl, "<eco>");
    if (!check) continue;
    sldm::TimingAnalyzer fresh(nl, loaded.design->tech(), model);
    fresh.add_all_input_events(kSlope);
    fresh.run();
    const sldm::JsonValue v = sldm::parse_json(first.eco_responses[next].second);
    std::size_t mismatches = 0;
    for (const sldm::JsonValue& a : v.at("arrivals").items()) {
      const auto node = nl.find_node(a.at("node").as_string());
      const auto dir = a.at("dir").as_string() == "rise"
                           ? sldm::Transition::kRise
                           : sldm::Transition::kFall;
      const auto b = node ? fresh.arrival(*node, dir) : std::nullopt;
      if (!b || b->time != a.at("time_s").as_number() ||
          b->slope != a.at("slope_s").as_number()) {
        ++mismatches;
      }
    }
    res.gate(mismatches == 0,
             fmt("serve eco %zu: %zu output arrival(s) differ from a rebuild",
                 k, mismatches));
    const sldm::JsonValue& worst = v.at("worst");
    res.digest.add(fmt("eco.%zu.worst", k), worst.at("time_s").as_number());
    ++next;
  }
}

}  // namespace

RunResult run_serve(const RunConfig& cfg) {
  RunResult res;
  const Shape s = shape_for(cfg.workload);
  double setup_s = 0.0;
  const Prepared p = prepare(cfg, s, &setup_s);

  const double budget = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  const Phase ph = run_episodes(p, s, cfg.seed, budget, nullptr);
  const ClientOut& c = ph.all;
  res.counts = c.counts;
  res.counts.merge(ph.after.counts);
  const Samples& k3 = s.writer ? c.eco : c.time_tail;
  const double rps = static_cast<double>(c.counts.attempted) / ph.window_s;
  set_end_to_end(res, s.scaled ? &ph.probe : nullptr, setup_s,
                 ph.first_peak_mb, rps, c.time, c.explain, k3);

  const double time_tail = tail(c.time, 0.99);
  const double eco_tail = tail(c.eco, 0.9);
  res.note(fmt("serve_rps %.1f  time_p50_ms %.3f  time_p%g_ms %.3f (n=%zu)  "
               "explain_p50_ms %.3f (n=%zu)",
               rps, c.time.median() * 1e3,
               100 * std::min(0.99, highest_supported_level(c.time.size())
                                        .value_or(1.0)),
               time_tail * 1e3, c.time.size(), c.explain.median() * 1e3,
               c.explain.size()));
  if (s.writer) {
    res.note(fmt("eco_p50_ms %.3f  eco_p90_ms %.3f (n=%zu)",
                 c.eco.median() * 1e3, eco_tail * 1e3, c.eco.size()));
  } else {
    res.note(fmt("late time_p50_ms %.3f (n=%zu)  stats_p50_ms %.3f (n=%zu, "
                 "after each episode)",
                 c.time_tail.median() * 1e3, c.time_tail.size(),
                 ph.after.stats.median() * 1e3, ph.after.stats.size()));
  }
  res.note(fmt("episodes %zu  hub drift (last/first tenth time p50) %.3f  "
               "hub snapshots at episode end %.0f  publish %.1f us",
               ph.hub_snapshots.size(), drift(c), median_of(ph.hub_snapshots),
               median_of(ph.publish_us)));

  if (cfg.trace) {
    Tracer tracer(true);
    const Phase traced = run_episodes(p, s, cfg.seed, cfg.seconds / 2, &tracer);
    // Tails, drift and hub size come from the untraced phase; the traced
    // phase supplies the layer split and the overhead.
    tracer.count("serve.time_p99_ms", time_tail * 1e3);
    if (s.writer) tracer.count("serve.eco_p90_ms", eco_tail * 1e3);
    tracer.count("serve.drift_ratio", drift(c));
    tracer.count("util.telemetry_snapshots", median_of(ph.hub_snapshots));
    tracer.count("util.telemetry_publish_us", median_of(ph.publish_us));
    // The overhead compares the first tenth of each client's `time`
    // requests, before the decomposition's extra snapshots (see
    // decompose_reader) have grown the traced hub past the untraced one.
    tracer.count("bench.trace_overhead_pct",
                 100.0 * (traced.all.time_head.median() /
                              c.time_head.median() -
                          1.0));
    collect_layers(tracer, res);
  }

  gate(p, s, ph, cfg.work_dir, res);
  return res;
}

}  // namespace perfbench

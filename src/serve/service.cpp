#include "serve/service.h"

#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "calib/calibrate.h"
#include "delay/bounds.h"
#include "delay/lumped.h"
#include "delay/rctree.h"
#include "delay/slope.h"
#include "delay/unit.h"
#include "design/session.h"
#include "design/snapshot.h"
#include "netlist/eco_io.h"
#include "netlist/sim_io.h"
#include "serve/protocol.h"
#include "tech/tech_io.h"
#include "timing/analyzer.h"
#include "timing/explain.h"
#include "timing/report.h"
#include "util/cancel.h"
#include "util/failpoint.h"
#include "util/json.h"
#include "util/ledger.h"
#include "util/strings.h"
#include "util/telemetry.h"
#include "util/version.h"

namespace sldm {

/// The analysis the last successful eco left on a design, kept so the
/// next eco with the same key answers with update() alone instead of a
/// full propagate of the pre-edit design.  The key is everything that
/// shapes the arrivals besides the design: model token, input slope and
/// thread count (threads cannot change an answer, but they size the
/// analyzer's re-extraction in update()).
struct WarmEco {
  std::string model;
  double slope_ns = 0.0;
  int threads = 1;
  std::unique_ptr<DelayModel> delay_model;
  std::unique_ptr<TimingAnalyzer> analyzer;

  bool serves(const ServeRequest& req) const {
    return req.model == model && req.slope_ns == slope_ns &&
           req.threads == threads;
  }
};

struct TimingService::Lease::CacheEntry {
  std::shared_ptr<CompiledDesign> design;
  std::shared_ptr<const SlopeTables> tables;  ///< slope calibration, if any
  std::atomic<int> active{0};  ///< outstanding reader leases
  std::uint64_t last_used = 0;
  /// Touched only by an eco that took the entry out of the cache (or by
  /// a load that drops it under mutex_), so it needs no lock of its own.
  /// Its analyzer shares `design`, which is why the eco releases this
  /// entry's pointer before update(): the single-writer use_count check
  /// then sees exactly the analyzer and its session.
  std::unique_ptr<WarmEco> warm;
};

namespace {

using namespace serve_errors;

std::string fingerprint_hex(std::uint64_t fp) {
  return format("%016llx", static_cast<unsigned long long>(fp));
}

/// Mirror of the CLI's tech loading: preset name or .tech file path.
Tech load_tech_spec(const std::string& spec) {
  if (spec == "nmos") return nmos4();
  if (spec == "cmos") return cmos3();
  return read_tech_file(spec);
}

Style style_for(const Tech& tech) {
  return tech.has(TransistorType::kPEnhancement) ? Style::kCmos
                                                 : Style::kNmos;
}

bool known_model(const std::string& name) {
  return name == "slope" || name == "lumped" || name == "rc-tree" ||
         name == "rph-upper" || name == "unit";
}

/// Whether an eco under `model` may leave a warm analysis behind.
/// update() equals a rebuild only when a stage's delay ignores its
/// input slope (DESIGN.md "Incrementality invariant"); under `slope` a
/// kept analysis would carry one update's divergence into every later
/// eco, so each slope eco takes the cold path: run(), apply, update().
bool keeps_warm_state(const std::string& model) {
  return model == "rc-tree" || model == "lumped" || model == "rph-upper" ||
         model == "unit";
}

/// Builds the per-request delay model.  Construction mirrors the CLI's
/// make_model exactly -- same classes, same parameters -- which is half
/// of the cold-run parity contract (the other half is that the design
/// was compiled with the same tech transformation at load time).
std::unique_ptr<DelayModel> make_request_model(
    const std::string& name,
    const std::shared_ptr<const SlopeTables>& tables) {
  if (name == "lumped") return std::make_unique<LumpedRcModel>();
  if (name == "rc-tree") return std::make_unique<RcTreeModel>();
  if (name == "rph-upper") {
    return std::make_unique<RphBoundsModel>(RphBoundsModel::Mode::kUpper);
  }
  if (name == "unit") return std::make_unique<UnitDelayModel>(1e-9);
  if (name != "slope") {
    throw RequestError(kBadRequest, "unknown model '" + name + "'");
  }
  if (!tables) {
    throw RequestError(kFailed,
                       "design carries no slope calibration tables; load "
                       "it with \"model\":\"slope\" (or from a "
                       "slope-compiled .sldc), or request another model");
  }
  return std::make_unique<SlopeModel>(*tables);
}

std::ostream& begin_response(std::ostream& os, const ServeRequest& req,
                             const char* kind) {
  os << '{';
  if (!req.id_token.empty()) os << "\"id\":" << req.id_token << ',';
  os << "\"kind\":\"" << kind << "\",\"ok\":true";
  return os;
}

/// Exactly the cold `sldm time` stdout for this analysis, so the
/// parity check is a byte compare.
std::string report_text(const std::string& model_name, const Netlist& nl,
                        const Session& session) {
  return "model: " + model_name + "\n\n" +
         format_output_arrivals(nl, session) + "\n";
}

std::string arrivals_json(const Netlist& nl, const Session& session) {
  std::ostringstream os;
  os << '[';
  bool first = true;
  for (NodeId n : nl.all_nodes()) {
    if (!nl.node(n).is_output) continue;
    for (const Transition dir : {Transition::kRise, Transition::kFall}) {
      const auto a = session.arrival(n, dir);
      if (!a) continue;
      if (!first) os << ',';
      first = false;
      os << "{\"node\":\"" << json_escape(nl.node(n).name.str())
         << "\",\"dir\":\"" << to_string(dir)
         << "\",\"time_s\":" << json_number(a->time)
         << ",\"slope_s\":" << json_number(a->slope) << '}';
    }
  }
  os << ']';
  return os.str();
}

void append_worst(std::ostream& os, const Netlist& nl,
                  const Session& session) {
  if (const auto w = session.worst_arrival(true)) {
    os << ",\"worst\":{\"node\":\"" << json_escape(nl.node(w->node).name.str())
       << "\",\"dir\":\"" << to_string(w->dir)
       << "\",\"time_s\":" << json_number(w->time) << '}';
  }
}

/// A ledger record for a finished serve-side analysis (same fields
/// note_analysis fills on the CLI path); `st` is the request's own
/// share of the session's work.
LedgerRecord session_record(const char* kind, const Session& session,
                            const AnalyzerStats& st,
                            std::uint64_t fingerprint,
                            const std::string& model) {
  LedgerRecord r;
  r.kind = kind;
  r.version = sldm_version();
  r.outcome = "ok";
  r.detail = "serve";
  r.fingerprint = fingerprint;
  r.model = model;
  r.threads = st.threads;
  r.extract_seconds = st.extract_seconds;
  r.propagate_seconds = st.propagate_seconds;
  r.update_seconds = st.update_seconds;
  r.stage_evaluations = st.stage_evaluations;
  if (const auto w = session.worst_arrival(true)) {
    r.has_critical = true;
    r.critical_node = session.netlist().node(w->node).name.str();
    r.critical_dir = to_string(w->dir);
    r.critical_arrival_s = w->time;
  }
  return r;
}

/// The share of a session's work one request did: the session's
/// stats after the request, minus its counters from before it.  A warm
/// eco session lives across requests, so without this each response
/// would repeat its predecessors' work and break the FORMATS.md
/// section 14 `stats` conservation rule.  propagate_seconds is kept
/// only when the request itself ran the full propagate.
AnalyzerStats request_share(AnalyzerStats st, const AnalyzerStats& before,
                            bool ran_propagate) {
  st.stage_evaluations -= before.stage_evaluations;
  st.worklist_pushes -= before.worklist_pushes;
  st.arrival_updates -= before.arrival_updates;
  st.batches -= before.batches;
  st.incremental_updates -= before.incremental_updates;
  st.mean_batch_size =
      st.batches == 0 ? 0.0
                      : static_cast<double>(st.stage_evaluations) /
                            static_cast<double>(st.batches);
  if (!ran_propagate) st.propagate_seconds = 0.0;
  return st;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// The effective deadline for one request: the request's own
/// deadline_ms when present, else the server-wide default; an inert
/// token when neither is set.
CancelToken deadline_for(const ServeRequest& req, const ServeOptions& opts) {
  const double ms =
      req.deadline_ms > 0.0 ? req.deadline_ms : opts.default_deadline_ms;
  return ms > 0.0 ? CancelToken::deadline_after(ms * 1e-3) : CancelToken();
}

}  // namespace

// ---- Lease ---------------------------------------------------------------

TimingService::Lease::Lease(std::shared_ptr<CacheEntry> entry)
    : entry_(std::move(entry)) {}

TimingService::Lease& TimingService::Lease::operator=(Lease&& o) noexcept {
  if (this != &o) {
    release();
    entry_ = std::move(o.entry_);
  }
  return *this;
}

void TimingService::Lease::release() {
  if (!entry_) return;
  entry_->active.fetch_sub(1, std::memory_order_acq_rel);
  entry_.reset();
}

std::shared_ptr<const CompiledDesign> TimingService::Lease::design() const {
  return entry_ ? entry_->design : nullptr;
}

std::shared_ptr<const SlopeTables> TimingService::Lease::tables() const {
  return entry_ ? entry_->tables : nullptr;
}

// ---- Cache ---------------------------------------------------------------

TimingService::TimingService(ServeOptions options)
    : options_(std::move(options)) {
  if (options_.cache_capacity < 1) {
    throw Error("serve cache capacity must be >= 1");
  }
  TelemetryHub::instance().enable();
}

TimingService::Lease TimingService::lease(const std::string& fingerprint) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = cache_.find(fingerprint);
  if (it == cache_.end()) {
    throw RequestError(kUnknownDesign,
                       "design '" + fingerprint +
                           "' is not loaded (load it first; it may also "
                           "have been evicted or rewritten by an eco)");
  }
  it->second->last_used = ++use_clock_;
  it->second->active.fetch_add(1, std::memory_order_acq_rel);
  return Lease(it->second);
}

void TimingService::insert_entry(const std::string& fingerprint,
                                 std::shared_ptr<Lease::CacheEntry> entry) {
  // Injected "cache.insert" refuses before any state changes, so the
  // cache is exactly as consistent as if the request never arrived (the
  // design simply is not cached; the caller's envelope says why).
  // Evaluated before taking the lock so an injected delay never holds
  // mutex_.
  failpoint("cache.insert");
  // Victims die after the lock is released: an entry may carry a warm
  // eco analysis, whose teardown has no business holding mutex_.
  std::vector<std::shared_ptr<Lease::CacheEntry>> evicted;
  std::lock_guard<std::mutex> lock(mutex_);
  entry->last_used = ++use_clock_;
  std::shared_ptr<Lease::CacheEntry>& slot = cache_[fingerprint];
  if (slot && slot != entry) evicted.push_back(std::move(slot));
  slot = entry;
  // LRU eviction, skipping leased entries (their readers must stay
  // valid) and the entry just inserted.
  while (cache_.size() >
         static_cast<std::size_t>(options_.cache_capacity)) {
    auto victim = cache_.end();
    for (auto it = cache_.begin(); it != cache_.end(); ++it) {
      if (it->second == entry) continue;
      if (it->second->active.load(std::memory_order_acquire) > 0) continue;
      if (victim == cache_.end() ||
          it->second->last_used < victim->second->last_used) {
        victim = it;
      }
    }
    if (victim == cache_.end()) break;  // everything is leased
    // Injected "cache.evict" leaves the victim cached: the insert above
    // already happened, so the cache ends over capacity but internally
    // consistent -- every entry still resolves and leases still pin.
    failpoint("cache.evict");
    evicted.push_back(std::move(victim->second));
    cache_.erase(victim);
  }
}

std::shared_ptr<TimingService::Lease::CacheEntry> TimingService::take_for_eco(
    const std::string& fingerprint) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = cache_.find(fingerprint);
  if (it == cache_.end()) {
    throw RequestError(kUnknownDesign,
                       "design '" + fingerprint + "' is not loaded");
  }
  if (it->second->active.load(std::memory_order_acquire) > 0) {
    throw RequestError(kEcoShared,
                       "design '" + fingerprint +
                           "' is shared by in-flight requests; an eco "
                           "needs exclusive ownership -- retry when they "
                           "drain");
  }
  auto entry = it->second;
  cache_.erase(it);
  return entry;
}

std::size_t TimingService::design_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cache_.size();
}

void TimingService::append_ledger(const LedgerRecord& record) {
  if (options_.ledger_path.empty()) return;
  std::lock_guard<std::mutex> lock(ledger_mutex_);
  // Best-effort by design, like the CLI's LedgerScope: a failing ledger
  // append must not fail the request it describes.  It is *surfaced*,
  // though -- try_append bumps ledger.append_failures and warns once --
  // so operators see silent history loss instead of discovering it at
  // the next `sldm ledger` read.
  try_append_ledger_record(options_.ledger_path, record);
}

void TimingService::publish_service_metrics() {
  TelemetryHub& hub = TelemetryHub::instance();
  if (!hub.enabled()) return;
  MetricsRegistry reg;
  reg.counter("serve.requests")
      .set(static_cast<std::size_t>(requests_.load(std::memory_order_relaxed)));
  reg.counter("serve.errors")
      .set(static_cast<std::size_t>(errors_.load(std::memory_order_relaxed)));
  reg.counter("serve.overloaded").set(
      static_cast<std::size_t>(overloads_.load(std::memory_order_relaxed)));
  reg.gauge("serve.designs").set(static_cast<double>(design_count()));
  TelemetryLabels labels;
  labels.session = "serve";
  labels.model = "-";
  hub.publish(labels, reg);
}

// ---- Request handlers ----------------------------------------------------

struct TimingService::ServeRequestDispatch {
  static std::string load(TimingService& svc, const ServeRequest& req) {
    if (!known_model(req.model)) {
      throw RequestError(kBadRequest, "unknown model '" + req.model + "'");
    }
    std::shared_ptr<CompiledDesign> design;
    std::shared_ptr<const SlopeTables> tables;
    if (ends_with(req.path, ".sldc")) {
      LoadedDesign loaded = load_design_file(req.path);
      design = std::move(loaded.design);
      if (loaded.slope_tables) {
        tables =
            std::make_shared<SlopeTables>(std::move(*loaded.slope_tables));
      }
    } else {
      Netlist nl = read_sim_file(req.path);
      Tech tech = load_tech_spec(req.tech.empty() ? svc.options_.default_tech
                                                  : req.tech);
      if (req.model == "slope") {
        // Same deterministic in-process calibration the cold CLI runs
        // (and that `sldm compile` bakes into .sldc): calibration
        // rewrites the tech, so skipping it here would change the
        // fingerprint and the arrivals.
        CalibrationResult cal = calibrate(tech, style_for(tech));
        tech = cal.tech;
        tables = std::make_shared<SlopeTables>(std::move(cal.tables));
      }
      design = CompiledDesign::compile_owned(std::move(nl), std::move(tech),
                                             CompileOptions{{}, req.threads});
    }

    const std::uint64_t fp =
        design_fingerprint(design->netlist(), design->tech());
    const std::string fp_hex = fingerprint_hex(fp);
    bool cached = false;
    std::unique_ptr<WarmEco> dropped;  // destroyed after the lock
    {
      std::lock_guard<std::mutex> lock(svc.mutex_);
      const auto it = svc.cache_.find(fp_hex);
      if (it != svc.cache_.end()) {
        // Equal fingerprints mean bit-identical analyses: keep the
        // cached entry (readers may hold leases on it) and just adopt
        // the calibration tables if the earlier load lacked them.  A
        // load starts the design afresh, so its warm eco state goes.
        cached = true;
        if (!it->second->tables && tables) it->second->tables = tables;
        it->second->last_used = ++svc.use_clock_;
        dropped = std::move(it->second->warm);
      }
    }
    if (!cached) {
      auto entry = std::make_shared<Lease::CacheEntry>();
      entry->design = design;
      entry->tables = tables;
      svc.insert_entry(fp_hex, entry);

      LedgerRecord r;
      r.kind = "compile";
      r.version = sldm_version();
      r.outcome = "ok";
      r.detail = "serve";
      r.source = req.path;
      r.model = req.model;
      r.threads = design->build_threads();
      r.fingerprint = fp;
      r.extract_seconds = design->extract_seconds();
      svc.append_ledger(r);
    }

    std::ostringstream os;
    begin_response(os, req, "load")
        << ",\"design\":\"" << fp_hex << "\",\"source\":\""
        << json_escape(req.path) << "\",\"nodes\":"
        << design->netlist().node_count()
        << ",\"devices\":" << design->netlist().device_count()
        << ",\"cccs\":" << design->components().count()
        << ",\"stages\":" << design->stages().size()
        << ",\"tables\":" << (tables ? "true" : "false")
        << ",\"cached\":" << (cached ? "true" : "false") << '}';
    return os.str();
  }

  /// Shared body of time/explain: lease, model, session, seed, run.
  struct Analysis {
    Lease lease;
    std::unique_ptr<DelayModel> model;
    std::unique_ptr<Session> session;
  };

  static Analysis run_analysis(TimingService& svc, const ServeRequest& req,
                               const char* request_label) {
    Analysis a;
    a.lease = svc.lease(req.design);
    a.model = make_request_model(req.model, a.lease.tables());
    a.session = std::make_unique<Session>(a.lease.design(), *a.model);
    a.session->set_telemetry_request(request_label);
    a.session->add_all_input_events(req.slope_ns * 1e-9);
    const CancelToken deadline = deadline_for(req, svc.options_);
    if (deadline.armed()) {
      // The token is a stack local and Analysis outlives this frame, so
      // the session must be detached before it escapes -- on the throw
      // path the whole Analysis (lease included) unwinds instead, which
      // is exactly the "partial state discarded, lease released"
      // contract of the deadline envelope.
      a.session->set_cancel_token(&deadline);
      try {
        a.session->run();
      } catch (...) {
        a.session->set_cancel_token(nullptr);
        throw;
      }
      a.session->set_cancel_token(nullptr);
    } else {
      a.session->run();
    }
    return a;
  }

  static std::string time(TimingService& svc, const ServeRequest& req) {
    const Analysis a = run_analysis(svc, req, "time");
    const Session& session = *a.session;
    const Netlist& nl = session.netlist();
    svc.append_ledger(session_record("run", session, session.stats(),
                                     parse_hex_u64(req.design).value_or(0),
                                     a.model->name()));

    std::ostringstream os;
    begin_response(os, req, "time")
        << ",\"design\":\"" << req.design << "\",\"model\":\""
        << json_escape(a.model->name()) << "\",\"report\":\""
        << json_escape(report_text(a.model->name(), nl, session))
        << "\",\"arrivals\":" << arrivals_json(nl, session);
    append_worst(os, nl, session);
    os << ",\"stats\":" << analyzer_stats_json(session.stats()) << '}';
    return os.str();
  }

  static std::string explain(TimingService& svc, const ServeRequest& req) {
    const Analysis a = run_analysis(svc, req, "explain");
    const Session& session = *a.session;
    const Netlist& nl = session.netlist();

    const auto node = nl.find_node(req.node);
    if (!node) {
      throw RequestError(kBadRequest, "unknown node '" + req.node + "'");
    }
    Transition dir;
    if (req.dir == "rise") {
      dir = Transition::kRise;
    } else if (req.dir == "fall") {
      dir = Transition::kFall;
    } else {
      // Default to the later (worst) arrival, like the cold CLI.
      const auto rise = session.arrival(*node, Transition::kRise);
      const auto fall = session.arrival(*node, Transition::kFall);
      if (!rise && !fall) {
        throw RequestError(kFailed,
                           "no arrival at node '" + req.node +
                               "'; it never switches under the declared "
                               "events");
      }
      dir = (!fall || (rise && rise->time >= fall->time))
                ? Transition::kRise
                : Transition::kFall;
    }
    if (!session.arrival(*node, dir)) {
      throw RequestError(kFailed, "no " + std::string(to_string(dir)) +
                                      " arrival at node '" + req.node + "'");
    }
    const ExplainReport report = explain_arrival(session, *node, dir);

    std::ostringstream os;
    begin_response(os, req, "explain")
        << ",\"design\":\"" << req.design << "\",\"model\":\""
        << json_escape(a.model->name())
        // The embedded object is byte-for-byte what cold
        // `sldm explain --json` prints (minus the newline).
        << "\",\"explain\":" << explain_json(nl, report) << '}';
    return os.str();
  }

  /// Starts the analysis an eco runs on a miss: a fresh analyzer over
  /// the entry's design, seeded like a `time` request.  The design
  /// pointer is moved in only once the model exists (a model that
  /// cannot be built leaves the entry intact for the salvage), so
  /// use_count lands at exactly facade + session and the single-writer
  /// check in update() stays armed.
  static std::unique_ptr<WarmEco> start_eco_analysis(
      Lease::CacheEntry& entry, const ServeRequest& req) {
    auto warm = std::make_unique<WarmEco>();
    warm->model = req.model;
    warm->slope_ns = req.slope_ns;
    warm->threads = req.threads;
    warm->delay_model = make_request_model(req.model, entry.tables);
    warm->analyzer = std::make_unique<TimingAnalyzer>(
        std::move(entry.design), *warm->delay_model,
        AnalyzerOptions{{}, 64, req.threads});
    warm->analyzer->session().set_telemetry_request("eco");
    warm->analyzer->add_all_input_events(req.slope_ns * 1e-9);
    return warm;
  }

  static std::string eco(TimingService& svc, const ServeRequest& req) {
    const auto entry = svc.take_for_eco(req.design);
    const std::weak_ptr<CompiledDesign> master = entry->design;
    const std::uint64_t pristine = entry->design->netlist().revision();
    // A warm analysis with this request's key is the pre-edit state
    // already propagated; anything else is dropped here and rebuilt.
    std::unique_ptr<WarmEco> warm = std::move(entry->warm);
    const bool hit = warm && warm->serves(req);
    if (!hit) warm.reset();
    // Lent to the analyzer and detached on every exit path below,
    // before the analyzer can reach another request through the cache.
    const CancelToken deadline = deadline_for(req, svc.options_);

    bool propagated = hit;  // the analyzer holds the pre-edit arrivals
    AnalyzerStats before;
    std::size_t applied = 0;
    try {
      if (hit) {
        // The analyzer already shares the design; the entry's pointer
        // would be a third reference and trip update()'s backstop.
        entry->design.reset();
      } else {
        warm = start_eco_analysis(*entry, req);
      }
      TimingAnalyzer& analyzer = *warm->analyzer;
      before = analyzer.stats();
      if (deadline.armed()) analyzer.set_cancel_token(&deadline);
      if (!propagated) {
        analyzer.run();
        propagated = true;
      }
      if (!req.script.empty()) {
        std::istringstream script(req.script);
        applied = apply_eco(script, analyzer.mutable_netlist(),
                            "<eco-request>");
      } else {
        applied = apply_eco_file(req.path, analyzer.mutable_netlist());
      }
      analyzer.update();
      analyzer.set_cancel_token(nullptr);
    } catch (...) {
      if (warm) warm->analyzer->set_cancel_token(nullptr);
      // A failure after the script mutated the netlist loses the design
      // and its analysis (re-load it).  Before that the design is
      // pristine: it goes back under its old fingerprint, and so does a
      // completed pre-edit analysis.
      if (auto design = master.lock();
          design && design->netlist().revision() == pristine) {
        entry->design = std::move(design);
        if (!propagated || !keeps_warm_state(req.model)) warm.reset();
        entry->warm = std::move(warm);
        svc.insert_entry(req.design, entry);
      }
      throw;
    }

    const TimingAnalyzer& analyzer = *warm->analyzer;
    const Session& session = analyzer.session();
    const Netlist& nl = analyzer.netlist();
    const std::uint64_t new_fp = design_fingerprint(nl, analyzer.tech());
    const std::string new_hex = fingerprint_hex(new_fp);
    const AnalyzerStats st = request_share(session.stats(), before, !hit);
    const std::string model_name = warm->delay_model->name();

    LedgerRecord r =
        session_record("eco", session, st, new_fp, model_name);
    r.detail = format("serve: %zu edit(s)", applied);
    svc.append_ledger(r);

    std::ostringstream os;
    begin_response(os, req, "eco")
        << ",\"design\":\"" << new_hex << "\",\"was\":\"" << req.design
        << "\",\"applied\":" << applied << ",\"model\":\""
        << json_escape(model_name) << "\",\"threads\":" << req.threads
        << ",\"report\":\""
        << json_escape(report_text(model_name, nl, session))
        << "\",\"arrivals\":" << arrivals_json(nl, session);
    append_worst(os, nl, session);
    os << ",\"stats\":" << analyzer_stats_json(st) << '}';

    // Re-adopt the master pointer (the analyzer still holds it, so the
    // weak_ptr is live) and publish the rewritten design, with the
    // analysis that now describes it, under its new identity; the old
    // fingerprint now reports unknown-design.  An analysis that is not
    // kept dies before the entry is visible again, so the next eco's
    // update() never sees its reference to the design.
    entry->design = master.lock();
    if (!keeps_warm_state(req.model)) warm.reset();
    entry->warm = std::move(warm);
    svc.insert_entry(new_hex, entry);
    return os.str();
  }

  static std::string stats(TimingService& svc, const ServeRequest& req) {
    std::ostringstream os;
    begin_response(os, req, "stats")
        << ",\"designs\":" << svc.design_count()
        << ",\"requests\":" << svc.requests_handled()
        << ",\"errors\":" << svc.errors_returned()
        << ",\"overloaded\":" << svc.overloads_rejected() << ",\"telemetry\":"
        << TelemetryHub::instance().aggregate().to_json() << '}';
    return os.str();
  }

  static std::string shutdown(TimingService& svc, const ServeRequest& req) {
    svc.shutdown_.store(true, std::memory_order_release);
    std::ostringstream os;
    begin_response(os, req, "shutdown") << '}';
    return os.str();
  }
};

std::string TimingService::handle_line(const std::string& line) {
  ServeRequest req;
  try {
    req = parse_request(line);
  } catch (const RequestError& e) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    requests_.fetch_add(1, std::memory_order_relaxed);
    publish_service_metrics();
    return error_response(request_id_token(line), e.name(), e.what());
  }

  std::string response;
  try {
    // Injected "serve.request": error fails the whole request with a
    // "failed" envelope before any handler state is touched; delay
    // models a slow handler (and, under a deadline, pushes the request
    // past it).
    failpoint("serve.request");
    switch (req.kind) {
      case RequestKind::kLoad:
        response = ServeRequestDispatch::load(*this, req);
        break;
      case RequestKind::kTime:
        response = ServeRequestDispatch::time(*this, req);
        break;
      case RequestKind::kExplain:
        response = ServeRequestDispatch::explain(*this, req);
        break;
      case RequestKind::kEco:
        response = ServeRequestDispatch::eco(*this, req);
        break;
      case RequestKind::kStats:
        response = ServeRequestDispatch::stats(*this, req);
        break;
      case RequestKind::kShutdown:
        response = ServeRequestDispatch::shutdown(*this, req);
        break;
    }
  } catch (const RequestError& e) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    response = error_response(req.id_token, e.name(), e.what());
  } catch (const CancelledError& e) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    response = error_response(req.id_token, kDeadline, e.what());
  } catch (const Error& e) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    response = error_response(req.id_token, kFailed, e.what());
  } catch (const std::exception& e) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    response = error_response(req.id_token, kFailed, e.what());
  }
  requests_.fetch_add(1, std::memory_order_relaxed);
  publish_service_metrics();
  return response;
}

std::string TimingService::overload_response(const std::string& line) {
  overloads_.fetch_add(1, std::memory_order_relaxed);
  errors_.fetch_add(1, std::memory_order_relaxed);
  publish_service_metrics();
  return error_response(request_id_token(line), kOverloaded,
                        "server is at its --max-inflight admission limit; "
                        "retry after in-flight requests drain");
}

std::string TimingService::too_large_response(const std::string& line_prefix,
                                              std::size_t limit) {
  errors_.fetch_add(1, std::memory_order_relaxed);
  requests_.fetch_add(1, std::memory_order_relaxed);
  publish_service_metrics();
  return error_response(
      request_id_token_prefix(line_prefix), kTooLarge,
      format("request line exceeds --max-line-bytes (%zu); split the "
             "request or raise the limit",
             limit));
}

}  // namespace sldm

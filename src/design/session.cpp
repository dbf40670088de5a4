#include "design/session.h"

#include <algorithm>
#include <atomic>

#include "util/contracts.h"
#include "util/error.h"
#include "util/strings.h"
#include "util/telemetry.h"
#include "util/trace.h"

namespace sldm {
namespace {

/// Dense process-unique session ids for the telemetry `session` label.
std::uint64_t next_session_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

Session::Session(std::shared_ptr<const CompiledDesign> design,
                 const DelayModel& model, SessionOptions options)
    : model_(model),
      design_(std::move(design)),
      options_(options),
      session_id_(next_session_id()) {
  SLDM_EXPECTS(design_ != nullptr);
  model_.require_covers(design_->stage_store());
  const std::size_t nkeys = design_->netlist().node_count() * 2;
  arrival_time_.assign(nkeys, 0.0);
  arrival_slope_.assign(nkeys, 0.0);
  arrival_from_.assign(nkeys, UINT32_MAX);
  arrival_via_.assign(nkeys, SIZE_MAX);
  arrival_valid_.assign(nkeys, 0);
  update_counts_.assign(nkeys, 0);
  refresh_census();
  refresh_fan_in();
}

void Session::refresh_census() {
  stats_.ccc_count = design_->components().count();
  stats_.widest_ccc = design_->components().widest();
  stats_.stage_count = design_->stages().size();
  stats_.threads = design_->build_threads();
  stats_.extract_seconds = design_->extract_seconds();
}

void Session::refresh_fan_in() {
  // Fan-in census of the *current* structure: one sample per trigger
  // key that fires at least one stage (rebuilt, not accumulated, so
  // the distribution tracks the latest stage set after an ECO update).
  h_fan_in_.reset();
  const TriggerIndex& by_trigger = design_->stages_by_trigger();
  for (std::size_t k = 0; k < by_trigger.key_count(); ++k) {
    const std::size_t fan_in = by_trigger[k].size();
    if (fan_in != 0) h_fan_in_.add(static_cast<double>(fan_in));
  }
}

const MetricsRegistry& Session::metrics() const {
  metrics_.counter("propagate.stage_evaluations")
      .set(stats_.stage_evaluations);
  metrics_.counter("propagate.worklist_pushes").set(stats_.worklist_pushes);
  metrics_.counter("propagate.arrival_updates").set(stats_.arrival_updates);
  metrics_.counter("propagate.batches").set(stats_.batches);
  metrics_.counter("eco.updates").set(stats_.incremental_updates);
  metrics_.gauge("extract.seconds").set(stats_.extract_seconds);
  metrics_.gauge("propagate.seconds").set(stats_.propagate_seconds);
  metrics_.gauge("eco.update_seconds").set(stats_.update_seconds);
  metrics_.gauge("eco.dirty_cccs").set(static_cast<double>(stats_.dirty_cccs));
  metrics_.gauge("eco.reextracted_stages")
      .set(static_cast<double>(stats_.reextracted_stages));
  metrics_.gauge("eco.reused_stages")
      .set(static_cast<double>(stats_.reused_stages));
  metrics_.gauge("eco.frontier_keys")
      .set(static_cast<double>(stats_.frontier_keys));
  metrics_.gauge("propagate.max_batch_size")
      .set(static_cast<double>(stats_.max_batch_size));
  metrics_.histogram("propagate.batch_size", 0.0, 4096.0, 16) =
      h_batch_size_;
  metrics_.histogram("extract.stage_fan_in", 0.0, 64.0, 16) = h_fan_in_;
  metrics_.histogram("propagate.rc_path_depth", 0.0, 16.0, 16) = h_rc_depth_;
  metrics_.histogram("propagate.eval_us", 0.0, 50.0, 20) = h_eval_us_;
  metrics_.histogram("propagate.queue_depth", 0.0, 4096.0, 16) =
      h_queue_depth_;
  metrics_.histogram("eco.frontier_size", 0.0, 2048.0, 16) = h_frontier_;
  return metrics_;
}

void Session::require_not_ran(const char* what) const {
  if (ran_) {
    throw Error(std::string(what) +
                " called after run(); call reset() to start a new "
                "analysis or attach a fresh Session");
  }
}

void Session::require_synced(const char* what) const {
  if (design_->netlist().revision() != design_->built_revision()) {
    throw Error(std::string(what) +
                " called on a stale session: the netlist was mutated "
                "since the design was built; call update() first");
  }
}

void Session::add_input_event(NodeId input, Transition dir, Seconds time,
                              Seconds slope) {
  require_not_ran("add_input_event");
  require_synced("add_input_event");
  SLDM_EXPECTS(design_->netlist().node(input).is_input);
  SLDM_EXPECTS(slope >= 0.0);
  const std::size_t k = key(input, dir);
  arrival_time_[k] = time;
  arrival_slope_[k] = slope;
  arrival_from_[k] = UINT32_MAX;
  arrival_via_[k] = SIZE_MAX;
  arrival_valid_[k] = 1;
  seeds_.push_back(static_cast<std::uint32_t>(k));
}

void Session::add_all_input_events(Seconds slope) {
  require_not_ran("add_all_input_events");
  require_synced("add_all_input_events");
  const Netlist& nl = design_->netlist();
  for (NodeId n : nl.all_nodes()) {
    if (!nl.node(n).is_input) continue;
    add_input_event(n, Transition::kRise, 0.0, slope);
    add_input_event(n, Transition::kFall, 0.0, slope);
  }
}

void Session::run() {
  require_not_ran("run");
  require_synced("run");
  ran_ = true;
  TraceSpan span("propagate", "timing");
  const Seconds t0 = now_seconds();
  const std::size_t evals_before = stats_.stage_evaluations;

  // Explicit FIFO worklist of packed (node, dir) keys with in-queue
  // deduplication: an event already awaiting processing is not enqueued
  // again, it simply gets processed with its latest arrival.
  std::deque<std::uint32_t> work(seeds_.begin(), seeds_.end());
  std::vector<char> queued(arrival_valid_.size(), 0);
  for (const std::uint32_t k : seeds_) queued[k] = 1;
  stats_.worklist_pushes += seeds_.size();
  propagate(work, queued);
  stats_.propagate_seconds = now_seconds() - t0;
  span.arg("seeds", static_cast<double>(seeds_.size()));
  span.arg("stage_evaluations",
           static_cast<double>(stats_.stage_evaluations - evals_before));
  publish_telemetry();
}

void Session::publish_telemetry() const {
  if (!TelemetryHub::instance().enabled()) return;
  TelemetryLabels labels;
  labels.session =
      format("s%llu", static_cast<unsigned long long>(session_id_));
  labels.model = model_.name();
  labels.threads = design_->build_threads();
  labels.request = telemetry_request_;
  telemetry_.publish(std::move(labels), metrics());
}

void Session::propagate(std::deque<std::uint32_t>& work,
                        std::vector<char>& queued) {
  Tracer& tracer = Tracer::instance();
  const bool tracing = tracer.enabled();
  const StageTable& stages = design_->stages();
  const StageStore& store = design_->stage_store();
  const TriggerIndex& by_trigger = design_->stages_by_trigger();

  // Wavefront buffers, reused across rounds of the drain loop.
  std::vector<StageStore::StageId> ids;
  std::vector<Seconds> slopes;
  std::vector<std::uint32_t> fire_keys;
  std::vector<Seconds> fire_times;
  std::vector<DelayEstimate> ests;

  while (!work.empty()) {
    // Cooperative deadline: checked once per wavefront (not per stage),
    // so the token never perturbs pricing or commit order -- a run that
    // completes under a deadline is bit-identical to one without.
    if (cancel_) cancel_->check("propagate");
    const double wave_t0_us = tracing ? tracer.now_us() : 0.0;

    // --- Gather: snapshot the ready frontier.  Every event currently
    // in the worklist fires all its stages this round; candidates are
    // priced against the arrivals as of this snapshot, and any arrival
    // the commit phase changes re-enqueues its key into the *next*
    // wavefront, so the drain still reaches the same canonical
    // fixpoint as one-event-at-a-time processing.
    const std::size_t wave_events = work.size();
    h_queue_depth_.add(static_cast<double>(wave_events));
    ids.clear();
    slopes.clear();
    fire_keys.clear();
    fire_times.clear();
    for (std::size_t e = 0; e < wave_events; ++e) {
      const std::uint32_t fire_key = work.front();
      work.pop_front();
      queued[fire_key] = 0;
      SLDM_ASSERT(arrival_valid_[fire_key]);
      for (const std::uint32_t s : by_trigger[fire_key]) {
        ids.push_back(s);
        slopes.push_back(arrival_slope_[fire_key]);
        fire_keys.push_back(fire_key);
        fire_times.push_back(arrival_time_[fire_key]);
      }
    }
    if (ids.empty()) continue;  // frontier of sink events

    // --- Evaluate the whole wavefront through the batch kernel.
    const std::size_t n = ids.size();
    ests.resize(n);
    const double eval_t0_us = tracer.now_us();
    model_.estimate_batch(store, ids, slopes, ests);
    h_eval_us_.add((tracer.now_us() - eval_t0_us) /
                   static_cast<double>(n));
    stats_.stage_evaluations += n;
    ++stats_.batches;
    stats_.mean_batch_size = static_cast<double>(stats_.stage_evaluations) /
                             static_cast<double>(stats_.batches);
    stats_.max_batch_size = std::max(stats_.max_batch_size, n);
    h_batch_size_.add(static_cast<double>(n));
    for (std::size_t i = 0; i < n; ++i) {
      h_rc_depth_.add(static_cast<double>(store.length(ids[i])));
    }

    // --- Commit in gather order (FIFO event order, then ascending
    // stage index per event), so the accepted arrivals -- and the next
    // wavefront's contents -- follow from the snapshot alone.
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t s = ids[i];
      const std::uint32_t fire_key = fire_keys[i];
      const std::size_t dest_key =
          key(stages.destination(s), stages.output_dir(s));
      const Seconds t_new = fire_times[i] + ests[i].delay;
      bool tie = false;
      if (arrival_valid_[dest_key]) {
        if (t_new < arrival_time_[dest_key]) continue;
        if (t_new == arrival_time_[dest_key]) {
          // Canonical tie-break: among equal-time candidates the one
          // with the smallest (stage index, predecessor key) wins, so
          // no tie is settled by processing order.  That keeps
          // update() bit-identical to a rebuild only when every
          // arrival is also its predecessor's *final* value plus the
          // stage delay, which holds when delay ignores the input
          // slope.  Under the slope model a superseded predecessor
          // (earlier, slower edge) can leave a larger time here than
          // its final arrival produces, and whether it does depends on
          // drain order (DESIGN.md "Incrementality invariant").
          if (arrival_via_[dest_key] < s ||
              (arrival_via_[dest_key] == s &&
               arrival_from_[dest_key] <= fire_key)) {
            continue;
          }
          tie = true;
        }
      }
      // Tie rewrites strictly decrease the stored (stage, predecessor)
      // pair, so they terminate on their own and don't count toward
      // the loop bound.
      if (!tie &&
          ++update_counts_[dest_key] > options_.max_updates_per_arrival) {
        throw Error("timing loop detected at node '" +
                    design_->netlist().node(stages.destination(s)).name +
                    "': arrival keeps increasing");
      }
      arrival_time_[dest_key] = t_new;
      arrival_slope_[dest_key] = ests[i].output_slope;
      arrival_from_[dest_key] = fire_key;
      arrival_via_[dest_key] = s;
      arrival_valid_[dest_key] = 1;
      ++stats_.arrival_updates;
      if (!queued[dest_key]) {
        queued[dest_key] = 1;
        work.push_back(static_cast<std::uint32_t>(dest_key));
        ++stats_.worklist_pushes;
      }
    }

    if (tracing) {
      tracer.record("propagate-wave", "timing", wave_t0_us,
                    tracer.now_us() - wave_t0_us,
                    {{"events", static_cast<double>(wave_events)},
                     {"evaluations", static_cast<double>(n)},
                     {"queue_depth", static_cast<double>(work.size())}});
    }
  }
}

void Session::reset() {
  std::fill(arrival_valid_.begin(), arrival_valid_.end(), 0);
  std::fill(update_counts_.begin(), update_counts_.end(), 0);
  seeds_.clear();
  ran_ = false;
}

std::optional<ArrivalInfo> Session::arrival(NodeId node,
                                            Transition dir) const {
  const std::size_t k = key(node, dir);
  if (!arrival_valid_[k]) return std::nullopt;
  ArrivalInfo info;
  info.time = arrival_time_[k];
  info.slope = arrival_slope_[k];
  if (arrival_from_[k] != UINT32_MAX) {
    info.from_node = NodeId(arrival_from_[k] / 2);
    info.from_dir =
        arrival_from_[k] % 2 == 0 ? Transition::kRise : Transition::kFall;
  }
  info.via_stage = arrival_via_[k];
  return info;
}

std::optional<Session::Worst> Session::worst_arrival(
    bool outputs_only) const {
  const Netlist& nl = design_->netlist();
  std::optional<Worst> worst;
  for (NodeId n : nl.all_nodes()) {
    if (outputs_only && !nl.node(n).is_output) continue;
    if (nl.node(n).is_input) continue;  // input events are seeds
    for (Transition dir : {Transition::kRise, Transition::kFall}) {
      const std::size_t k = key(n, dir);
      if (!arrival_valid_[k]) continue;
      if (!worst || arrival_time_[k] > worst->time) {
        worst = Worst{n, dir, arrival_time_[k]};
      }
    }
  }
  return worst;
}

std::vector<PathStep> Session::critical_path(NodeId node,
                                             Transition dir) const {
  const Netlist& nl = design_->netlist();
  const StageTable& stages = design_->stages();
  std::vector<PathStep> steps;
  NodeId cur = node;
  Transition cdir = dir;
  // Bounded walk: each step strictly decreases arrival time, so the
  // node-count bound can only be exceeded by corrupted predecessors.
  for (std::size_t guard = 0; guard <= arrival_valid_.size(); ++guard) {
    const auto info = arrival(cur, cdir);
    SLDM_EXPECTS(info.has_value());
    PathStep step;
    step.node = cur;
    step.dir = cdir;
    step.time = info->time;
    step.slope = info->slope;
    step.description = info->via_stage == SIZE_MAX
                           ? "<- input"
                           : describe(nl, stages[info->via_stage]);
    steps.push_back(std::move(step));
    if (!info->from_node.valid()) break;
    cur = info->from_node;
    cdir = info->from_dir;
  }
  std::reverse(steps.begin(), steps.end());
  return steps;
}

}  // namespace sldm

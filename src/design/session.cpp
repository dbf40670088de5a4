#include "design/session.h"

#include <algorithm>
#include <atomic>
#include <functional>

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
  model_.require_covers(design_->stage_kinds());
  const std::size_t nkeys = design_->netlist().node_count() * 2;
  arrival_time_.assign(nkeys, 0.0);
  arrival_slope_.assign(nkeys, 0.0);
  arrival_from_.assign(nkeys, kNone);
  arrival_via_.assign(nkeys, kNone);
  arrival_valid_.assign(nkeys, 0);
  refresh_census();
}

void Session::refresh_census() {
  stats_.ccc_count = design_->components().count();
  stats_.widest_ccc = design_->widest_ccc();
  stats_.stage_count = design_->stages().size();
  stats_.extract_seconds = design_->extract_seconds();
}

const MetricsRegistry& Session::metrics() const {
  metrics_.counter("propagate.stage_evaluations")
      .set(stats_.stage_evaluations);
  metrics_.counter("propagate.keys_priced").set(stats_.keys_priced);
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
  metrics_.histogram("extract.stage_fan_in", 0.0, 64.0, 16) =
      design_->stage_fan_in();
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
  arrival_from_[k] = kNone;
  arrival_via_[k] = kNone;
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
  stats_.keys_priced += seeds_.size();

  // One sweep: each level's keys are priced from the final arrivals of
  // the lower levels, and a cyclic component settles at its own level.
  Tracer& tracer = Tracer::instance();
  const bool tracing = tracer.enabled();
  const LevelSchedule& levels = design_->levels();
  const std::span<const LevelSchedule::Cycle> cycles = levels.cycles();
  std::size_t next_cycle = 0;
  std::vector<std::uint32_t> changed;
  for (std::size_t level = 1; level <= levels.level_count(); ++level) {
    // Cooperative deadline: checked once per level (not per stage), so
    // the token never perturbs pricing -- a run that completes under a
    // deadline is bit-identical to one without.
    if (cancel_) cancel_->check("propagate");
    const double wave_t0_us = tracing ? tracer.now_us() : 0.0;
    const std::size_t evals = stats_.stage_evaluations;
    const std::span<const std::uint32_t> keys = levels.keys(level);
    price(keys, changed);
    for (; next_cycle < cycles.size() && cycles[next_cycle].level == level;
         ++next_cycle) {
      settle(static_cast<std::uint32_t>(next_cycle), changed);
    }
    changed.clear();
    if (tracing) {
      tracer.record(
          "propagate-wave", "timing", wave_t0_us,
          tracer.now_us() - wave_t0_us,
          {{"level", static_cast<double>(level)},
           {"keys", static_cast<double>(keys.size())},
           {"evaluations",
            static_cast<double>(stats_.stage_evaluations - evals)}});
    }
  }
  fold_rc_depths();
  stats_.propagate_seconds = now_seconds() - t0;
  span.arg("seeds", static_cast<double>(seeds_.size()));
  span.arg("levels", static_cast<double>(levels.level_count()));
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
  labels.request = telemetry_request_;
  telemetry_.publish(std::move(labels), metrics());
}

void Session::price(std::span<const std::uint32_t> keys,
                    std::vector<std::uint32_t>& changed) {
  if (keys.empty()) return;
  const StageStore& store = design_->stage_store();
  const TriggerIndex& by_trigger = design_->stages_by_trigger();
  const LevelSchedule& levels = design_->levels();

  // --- Gather: the stages into each key whose fire key has an arrival,
  // ascending stage index per key; ends_[j] closes key j's candidates.
  ids_.clear();
  slopes_.clear();
  fire_times_.clear();
  ends_.clear();
  for (const std::uint32_t k : keys) {
    const auto [begin, end] = levels.rows(k);
    for (std::uint32_t s = begin; s < end; ++s) {
      const std::uint32_t f = by_trigger.fire_key(s);
      if (!arrival_valid_[f]) continue;
      ids_.push_back(s);
      slopes_.push_back(arrival_slope_[f]);
      fire_times_.push_back(arrival_time_[f]);
    }
    ends_.push_back(static_cast<std::uint32_t>(ids_.size()));
  }
  stats_.keys_priced += keys.size();
  h_queue_depth_.add(static_cast<double>(keys.size()));

  // --- Evaluate the whole level through the batch kernel.
  const std::size_t n = ids_.size();
  if (n != 0) {
    ests_.resize(n);
    Tracer& tracer = Tracer::instance();
    const double eval_t0_us = tracer.now_us();
    model_.estimate_batch(store, ids_, slopes_, ests_);
    h_eval_us_.add((tracer.now_us() - eval_t0_us) / static_cast<double>(n));
    stats_.stage_evaluations += n;
    ++stats_.batches;
    stats_.mean_batch_size = static_cast<double>(stats_.stage_evaluations) /
                             static_cast<double>(stats_.batches);
    stats_.max_batch_size = std::max(stats_.max_batch_size, n);
    h_batch_size_.add(static_cast<double>(n));
    for (const StageStore::StageId s : ids_) {
      const std::uint32_t depth = store.length(s);
      if (depth >= rc_depths_.size()) rc_depths_.resize(depth + 1, 0);
      ++rc_depths_[depth];
    }
  }

  // --- Commit: each key takes its latest candidate; the first of equal
  // times has the smallest stage index, so no tie depends on order.
  std::uint32_t i = 0;
  for (std::size_t j = 0; j < keys.size(); ++j) {
    const std::uint32_t k = keys[j];
    const std::uint32_t end = ends_[j];
    const bool was_valid = arrival_valid_[k] != 0;
    if (i == end) {
      if (was_valid) {
        arrival_valid_[k] = 0;
        changed.push_back(k);
      }
      continue;
    }
    std::uint32_t best = i;
    Seconds best_time = fire_times_[i] + ests_[i].delay;
    for (++i; i < end; ++i) {
      const Seconds t = fire_times_[i] + ests_[i].delay;
      if (t > best_time) {
        best = i;
        best_time = t;
      }
    }
    const Seconds slope = ests_[best].output_slope;
    if (!was_valid || arrival_time_[k] != best_time ||
        arrival_slope_[k] != slope) {
      changed.push_back(k);
      ++stats_.arrival_updates;
    }
    arrival_time_[k] = best_time;
    arrival_slope_[k] = slope;
    arrival_from_[k] = by_trigger.fire_key(ids_[best]);
    arrival_via_[k] = ids_[best];
    arrival_valid_[k] = 1;
  }
}

void Session::settle(std::uint32_t cycle,
                     std::vector<std::uint32_t>& changed) {
  const LevelSchedule& levels = design_->levels();
  const std::span<const std::uint32_t> keys =
      levels.cycle_keys(levels.cycles()[cycle]);
  // Start from no arrivals, as a rebuild does, and remember the values
  // the caller saw so only real changes reach `changed`.
  std::vector<char> old_valid(keys.size());
  std::vector<Seconds> old_time(keys.size());
  std::vector<Seconds> old_slope(keys.size());
  for (std::size_t j = 0; j < keys.size(); ++j) {
    old_valid[j] = arrival_valid_[keys[j]];
    old_time[j] = arrival_time_[keys[j]];
    old_slope[j] = arrival_slope_[keys[j]];
    arrival_valid_[keys[j]] = 0;
  }
  std::vector<int> updates(keys.size(), 0);
  std::vector<std::uint32_t> pass;
  do {
    pass.clear();
    price(keys, pass);
    for (const std::uint32_t k : pass) {
      const std::size_t j = static_cast<std::size_t>(
          std::lower_bound(keys.begin(), keys.end(), k) - keys.begin());
      if (++updates[j] > options_.max_updates_per_arrival) {
        throw Error("timing loop detected at node '" +
                    design_->netlist().node(NodeId(k / 2)).name +
                    "': arrival keeps increasing");
      }
    }
  } while (!pass.empty());
  for (std::size_t j = 0; j < keys.size(); ++j) {
    const std::uint32_t k = keys[j];
    if (old_valid[j] != arrival_valid_[k] ||
        (old_valid[j] && (old_time[j] != arrival_time_[k] ||
                          old_slope[j] != arrival_slope_[k]))) {
      changed.push_back(k);
    }
  }
}

void Session::reprice(std::span<const std::uint32_t> base) {
  const LevelSchedule& levels = design_->levels();
  const TriggerIndex& by_trigger = design_->stages_by_trigger();
  const StageTable& stages = design_->stages();
  // Pending keys ordered by (level, key): a min-heap of packed pairs.
  std::vector<std::uint64_t> heap;
  std::vector<char> pending(arrival_valid_.size(), 0);
  const auto push = [&](std::uint32_t k) {
    if (pending[k]) return;
    pending[k] = 1;
    heap.push_back(std::uint64_t{levels.level(k)} << 32 | k);
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  };
  for (const std::uint32_t k : base) {
    if (arrival_valid_[k] && arrival_via_[k] == kNone) continue;  // seed
    push(k);
  }
  std::size_t repriced = 0;
  std::vector<std::uint32_t> keys;
  std::vector<std::uint32_t> cycles;
  std::vector<std::uint32_t> changed;
  while (!heap.empty()) {
    if (cancel_) cancel_->check("propagate");
    const std::uint64_t level = heap.front() >> 32;
    keys.clear();
    cycles.clear();
    while (!heap.empty() && heap.front() >> 32 == level) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      const auto k = static_cast<std::uint32_t>(heap.back());
      heap.pop_back();
      const std::uint32_t c = levels.cycle_of(k);
      if (c == LevelSchedule::kNoCycle) {
        keys.push_back(k);
      } else if (std::find(cycles.begin(), cycles.end(), c) == cycles.end()) {
        cycles.push_back(c);
      }
    }
    repriced += keys.size();
    changed.clear();
    price(keys, changed);
    for (const std::uint32_t c : cycles) {
      for (const std::uint32_t k : levels.cycle_keys(levels.cycles()[c])) {
        pending[k] = 1;
      }
      repriced += levels.cycle_keys(levels.cycles()[c]).size();
      settle(c, changed);
    }
    // A changed arrival re-prices every key it fires into; those lie
    // on higher levels (or in the component just settled).
    for (const std::uint32_t k : changed) {
      for (const std::uint32_t s : by_trigger[k]) {
        const std::uint32_t d = stages.destination_key(s);
        if (levels.level(d) > level) push(d);
      }
    }
  }
  fold_rc_depths();
  stats_.frontier_keys = repriced;
  h_frontier_.add(static_cast<double>(repriced));
}

void Session::fold_rc_depths() {
  for (std::size_t depth = 0; depth < rc_depths_.size(); ++depth) {
    h_rc_depth_.add(static_cast<double>(depth), rc_depths_[depth]);
  }
  rc_depths_.clear();
}

void Session::reset() {
  std::fill(arrival_valid_.begin(), arrival_valid_.end(), 0);
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
  if (arrival_from_[k] != kNone) {
    info.from_node = NodeId(arrival_from_[k] / 2);
    info.from_dir =
        arrival_from_[k] % 2 == 0 ? Transition::kRise : Transition::kFall;
  }
  info.via_stage = arrival_via_[k] == kNone ? SIZE_MAX : arrival_via_[k];
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

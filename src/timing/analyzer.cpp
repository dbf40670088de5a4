#include "timing/analyzer.h"

#include <algorithm>

#include "util/contracts.h"
#include "util/error.h"
#include "util/trace.h"

namespace sldm {

TimingAnalyzer::TimingAnalyzer(const Netlist& nl, const Tech& tech,
                               const DelayModel& model,
                               AnalyzerOptions options)
    : TimingAnalyzer(
          CompiledDesign::build_over(nl, tech, CompileOptions{options.extract}),
          model, options) {}

TimingAnalyzer::TimingAnalyzer(std::shared_ptr<CompiledDesign> design,
                               const DelayModel& model,
                               AnalyzerOptions options)
    : Session(design, model, SessionOptions{options.max_updates_per_arrival}),
      compiled_(std::move(design)) {}

Netlist& TimingAnalyzer::mutable_netlist() {
  if (!compiled_->owns_netlist()) {
    throw Error(
        "mutable_netlist() on an analyzer over a borrowed netlist; "
        "mutate the caller-owned Netlist directly");
  }
  return *compiled_->owned_nl_;
}

void TimingAnalyzer::update() {
  const Netlist& nl = compiled_->netlist();
  const ChangeLog& log = nl.changes();
  if (log.revision() == compiled_->built_revision_) {  // in sync
    SLDM_ASSERT(nl.adjacency_fresh());  // as build() or update() left it
    return;
  }
  // Single-writer discipline: compiled_ and the Session half's handle
  // are the only two references when the design is unshared.  Any outstanding
  // share_design() handle (another session, a snapshot writer) sees the
  // design as immutable, so in-place ECO mutation is forbidden.
  if (compiled_.use_count() > 2) {
    throw Error(
        "update() on a shared CompiledDesign: " +
        std::to_string(compiled_.use_count() - 2) +
        " other reference(s) outstanding; drop them or rebuild instead");
  }
  TraceSpan span("update", "timing");
  const Seconds t0 = now_seconds();
  // Rebuild the adjacency here if an added device left it stale, so
  // that readers of the design never do (Netlist's thread-safety rule).
  if (!nl.adjacency_fresh()) {
    TraceSpan adjacency_span("update-adjacency", "timing");
    nl.refresh_adjacency();
  }
  const std::uint64_t since = compiled_->built_revision_;
  CccPartition& ccc = *compiled_->ccc_;
  const StageTable& stages = compiled_->stages_;

  // Classify the batch before anything is mutated.
  bool grew = false;
  bool keeps_paths = true;
  for (std::uint64_t i = since; i < log.revision(); ++i) {
    const Change& c = log.entry(i);
    if (c.kind == ChangeKind::kNodeAdded) grew = true;
    if (c.kind == ChangeKind::kDeviceAdded) {
      require_priced(compiled_->tech(), nl.device(c.device()).type);
    }
    // Sizes and capacitances change R and C only: extraction reads
    // neither, so every stage and its id survive the batch.
    if (c.kind != ChangeKind::kDeviceSized && c.kind != ChangeKind::kNodeCap &&
        c.kind != ChangeKind::kNodeRoleOutput) {
      keeps_paths = false;
    }
  }

  // --- Partition sync: which components' stage sets may have changed.
  std::vector<std::size_t> dirty;
  {
    TraceSpan sync_span("update-partition", "timing");
    dirty = ccc.update(nl, log, since);
    sync_span.arg("edits", static_cast<double>(log.revision() - since));
    sync_span.arg("dirty_cccs", static_cast<double>(dirty.size()));
  }
  compiled_->built_revision_ = log.revision();

  // Grow the flat per-(node, dir) arrays for nodes added by the batch.
  const std::size_t nkeys = nl.node_count() * 2;
  if (grew) {
    arrival_time_.resize(nkeys, 0.0);
    arrival_slope_.resize(nkeys, 0.0);
    arrival_from_.resize(nkeys, kNone);
    arrival_via_.resize(nkeys, kNone);
    arrival_valid_.resize(nkeys, 0);
  }

  // --- Structure: re-bake the dirty components' stages where they sit
  // when the batch keeps every path; otherwise re-extract them and
  // splice, which renumbers stages (remap carries old ids to new).
  std::vector<std::size_t> remap;
  if (keeps_paths) {
    TraceSpan rebake_span("update-rebake", "timing");
    const std::size_t rebaked = compiled_->rebake_components(dirty);
    stats_.reused_stages = stages.size() - rebaked;
    stats_.reextracted_stages = rebaked;
    rebake_span.arg("cccs", static_cast<double>(dirty.size()));
    rebake_span.arg("stages", static_cast<double>(rebaked));
  } else {
    remap = resplice(dirty);
  }
  stats_.dirty_cccs = dirty.size();
  ++stats_.incremental_updates;
  refresh_census();

  if (!ran_) {
    // Structure-only sync: no arrivals to repair yet (declared seeds,
    // if any, are untouched and stages carry no arrival state).
    stats_.frontier_keys = 0;
    stats_.update_seconds = now_seconds() - t0;
    publish_telemetry();
    return;
  }

  // --- Damage: every arrival key of a dirty component (its stages
  // changed).  reprice() re-prices them in level order, and with them
  // every key downstream of an arrival that changes.
  std::vector<std::uint32_t> damage;
  {
    TraceSpan invalidate_span("update-invalidate", "timing");
    for (const std::size_t c : dirty) {
      for (NodeId n : ccc.members(c)) {
        for (const Transition dir : {Transition::kRise, Transition::kFall}) {
          damage.push_back(static_cast<std::uint32_t>(arrival_key(n, dir)));
        }
      }
    }
    // Retained arrivals follow a splice's renumbering (their stages
    // survived it by construction); damaged keys are re-priced anyway.
    if (!keeps_paths) {
      std::vector<char> damaged(nkeys, 0);
      for (const std::uint32_t k : damage) damaged[k] = 1;
      for (std::size_t k = 0; k < nkeys; ++k) {
        if (damaged[k] || !arrival_valid_[k] || arrival_via_[k] == kNone) {
          continue;
        }
        SLDM_ASSERT(remap[arrival_via_[k]] != SIZE_MAX);
        arrival_via_[k] = static_cast<std::uint32_t>(remap[arrival_via_[k]]);
      }
    }
    invalidate_span.arg("damaged", static_cast<double>(damage.size()));
  }
  {
    TraceSpan reprice_span("update-propagate", "timing");
    reprice(damage);
    reprice_span.arg("repriced", static_cast<double>(stats_.frontier_keys));
  }
  stats_.update_seconds = now_seconds() - t0;
  publish_telemetry();
}

std::vector<std::size_t> TimingAnalyzer::resplice(
    const std::vector<std::size_t>& dirty) {
  const Netlist& nl = compiled_->netlist();
  const CccPartition& ccc = *compiled_->ccc_;
  StageTable& stages = compiled_->stages_;

  std::vector<char> node_dirty(nl.node_count(), 0);
  for (const std::size_t c : dirty) {
    for (NodeId n : ccc.members(c)) node_dirty[n.index()] = 1;
  }

  // --- Re-extract the dirty components only (the same driver and
  // per-node stage order as a full extraction).
  ExtractedStages fresh;
  {
    TraceSpan extract_span("update-extract", "timing");
    fresh = extract_components(nl, compiled_->extract_, ccc, dirty);
    extract_span.arg("cccs", static_cast<double>(dirty.size()));
    extract_span.arg("stages", static_cast<double>(fresh.table.size()));
  }
  const std::size_t fresh_total = fresh.table.size();

  // --- Splice: the node windows in ascending id order (the global
  // stage order).  A dirty node takes its window from the fresh table,
  // a clean node keeps its window of the old table.  remap[] carries
  // surviving old stage indices to their new positions so retained
  // arrivals' via_stage links stay valid.
  TraceSpan splice_span("update-splice", "timing");
  std::vector<std::size_t> remap(stages.size(), SIZE_MAX);
  std::size_t reused = 0;
  // Table 0 is the old table, table 1 the fresh one.
  const StageTable* const tables[] = {&stages, &fresh.table};
  std::vector<StageWindow> windows(nl.node_count());
  std::size_t old_i = 0;
  std::size_t new_i = 0;
  for (NodeId n : nl.all_nodes()) {
    // n's rows in the old table (nodes added by the batch have none,
    // and are dirty).
    const std::size_t old_begin = old_i;
    while (old_i < stages.size() && stages.destination(old_i) == n) ++old_i;
    if (node_dirty[n.index()]) {
      const StageWindow w = fresh.windows[n.index()];
      windows[n.index()] = StageWindow{1, w.begin, w.end};
      new_i += w.end - w.begin;
    } else {
      windows[n.index()] =
          StageWindow{0, static_cast<std::uint32_t>(old_begin),
                      static_cast<std::uint32_t>(old_i)};
      for (std::size_t s = old_begin; s < old_i; ++s) remap[s] = new_i++;
      reused += old_i - old_begin;
    }
  }
  SLDM_ASSERT(old_i == stages.size());
  stages = stitch_stages(tables, windows);
  SLDM_ASSERT(stages.size() == new_i);

  // --- Refresh the structure-dependent indexes and session census.
  compiled_->recount_stages_per_ccc();
  stats_.reused_stages = reused;
  stats_.reextracted_stages = fresh_total;
  compiled_->index_stages();
  // The splice renumbered stages, so the SoA mirror must follow; a
  // full rebuild keeps store ids == stage indices (the invariant the
  // propagation and explain paths rely on).
  compiled_->rebuild_store();
  compiled_->refresh_census();
  // A new device may trigger a stage kind the model cannot price.
  model_.require_covers(compiled_->stage_kinds());
  splice_span.arg("reused", static_cast<double>(reused));
  splice_span.arg("reextracted", static_cast<double>(fresh_total));
  return remap;
}

}  // namespace sldm

#include "timing/analyzer.h"

#include <algorithm>
#include <chrono>

#include "util/contracts.h"
#include "util/error.h"
#include "util/trace.h"

namespace sldm {
namespace {

Seconds now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void close_damage(const StageTable& stages, const TriggerIndex& by_trigger,
                  std::span<const std::uint32_t> arrival_from,
                  std::span<const char> arrival_valid,
                  std::vector<char>& damaged,
                  std::vector<std::uint32_t>& damage) {
  for (std::size_t i = 0; i < damage.size(); ++i) {
    const std::uint32_t k = damage[i];
    for (const std::uint32_t s : by_trigger[k]) {
      const std::size_t d =
          arrival_key(stages.destination(s), stages.output_dir(s));
      if (!damaged[d] && arrival_valid[d] && arrival_from[d] == k) {
        damaged[d] = 1;
        damage.push_back(static_cast<std::uint32_t>(d));
      }
    }
  }
}

TimingAnalyzer::TimingAnalyzer(const Netlist& nl, const Tech& tech,
                               const DelayModel& model,
                               AnalyzerOptions options)
    : design_(CompiledDesign::build_over(
          nl, tech, CompileOptions{options.extract, options.threads})),
      options_(options),
      session_(design_, model,
               SessionOptions{options.max_updates_per_arrival}) {}

TimingAnalyzer::TimingAnalyzer(std::shared_ptr<CompiledDesign> design,
                               const DelayModel& model,
                               AnalyzerOptions options)
    : design_(std::move(design)),
      options_(options),
      session_(design_, model,
               SessionOptions{options.max_updates_per_arrival}) {
  options_.extract = design_->extract_options();
}

Netlist& TimingAnalyzer::mutable_netlist() {
  if (!design_->owns_netlist()) {
    throw Error(
        "mutable_netlist() on an analyzer over a borrowed netlist; "
        "mutate the caller-owned Netlist directly");
  }
  return *design_->owned_nl_;
}

void TimingAnalyzer::update() {
  const Netlist& nl = design_->netlist();
  const ChangeLog& log = nl.changes();
  if (log.revision() == design_->built_revision_) return;  // in sync
  // Single-writer discipline: the facade and its session hold the only
  // two references when the design is unshared.  Any outstanding
  // share_design() handle (another session, a snapshot writer) sees the
  // design as immutable, so in-place ECO mutation is forbidden.
  if (design_.use_count() > 2) {
    throw Error(
        "update() on a shared CompiledDesign: " +
        std::to_string(design_.use_count() - 2) +
        " other reference(s) outstanding; drop them or rebuild instead");
  }
  TraceSpan span("update", "timing");
  const Seconds t0 = now_seconds();
  const std::uint64_t since = design_->built_revision_;
  CccPartition& ccc = *design_->ccc_;
  const StageTable& stages = design_->stages_;

  // Classify the batch before anything is mutated.
  bool grew = false;
  bool keeps_paths = true;
  for (std::uint64_t i = since; i < log.revision(); ++i) {
    const Change& c = log.entry(i);
    if (c.kind == ChangeKind::kNodeAdded) grew = true;
    if (c.kind == ChangeKind::kDeviceAdded) {
      require_priced(design_->tech(), nl.device(c.device()).type);
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
  design_->built_revision_ = log.revision();

  // Grow the flat per-(node, dir) arrays for nodes added by the batch.
  const std::size_t nkeys = nl.node_count() * 2;
  if (grew) {
    session_.arrival_time_.resize(nkeys, 0.0);
    session_.arrival_slope_.resize(nkeys, 0.0);
    session_.arrival_from_.resize(nkeys, UINT32_MAX);
    session_.arrival_via_.resize(nkeys, SIZE_MAX);
    session_.arrival_valid_.resize(nkeys, 0);
    session_.update_counts_.resize(nkeys, 0);
  }

  // --- Structure: re-bake the dirty components' stages where they sit
  // when the batch keeps every path; otherwise re-extract them and
  // splice, which renumbers stages (remap carries old ids to new).
  std::vector<std::size_t> remap;
  if (keeps_paths) {
    TraceSpan rebake_span("update-rebake", "timing");
    const std::size_t rebaked = design_->rebake_components(dirty);
    session_.g_reused_stages_.set(
        static_cast<double>(stages.size() - rebaked));
    session_.g_reextracted_stages_.set(static_cast<double>(rebaked));
    rebake_span.arg("cccs", static_cast<double>(dirty.size()));
    rebake_span.arg("stages", static_cast<double>(rebaked));
  } else {
    remap = resplice(dirty);
  }
  session_.g_dirty_cccs_.set(static_cast<double>(dirty.size()));
  session_.ctr_incremental_updates_.add();

  if (!session_.ran_) {
    // Structure-only sync: no arrivals to repair yet (declared seeds,
    // if any, are untouched and stages carry no arrival state).
    session_.g_frontier_keys_.set(0.0);
    session_.g_update_seconds_.set(now_seconds() - t0);
    session_.publish_telemetry();
    return;
  }

  // --- Damage: every (node, dir) arrival whose value may have changed.
  // Base set: all keys of dirty components (their stages changed);
  // closure: everything downstream through the recorded predecessor
  // links (close_damage).  Primary-input seeds are never stage
  // destinations, so they keep their declared arrivals.
  const TriggerIndex& by_trigger = design_->stages_by_trigger_;
  std::vector<char> damaged(nkeys, 0);
  std::vector<std::uint32_t> damage;  // the damaged keys, BFS order
  {
    TraceSpan invalidate_span("update-invalidate", "timing");
    for (const std::size_t c : dirty) {
      for (NodeId n : ccc.members(c)) {
        for (const Transition dir :
             {Transition::kRise, Transition::kFall}) {
          const std::size_t k = arrival_key(n, dir);
          if (session_.arrival_valid_[k] &&
              session_.arrival_via_[k] == SIZE_MAX) {
            continue;
          }
          if (!damaged[k]) {
            damaged[k] = 1;
            damage.push_back(static_cast<std::uint32_t>(k));
          }
        }
      }
    }
    close_damage(stages, by_trigger, session_.arrival_from_,
                 session_.arrival_valid_, damaged, damage);

    std::size_t invalidated = 0;
    for (const std::uint32_t k : damage) {
      if (session_.arrival_valid_[k]) ++invalidated;
      session_.arrival_valid_[k] = 0;
      session_.update_counts_[k] = 0;
    }
    // Retained arrivals follow a splice's renumbering (their stages
    // survived it by construction).
    if (!keeps_paths) {
      for (std::size_t k = 0; k < nkeys; ++k) {
        if (session_.arrival_valid_[k] &&
            session_.arrival_via_[k] != SIZE_MAX) {
          SLDM_ASSERT(remap[session_.arrival_via_[k]] != SIZE_MAX);
          session_.arrival_via_[k] = remap[session_.arrival_via_[k]];
        }
      }
    }
    session_.g_frontier_keys_.set(static_cast<double>(invalidated));
    session_.h_frontier_.add(static_cast<double>(invalidated));
    invalidate_span.arg("frontier_keys", static_cast<double>(invalidated));
  }

  // --- Re-propagate from the frontier: every stage targeting a damaged
  // key whose firing event is currently valid re-fires now; damaged
  // keys revalidated during propagation enqueue themselves through the
  // normal accept path.  The firing keys enter in ascending order, as
  // a scan over all keys would find them.
  TraceSpan repropagate_span("update-propagate", "timing");
  std::vector<std::uint32_t> seeds;
  for (const std::uint32_t k : damage) {
    const Transition dir =
        k % 2 == 0 ? Transition::kRise : Transition::kFall;
    const auto [begin, end] = stages.rows_to(NodeId(k / 2));
    for (std::size_t s = begin; s < end; ++s) {
      if (stages.output_dir(s) != dir) continue;
      const std::size_t f = fire_key(stages[s], nl);
      if (session_.arrival_valid_[f]) {
        seeds.push_back(static_cast<std::uint32_t>(f));
      }
    }
  }
  std::sort(seeds.begin(), seeds.end());
  seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
  std::deque<std::uint32_t> work(seeds.begin(), seeds.end());
  std::vector<char> queued(nkeys, 0);
  for (const std::uint32_t k : seeds) queued[k] = 1;
  session_.ctr_worklist_pushes_.add(seeds.size());
  repropagate_span.arg("seeds", static_cast<double>(work.size()));
  session_.propagate(work, queued);
  session_.g_update_seconds_.set(now_seconds() - t0);
  session_.publish_telemetry();
}

std::vector<std::size_t> TimingAnalyzer::resplice(
    const std::vector<std::size_t>& dirty) {
  const Netlist& nl = design_->netlist();
  const CccPartition& ccc = *design_->ccc_;
  StageTable& stages = design_->stages_;

  std::vector<char> node_dirty(nl.node_count(), 0);
  for (const std::size_t c : dirty) {
    for (NodeId n : ccc.members(c)) node_dirty[n.index()] = 1;
  }

  // --- Re-extract the dirty components only (same fan-out and per-node
  // stage order as a full extraction).
  ExtractedChunks fresh;
  std::size_t fresh_total = 0;
  {
    TraceSpan extract_span("update-extract", "timing");
    fresh = extract_components(nl, design_->extract_, ccc, dirty,
                               options_.threads);
    for (const StageTable& t : fresh.tables) fresh_total += t.size();
    extract_span.arg("cccs", static_cast<double>(dirty.size()));
    extract_span.arg("stages", static_cast<double>(fresh_total));
  }

  // --- Splice: the extraction stitch over node windows in ascending id
  // order (the global stage order).  A dirty node takes its window from
  // the fresh tables, a clean node keeps its window of the old table.
  // remap[] carries surviving old stage indices to their new positions
  // so retained arrivals' via_stage links stay valid.
  TraceSpan splice_span("update-splice", "timing");
  std::vector<std::size_t> remap(stages.size(), SIZE_MAX);
  std::size_t reused = 0;
  // Table 0 is the old table; fresh chunk k is table k + 1.
  std::vector<const StageTable*> tables{&stages};
  for (const StageTable& t : fresh.tables) tables.push_back(&t);
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
      windows[n.index()] = StageWindow{w.table + 1, w.begin, w.end};
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
  design_->recount_stages_per_ccc();
  session_.g_reused_stages_.set(static_cast<double>(reused));
  session_.g_reextracted_stages_.set(static_cast<double>(fresh_total));
  design_->index_stages_by_trigger();
  // The splice renumbered stages, so the SoA mirror must follow; a
  // full rebuild keeps store ids == stage indices (the invariant the
  // propagation and explain paths rely on).
  design_->rebuild_store();
  session_.refresh_fan_in();
  splice_span.arg("reused", static_cast<double>(reused));
  splice_span.arg("reextracted", static_cast<double>(fresh_total));
  return remap;
}

}  // namespace sldm

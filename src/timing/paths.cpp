// K-worst-path enumeration: the session's fixpoint keeps only the
// single worst predecessor per (node, transition); this pass re-walks
// the stage graph forward from the input seeds, carrying an independent
// (time, slope) history per candidate path, and reports the k latest
// distinct event chains ending at a target.
#include <algorithm>

#include "design/session.h"
#include "util/contracts.h"

namespace sldm {

std::vector<Session::EnumeratedPath> Session::k_worst_paths(
    NodeId node, Transition dir, std::size_t k,
    const PathQueryOptions& options) const {
  SLDM_EXPECTS(ran_);
  SLDM_EXPECTS(k >= 1);
  const Netlist& nl = design_->netlist();
  const StageTable& stages = design_->stages();
  const StageStore& store = design_->stage_store();
  const TriggerIndex& by_trigger = design_->stages_by_trigger();
  const std::size_t target = key(node, dir);

  std::vector<EnumeratedPath> found;
  std::size_t explored = 0;
  std::vector<bool> on_path(arrival_valid_.size(), false);
  std::vector<PathStep> steps;

  auto dfs = [&](auto&& self, NodeId n, Transition d, Seconds t,
                 Seconds slope, const std::string& how) -> void {
    if (explored >= options.max_explored) return;
    ++explored;
    const std::size_t kk = key(n, d);
    if (on_path[kk]) return;  // no event repeats within one path
    if (static_cast<int>(steps.size()) >= options.max_length) return;

    on_path[kk] = true;
    steps.push_back(PathStep{n, d, t, slope, how});
    if (kk == target) {
      found.push_back(EnumeratedPath{steps, t});
    }
    // Price the whole fanout of this event in one batch (locals: the
    // recursion below reuses the enclosing frames' vectors otherwise).
    const std::span<const StageStore::StageId> fanout = by_trigger[kk];
    const std::vector<Seconds> slopes(fanout.size(), slope);
    std::vector<DelayEstimate> est(fanout.size());
    model_.estimate_batch(store, fanout, slopes, est);
    for (std::size_t i = 0; i < fanout.size(); ++i) {
      const TimingStage& ts = stages[fanout[i]];
      self(self, ts.destination, ts.output_dir, t + est[i].delay,
           est[i].output_slope, describe(nl, ts));
    }
    steps.pop_back();
    on_path[kk] = false;
  };

  for (const std::uint32_t seed_key : seeds_) {
    SLDM_ASSERT(arrival_valid_[seed_key]);
    const NodeId seed_node(seed_key / 2);
    const Transition seed_dir =
        seed_key % 2 == 0 ? Transition::kRise : Transition::kFall;
    dfs(dfs, seed_node, seed_dir, arrival_time_[seed_key],
        arrival_slope_[seed_key], "<- input");
  }

  std::sort(found.begin(), found.end(),
            [](const EnumeratedPath& a, const EnumeratedPath& b) {
              return a.arrival > b.arrival;
            });
  if (found.size() > k) found.resize(k);
  return found;
}

}  // namespace sldm

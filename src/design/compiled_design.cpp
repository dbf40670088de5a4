#include "design/compiled_design.h"

#include <cstring>

#include "util/contracts.h"
#include "util/error.h"
#include "util/trace.h"

namespace sldm {
namespace {

std::uint64_t fnv1a(std::uint64_t hash, const void* data, std::size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::uint64_t fnv1a_double(std::uint64_t hash, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return fnv1a(hash, &bits, sizeof bits);
}

}  // namespace

std::uint64_t tech_fingerprint(const Tech& tech) {
  std::uint64_t hash = 0xcbf29ce484222325ull;  // FNV-1a offset basis
  hash = fnv1a(hash, tech.name().data(), tech.name().size());
  hash = fnv1a_double(hash, tech.vdd());
  for (const TransistorType t :
       {TransistorType::kNEnhancement, TransistorType::kNDepletion,
        TransistorType::kPEnhancement}) {
    const DeviceParams& p = tech.params(t);
    hash = fnv1a_double(hash, p.vt);
    hash = fnv1a_double(hash, p.kp);
    hash = fnv1a_double(hash, p.lambda);
    hash = fnv1a_double(hash, p.cox);
    hash = fnv1a_double(hash, p.cov_w);
    hash = fnv1a_double(hash, p.cj_w);
    hash = fnv1a_double(hash, p.r_up_sq);
    hash = fnv1a_double(hash, p.r_down_sq);
  }
  return hash;
}

std::uint64_t design_fingerprint(const Netlist& nl, const Tech& tech) {
  std::uint64_t hash = tech_fingerprint(tech);
  const std::uint64_t node_count = nl.node_count();
  const std::uint64_t device_count = nl.device_count();
  hash = fnv1a(hash, &node_count, sizeof node_count);
  hash = fnv1a(hash, &device_count, sizeof device_count);
  for (const NodeId id : nl.all_nodes()) {
    const Node& n = nl.node(id);
    hash = fnv1a(hash, n.name.c_str(), n.name.size());
    hash = fnv1a_double(hash, n.cap);
    const unsigned char flags =
        static_cast<unsigned char>((n.is_power ? 1u : 0u) |
                                   (n.is_ground ? 2u : 0u) |
                                   (n.is_input ? 4u : 0u) |
                                   (n.is_output ? 8u : 0u) |
                                   (n.is_precharged ? 16u : 0u));
    hash = fnv1a(hash, &flags, sizeof flags);
    hash = fnv1a(hash, &n.fixed, sizeof n.fixed);
  }
  for (const DeviceId id : nl.all_devices()) {
    const Transistor& t = nl.device(id);
    const std::uint64_t terms[4] = {
        static_cast<std::uint64_t>(t.type), t.gate.index(), t.source.index(),
        t.drain.index()};
    hash = fnv1a(hash, terms, sizeof terms);
    hash = fnv1a_double(hash, t.width);
    hash = fnv1a_double(hash, t.length);
    const unsigned char flow = static_cast<unsigned char>(t.flow);
    hash = fnv1a(hash, &flow, sizeof flow);
  }
  return hash;
}

void require_priced(const Tech& tech, TransistorType type) {
  if (tech.prices(type)) return;
  throw Error("the netlist has " + to_string(type) +
              " devices, but technology '" + tech.name() +
              "' has no parameters for them (r_up_sq, r_down_sq and cj_w "
              "must be set); select a technology that has them with --tech");
}

std::shared_ptr<const CompiledDesign> CompiledDesign::compile(
    Netlist nl, Tech tech, const CompileOptions& options) {
  return compile_owned(std::move(nl), std::move(tech), options);
}

std::shared_ptr<CompiledDesign> CompiledDesign::compile_owned(
    Netlist nl, Tech tech, const CompileOptions& options) {
  auto design = std::shared_ptr<CompiledDesign>(new CompiledDesign());
  design->owned_nl_ = std::make_unique<Netlist>(std::move(nl));
  design->owned_tech_ = std::make_unique<Tech>(std::move(tech));
  design->nl_ = design->owned_nl_.get();
  design->tech_ = design->owned_tech_.get();
  design->extract_ = options.extract;
  design->build(options.threads);
  return design;
}

std::shared_ptr<CompiledDesign> CompiledDesign::build_over(
    const Netlist& nl, const Tech& tech, const CompileOptions& options) {
  auto design = std::shared_ptr<CompiledDesign>(new CompiledDesign());
  design->nl_ = &nl;
  design->tech_ = &tech;
  design->extract_ = options.extract;
  design->build(options.threads);
  return design;
}

void CompiledDesign::build(int threads) {
  SLDM_EXPECTS(threads >= 1);
  TraceSpan span("extract", "timing");
  const Seconds t0 = now_seconds();
  // A device type the tech cannot price is a named error here, not a
  // contract failure inside the bake.
  for (const DeviceId d : nl_->all_devices()) {
    require_priced(*tech_, nl_->device(d).type);
  }
  ccc_.emplace(*nl_);
  PartitionedStages extracted =
      extract_stages_partitioned(*nl_, extract_, *ccc_, threads);
  stages_ = std::move(extracted.stages);
  per_ccc_ = std::move(extracted.per_ccc);
  span.arg("cccs", static_cast<double>(ccc_->count()));
  span.arg("stages", static_cast<double>(stages_.size()));
  span.arg("threads", static_cast<double>(threads));
  index_stages();
  rebuild_store();
  refresh_census();
  fingerprint_ = tech_fingerprint(*tech_);
  built_revision_ = nl_->revision();
  build_threads_ = threads;
  extract_seconds_ = now_seconds() - t0;
}

void CompiledDesign::index_stages() {
  {
    TraceSpan span("trigger-index", "timing");
    stages_by_trigger_.build(stages_, *nl_, nl_->node_count() * 2);
  }
  TraceSpan span("levels", "timing");
  levels_.build(stages_, stages_by_trigger_);
  span.arg("levels", static_cast<double>(levels_.level_count()));
  span.arg("cycles", static_cast<double>(levels_.cycles().size()));
}

void CompiledDesign::refresh_census() {
  stage_kinds_ = store_.kinds();
  widest_ccc_ = ccc_->widest();
  fan_in_.reset();
  for (std::size_t k = 0; k < stages_by_trigger_.key_count(); ++k) {
    const std::size_t fan_in = stages_by_trigger_[k].size();
    if (fan_in != 0) fan_in_.add(static_cast<double>(fan_in));
  }
}

void CompiledDesign::rebuild_store() {
  TraceSpan span("build-store", "timing");
  const Netlist& nl = *nl_;
  // Every electrical input of the store, computed once: C per node and
  // R per (device, direction) -- make_stage derives them per element.
  std::vector<Farads> node_c(nl.node_count());
  for (NodeId n : nl.all_nodes()) {
    node_c[n.index()] = tech_->node_capacitance(nl, n);
  }
  std::vector<Ohms> device_r(nl.device_count() * 2);
  for (DeviceId d : nl.all_devices()) {
    const Transistor& t = nl.device(d);
    device_r[d.index() * 2] = tech_->resistance(t, Transition::kRise);
    device_r[d.index() * 2 + 1] = tech_->resistance(t, Transition::kFall);
  }

  store_.clear();
  store_.reserve(stages_.size(), stages_.path_device_count());
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    const TimingStage ts = stages_[s];
    const std::size_t dir = ts.output_dir == Transition::kRise ? 0 : 1;
    const std::size_t trigger_index = walk_stage(
        nl, ts, [&](DeviceId d, const Transistor& t, NodeId next) {
          store_.push_element(t.type, device_r[d.index() * 2 + dir],
                              node_c[next.index()]);
        });
    store_.close_stage(ts.output_dir, trigger_index);
  }
  span.arg("stages", static_cast<double>(store_.size()));
  span.arg("elements", static_cast<double>(store_.element_count()));
}

std::size_t CompiledDesign::rebake_components(
    std::span<const std::size_t> cccs) {
  const Netlist& nl = *nl_;
  std::vector<Ohms> r;
  std::vector<Farads> c;
  std::size_t rebaked = 0;
  for (const std::size_t comp : cccs) {
    for (const NodeId n : ccc_->members(comp)) {
      // n's rows: its rise stages, then its fall stages.
      const std::size_t begin =
          levels_.rows(arrival_key(n, Transition::kRise)).first;
      const std::size_t end =
          levels_.rows(arrival_key(n, Transition::kFall)).second;
      for (std::size_t s = begin; s < end; ++s) {
        const TimingStage ts = stages_[s];
        r.clear();
        c.clear();
        walk_stage(nl, ts, [&](DeviceId, const Transistor& t, NodeId next) {
          r.push_back(tech_->resistance(t, ts.output_dir));
          c.push_back(tech_->node_capacitance(nl, next));
        });
        store_.rebake_stage(static_cast<StageStore::StageId>(s), r, c);
      }
      rebaked += end - begin;
    }
  }
  return rebaked;
}

void CompiledDesign::recount_stages_per_ccc() {
  per_ccc_.assign(ccc_->count(), 0);
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    ++per_ccc_[ccc_->component_of(stages_.destination(s))];
  }
}

}  // namespace sldm

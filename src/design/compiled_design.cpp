#include "design/compiled_design.h"

#include <bit>
#include <cstring>
#include <vector>

#include "design/snapshot.h"
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

/// The design fingerprint's record stream: records are packed into a
/// small buffer that is fed to a SnapshotChecksum whenever it fills, so
/// the hash runs over 8-byte words and the stream is never held whole.
/// Fields are copied in host order, which the static_assert below pins
/// to the little-endian order FORMATS.md section 12 specifies.  The
/// buffer grows only for a record longer than itself (a huge name).
class RecordStream {
 public:
  /// Room for the next `n` bytes, to be filled before the next call.
  std::uint8_t* claim(std::size_t n) {
    if (size_ + n > buffer_.size()) {
      flush();
      if (n > buffer_.size()) buffer_.resize(n);
    }
    std::uint8_t* p = buffer_.data() + size_;
    size_ += n;
    return p;
  }
  std::uint64_t value() {
    flush();
    return sum_.value();
  }

 private:
  void flush() {
    sum_.update(buffer_.data(), size_);
    size_ = 0;
  }

  SnapshotChecksum sum_;
  std::vector<std::uint8_t> buffer_ = std::vector<std::uint8_t>(4096);
  std::size_t size_ = 0;
};

static_assert(std::endian::native == std::endian::little,
              "design_fingerprint packs host-order fields as little-endian");

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
  TraceSpan span("fingerprint", "design");
  RecordStream stream;
  const std::uint64_t header[3] = {tech_fingerprint(tech), nl.node_count(),
                                   nl.device_count()};
  std::memcpy(stream.claim(sizeof header), header, sizeof header);
  for (const NodeId id : nl.all_nodes()) {
    const Node& n = nl.node(id);
    // [name length u32][name][cap f64][role flags u8][pinned value i8]
    const auto len = static_cast<std::uint32_t>(n.name.size());
    std::uint8_t* rec = stream.claim(len + 14);
    std::memcpy(rec, &len, 4);
    std::memcpy(rec + 4, n.name.c_str(), len);
    rec += 4 + len;
    std::memcpy(rec, &n.cap, 8);
    rec[8] = static_cast<std::uint8_t>(
        (n.is_power ? 1u : 0u) | (n.is_ground ? 2u : 0u) |
        (n.is_input ? 4u : 0u) | (n.is_output ? 8u : 0u) |
        (n.is_precharged ? 16u : 0u));
    std::memcpy(rec + 9, &n.fixed, 1);
  }
  for (const DeviceId id : nl.all_devices()) {
    const Transistor& t = nl.device(id);
    const std::uint32_t terms[3] = {
        static_cast<std::uint32_t>(t.gate.index()),
        static_cast<std::uint32_t>(t.source.index()),
        static_cast<std::uint32_t>(t.drain.index())};
    // [type u8][flow u8][gate, source, drain u32][width, length f64]
    std::uint8_t* rec = stream.claim(30);
    rec[0] = static_cast<std::uint8_t>(t.type);
    rec[1] = static_cast<std::uint8_t>(t.flow);
    std::memcpy(rec + 2, terms, sizeof terms);
    std::memcpy(rec + 14, &t.width, 8);
    std::memcpy(rec + 22, &t.length, 8);
  }
  return stream.value();
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
  design->build();
  return design;
}

std::shared_ptr<CompiledDesign> CompiledDesign::build_over(
    const Netlist& nl, const Tech& tech, const CompileOptions& options) {
  auto design = std::shared_ptr<CompiledDesign>(new CompiledDesign());
  design->nl_ = &nl;
  design->tech_ = &tech;
  design->extract_ = options.extract;
  design->build();
  return design;
}

void CompiledDesign::build() {
  TraceSpan span("extract", "timing");
  const Seconds t0 = now_seconds();
  // Rebuild the adjacency here if an added device left it stale, so
  // that readers of the design never do (Netlist's thread-safety rule).
  nl_->refresh_adjacency();
  // A device type the tech cannot price is a named error here, not a
  // contract failure inside the bake.
  for (const DeviceId d : nl_->all_devices()) {
    require_priced(*tech_, nl_->device(d).type);
  }
  ccc_.emplace(*nl_);
  PartitionedStages extracted =
      extract_stages_partitioned(*nl_, extract_, *ccc_);
  stages_ = std::move(extracted.stages);
  per_ccc_ = std::move(extracted.per_ccc);
  span.arg("cccs", static_cast<double>(ccc_->count()));
  span.arg("stages", static_cast<double>(stages_.size()));
  index_stages();
  rebuild_store();
  refresh_census();
  fingerprint_ = tech_fingerprint(*tech_);
  built_revision_ = nl_->revision();
  extract_seconds_ = now_seconds() - t0;
  SLDM_ENSURES(nl_->adjacency_fresh());
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

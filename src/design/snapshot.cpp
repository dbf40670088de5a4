#include "design/snapshot.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/error.h"
#include "util/failpoint.h"

namespace sldm {
namespace {

// --- Byte-level primitives (explicit little-endian packing) -------------

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t n) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < n; ++i) {
    hash ^= data[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

using Bytes = std::vector<std::uint8_t>;

void put_u8(Bytes& out, std::uint8_t v) { out.push_back(v); }

void put_u32(Bytes& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_u64(Bytes& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_f64(Bytes& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(out, bits);
}

void put_string(Bytes& out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

/// Bounds-checked reader over one section payload (or the header).
/// Every primitive read throws a truncation Error instead of walking
/// off the end, so short files fail loudly wherever the cut lands.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size,
         const std::string& origin, const char* what)
      : data_(data), size_(size), origin_(origin), what_(what) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(data_[pos_ + static_cast<std::size_t>(
                                                       i)])
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(
                                                       i)])
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  std::size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }

  /// Checks an untrusted element count against the bytes left: `n`
  /// records of at least `min_record_bytes` each must fit, so a corrupt
  /// count fails here by name instead of in a huge reserve().
  void check_count(std::uint64_t n, std::size_t min_record_bytes) const {
    if (n > remaining() / min_record_bytes) {
      fail("count " + std::to_string(n) + " exceeds the " +
           std::to_string(remaining()) + " byte(s) left");
    }
  }

  [[noreturn]] void fail(const std::string& why) const {
    throw Error("snapshot " + origin_ + ": " + what_ + ": " + why);
  }

 private:
  void need(std::size_t n) {
    if (size_ - pos_ < n) {
      fail("truncated (wanted " + std::to_string(n) + " more byte(s), " +
           std::to_string(size_ - pos_) + " left)");
    }
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  const std::string& origin_;
  const char* what_;
};

// --- Section tags --------------------------------------------------------

constexpr std::uint32_t tag4(const char (&s)[5]) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(s[0])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[2])) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[3])) << 24;
}

constexpr std::uint32_t kTagTech = tag4("TECH");
constexpr std::uint32_t kTagNode = tag4("NODE");
constexpr std::uint32_t kTagDevs = tag4("DEVS");
constexpr std::uint32_t kTagOpts = tag4("OPTS");
constexpr std::uint32_t kTagStgs = tag4("STGS");
constexpr std::uint32_t kTagStor = tag4("STOR");
constexpr std::uint32_t kTagTbls = tag4("TBLS");

std::string tag_name(std::uint32_t tag) {
  std::string s(4, '?');
  for (int i = 0; i < 4; ++i) {
    const char c = static_cast<char>(tag >> (8 * i));
    s[static_cast<std::size_t>(i)] = (c >= 32 && c < 127) ? c : '?';
  }
  return s;
}

void put_section(Bytes& out, std::uint32_t tag, const Bytes& payload) {
  put_u32(out, tag);
  put_u64(out, payload.size());
  put_u64(out, fnv1a(payload.data(), payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
}

// --- Section writers -----------------------------------------------------

Bytes write_tech(const Tech& tech) {
  Bytes b;
  put_string(b, tech.name());
  put_f64(b, tech.vdd());
  for (const TransistorType t :
       {TransistorType::kNEnhancement, TransistorType::kNDepletion,
        TransistorType::kPEnhancement}) {
    const DeviceParams& p = tech.params(t);
    put_f64(b, p.vt);
    put_f64(b, p.kp);
    put_f64(b, p.lambda);
    put_f64(b, p.cox);
    put_f64(b, p.cov_w);
    put_f64(b, p.cj_w);
    put_f64(b, p.r_up_sq);
    put_f64(b, p.r_down_sq);
  }
  return b;
}

Bytes write_nodes(const Netlist& nl) {
  Bytes b;
  put_u64(b, nl.node_count());
  for (NodeId n : nl.all_nodes()) {
    const Node& info = nl.node(n);
    put_string(b, info.name.view());
    put_f64(b, info.cap);
    std::uint8_t flags = 0;
    if (info.is_power) flags |= 1u << 0;
    if (info.is_ground) flags |= 1u << 1;
    if (info.is_input) flags |= 1u << 2;
    if (info.is_output) flags |= 1u << 3;
    if (info.is_precharged) flags |= 1u << 4;
    put_u8(b, flags);
    put_u8(b, static_cast<std::uint8_t>(info.fixed));
  }
  return b;
}

Bytes write_devices(const Netlist& nl) {
  Bytes b;
  put_u64(b, nl.device_count());
  for (DeviceId d : nl.all_devices()) {
    const Transistor& t = nl.device(d);
    put_u8(b, static_cast<std::uint8_t>(t.type));
    put_u32(b, t.gate.value());
    put_u32(b, t.source.value());
    put_u32(b, t.drain.value());
    put_f64(b, t.width);
    put_f64(b, t.length);
    put_u8(b, static_cast<std::uint8_t>(t.flow));
  }
  return b;
}

Bytes write_options(const ExtractOptions& opts) {
  Bytes b;
  put_u32(b, static_cast<std::uint32_t>(opts.max_depth));
  put_u8(b, opts.inputs_as_sources ? 1 : 0);
  // fixed_values in ascending node order: the map iterates in hash
  // order, which must not leak into the byte stream (equal designs
  // must serialize to equal bytes).
  std::vector<std::pair<std::uint32_t, bool>> fixed;
  fixed.reserve(opts.fixed_values.size());
  for (const auto& [node, value] : opts.fixed_values) {
    fixed.emplace_back(node.value(), value);
  }
  std::sort(fixed.begin(), fixed.end());
  put_u64(b, fixed.size());
  for (const auto& [node, value] : fixed) {
    put_u32(b, node);
    put_u8(b, value ? 1 : 0);
  }
  return b;
}

Bytes write_stages(const std::vector<TimingStage>& stages) {
  Bytes b;
  put_u64(b, stages.size());
  for (const TimingStage& ts : stages) {
    put_u32(b, ts.source.value());
    put_u32(b, ts.destination.value());
    put_u8(b, ts.output_dir == Transition::kRise ? 0 : 1);
    put_u32(b, ts.trigger.value());
    put_u8(b, ts.trigger_gate_dir == Transition::kRise ? 0 : 1);
    std::uint8_t flags = 0;
    if (ts.trigger_is_release) flags |= 1u << 0;
    if (ts.source_triggered) flags |= 1u << 1;
    put_u8(b, flags);
    put_u32(b, static_cast<std::uint32_t>(ts.path.size()));
    for (const DeviceId d : ts.path) put_u32(b, d.value());
  }
  return b;
}

Bytes write_store(const StageStore& store) {
  const StageStore::RawArrays a = store.export_arrays();
  Bytes b;
  const auto put_u8_vec = [&b](const auto& v) {
    put_u64(b, v.size());
    for (const auto e : v) put_u8(b, static_cast<std::uint8_t>(e));
  };
  const auto put_u32_vec = [&b](const std::vector<std::uint32_t>& v) {
    put_u64(b, v.size());
    for (const std::uint32_t e : v) put_u32(b, e);
  };
  const auto put_f64_vec = [&b](const std::vector<double>& v) {
    put_u64(b, v.size());
    for (const double e : v) put_f64(b, e);
  };
  put_u8_vec(a.elem_type);
  put_f64_vec(a.elem_r);
  put_f64_vec(a.elem_c);
  put_u32_vec(a.offset);
  put_u8_vec(a.output_dir);
  put_u32_vec(a.trigger_index);
  put_u8_vec(a.trigger_type);
  put_f64_vec(a.total_r);
  put_f64_vec(a.total_c);
  put_f64_vec(a.dest_c);
  put_f64_vec(a.elmore);
  put_f64_vec(a.tp);
  return b;
}

// --- Section readers -----------------------------------------------------

TransistorType read_transistor_type(Reader& r) {
  const std::uint8_t v = r.u8();
  switch (v) {
    case static_cast<std::uint8_t>(TransistorType::kNEnhancement):
      return TransistorType::kNEnhancement;
    case static_cast<std::uint8_t>(TransistorType::kNDepletion):
      return TransistorType::kNDepletion;
    case static_cast<std::uint8_t>(TransistorType::kPEnhancement):
      return TransistorType::kPEnhancement;
    default:
      r.fail("bad transistor type " + std::to_string(v));
  }
}

Transition read_transition(Reader& r) {
  const std::uint8_t v = r.u8();
  if (v > 1) r.fail("bad transition " + std::to_string(v));
  return v == 0 ? Transition::kRise : Transition::kFall;
}

Flow read_flow(Reader& r) {
  const std::uint8_t v = r.u8();
  switch (v) {
    case static_cast<std::uint8_t>(Flow::kBidirectional):
      return Flow::kBidirectional;
    case static_cast<std::uint8_t>(Flow::kSourceToDrain):
      return Flow::kSourceToDrain;
    case static_cast<std::uint8_t>(Flow::kDrainToSource):
      return Flow::kDrainToSource;
    default:
      r.fail("bad flow annotation " + std::to_string(v));
  }
}

Tech read_tech_section(Reader& r) {
  const std::string name = r.str();
  const double vdd = r.f64();
  Tech tech(name, vdd);
  for (const TransistorType t :
       {TransistorType::kNEnhancement, TransistorType::kNDepletion,
        TransistorType::kPEnhancement}) {
    DeviceParams& p = tech.params(t);
    p.vt = r.f64();
    p.kp = r.f64();
    p.lambda = r.f64();
    p.cox = r.f64();
    p.cov_w = r.f64();
    p.cj_w = r.f64();
    p.r_up_sq = r.f64();
    p.r_down_sq = r.f64();
  }
  return tech;
}

Netlist read_netlist_sections(Reader& nodes, Reader& devs) {
  Netlist nl;
  const std::uint64_t node_count = nodes.u64();
  for (std::uint64_t i = 0; i < node_count; ++i) {
    const std::string name = nodes.str();
    if (name.empty()) nodes.fail("empty node name");
    const double cap = nodes.f64();
    const std::uint8_t flags = nodes.u8();
    const auto fixed = static_cast<std::int8_t>(nodes.u8());
    if (flags > 31) nodes.fail("bad node flags");
    if (fixed < -1 || fixed > 1) nodes.fail("bad pinned value");
    const NodeId id = nl.add_node(name);
    if (id.index() != i) nodes.fail("duplicate node name '" + name + "'");
    Node& info = nl.node(id);
    info.cap = cap;
    info.is_power = (flags & (1u << 0)) != 0;
    info.is_ground = (flags & (1u << 1)) != 0;
    info.is_input = (flags & (1u << 2)) != 0;
    info.is_output = (flags & (1u << 3)) != 0;
    info.is_precharged = (flags & (1u << 4)) != 0;
    info.fixed = fixed;
  }

  const std::uint64_t device_count = devs.u64();
  for (std::uint64_t i = 0; i < device_count; ++i) {
    const TransistorType type = read_transistor_type(devs);
    const NodeId gate(devs.u32());
    const NodeId source(devs.u32());
    const NodeId drain(devs.u32());
    const double width = devs.f64();
    const double length = devs.f64();
    const Flow flow = read_flow(devs);
    if (gate.index() >= nl.node_count() ||
        source.index() >= nl.node_count() ||
        drain.index() >= nl.node_count()) {
      devs.fail("device terminal out of range");
    }
    if (source == drain || width <= 0.0 || length <= 0.0) {
      devs.fail("bad device geometry");
    }
    nl.add_transistor(type, gate, source, drain, width, length, flow);
  }
  return nl;
}

ExtractOptions read_options_section(Reader& r, const Netlist& nl) {
  ExtractOptions opts;
  opts.max_depth = static_cast<int>(r.u32());
  opts.inputs_as_sources = r.u8() != 0;
  const std::uint64_t fixed = r.u64();
  for (std::uint64_t i = 0; i < fixed; ++i) {
    const NodeId node(r.u32());
    const std::uint8_t value = r.u8();
    if (node.index() >= nl.node_count()) r.fail("pinned node out of range");
    if (value > 1) r.fail("bad pinned value");
    opts.fixed_values[node] = value != 0;
  }
  return opts;
}

std::vector<TimingStage> read_stages_section(Reader& r, const Netlist& nl) {
  std::vector<TimingStage> stages;
  const std::uint64_t count = r.u64();
  // source, destination, trigger, path length (u32 each), two
  // transitions and the flags byte.
  r.check_count(count, 4 * 4 + 3);
  stages.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    TimingStage ts;
    ts.source = NodeId(r.u32());
    ts.destination = NodeId(r.u32());
    ts.output_dir = read_transition(r);
    ts.trigger = DeviceId(r.u32());
    ts.trigger_gate_dir = read_transition(r);
    const std::uint8_t flags = r.u8();
    if (flags > 3) r.fail("bad stage flags");
    ts.trigger_is_release = (flags & (1u << 0)) != 0;
    ts.source_triggered = (flags & (1u << 1)) != 0;
    const std::uint32_t path_len = r.u32();
    r.check_count(path_len, 4);
    ts.path.reserve(path_len);
    for (std::uint32_t p = 0; p < path_len; ++p) {
      const DeviceId d(r.u32());
      if (d.index() >= nl.device_count()) {
        r.fail("stage path device out of range");
      }
      ts.path.push_back(d);
    }
    if (ts.source.index() >= nl.node_count() ||
        ts.destination.index() >= nl.node_count() ||
        ts.trigger.index() >= nl.device_count()) {
      r.fail("stage endpoint out of range");
    }
    stages.push_back(std::move(ts));
  }
  return stages;
}

StageStore read_store_section(Reader& r) {
  StageStore::RawArrays a;
  const auto get_type_vec = [&r](std::vector<TransistorType>& v) {
    const std::uint64_t n = r.u64();
    r.check_count(n, 1);
    v.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) v.push_back(read_transistor_type(r));
  };
  const auto get_dir_vec = [&r](std::vector<Transition>& v) {
    const std::uint64_t n = r.u64();
    r.check_count(n, 1);
    v.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) v.push_back(read_transition(r));
  };
  const auto get_u32_vec = [&r](std::vector<std::uint32_t>& v) {
    const std::uint64_t n = r.u64();
    r.check_count(n, 4);
    v.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) v.push_back(r.u32());
  };
  const auto get_f64_vec = [&r](std::vector<double>& v) {
    const std::uint64_t n = r.u64();
    r.check_count(n, 8);
    v.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) v.push_back(r.f64());
  };
  get_type_vec(a.elem_type);
  get_f64_vec(a.elem_r);
  get_f64_vec(a.elem_c);
  get_u32_vec(a.offset);
  get_dir_vec(a.output_dir);
  get_u32_vec(a.trigger_index);
  get_type_vec(a.trigger_type);
  get_f64_vec(a.total_r);
  get_f64_vec(a.total_c);
  get_f64_vec(a.dest_c);
  get_f64_vec(a.elmore);
  get_f64_vec(a.tp);
  return StageStore::from_arrays(std::move(a));
}

struct Section {
  const std::uint8_t* data;
  std::size_t size;
};

}  // namespace

/// Loader-side assembly: the one place allowed to construct a
/// CompiledDesign from parts (friend of the class).
struct SnapshotAccess {
  static std::shared_ptr<CompiledDesign> assemble(
      Netlist nl, Tech tech, ExtractOptions extract,
      std::vector<TimingStage> stages, StageStore store) {
    auto design = std::shared_ptr<CompiledDesign>(new CompiledDesign());
    design->owned_nl_ = std::make_unique<Netlist>(std::move(nl));
    design->owned_tech_ = std::make_unique<Tech>(std::move(tech));
    design->nl_ = design->owned_nl_.get();
    design->tech_ = design->owned_tech_.get();
    design->extract_ = std::move(extract);
    design->ccc_.emplace(*design->nl_);
    design->stages_ = std::move(stages);
    design->store_ = std::move(store);
    design->index_stages_by_trigger();
    design->recount_stages_per_ccc();
    design->fingerprint_ = tech_fingerprint(*design->tech_);
    design->built_revision_ = design->nl_->revision();
    design->extract_seconds_ = 0.0;  // the whole point of loading
    design->build_threads_ = 1;
    return design;
  }
};

std::vector<std::uint8_t> serialize_design(const CompiledDesign& design,
                                           const SlopeTables* tables) {
  Bytes out;
  put_u32(out, kSnapshotMagic);
  put_u32(out, kSnapshotFormatVersion);
  put_u64(out, design.fingerprint());
  put_section(out, kTagTech, write_tech(design.tech()));
  put_section(out, kTagNode, write_nodes(design.netlist()));
  put_section(out, kTagDevs, write_devices(design.netlist()));
  put_section(out, kTagOpts, write_options(design.extract_options()));
  put_section(out, kTagStgs, write_stages(design.stages()));
  put_section(out, kTagStor, write_store(design.stage_store()));
  if (tables != nullptr) {
    std::ostringstream os;
    tables->write(os);
    const std::string text = os.str();
    Bytes payload(text.begin(), text.end());
    put_section(out, kTagTbls, payload);
  }
  return out;
}

LoadedDesign deserialize_design(const std::vector<std::uint8_t>& bytes,
                                const std::string& origin) {
  Reader header(bytes.data(), bytes.size(), origin, "header");
  const std::uint32_t magic = header.u32();
  if (magic != kSnapshotMagic) {
    throw Error("snapshot " + origin +
                ": not a .sldc compiled design (bad magic); run `sldm "
                "compile` to produce one");
  }
  const std::uint32_t version = header.u32();
  if (version != kSnapshotFormatVersion) {
    throw Error("snapshot " + origin + ": format version " +
                std::to_string(version) + " is not supported (this build "
                "reads version " +
                std::to_string(kSnapshotFormatVersion) +
                "); recompile the design with `sldm compile`");
  }
  const std::uint64_t claimed_fingerprint = header.u64();

  // Walk the section table: verify each checksum, remember each
  // payload window.
  std::size_t pos = bytes.size() - header.remaining();
  std::unordered_map<std::uint32_t, Section> sections;
  while (pos < bytes.size()) {
    Reader sec(bytes.data() + pos, bytes.size() - pos, origin,
               "section table");
    const std::uint32_t tag = sec.u32();
    const std::uint64_t length = sec.u64();
    const std::uint64_t checksum = sec.u64();
    const std::size_t header_size = (bytes.size() - pos) - sec.remaining();
    if (length > sec.remaining()) {
      throw Error("snapshot " + origin + ": section '" + tag_name(tag) +
                  "' truncated (declares " + std::to_string(length) +
                  " byte(s), " + std::to_string(sec.remaining()) +
                  " left in file)");
    }
    const std::uint8_t* payload = bytes.data() + pos + header_size;
    if (fnv1a(payload, length) != checksum) {
      throw Error("snapshot " + origin + ": section '" + tag_name(tag) +
                  "' checksum mismatch (corrupted file?)");
    }
    sections[tag] = Section{payload, static_cast<std::size_t>(length)};
    pos += header_size + length;
  }

  const auto section = [&](std::uint32_t tag, const char* what) {
    const auto it = sections.find(tag);
    if (it == sections.end()) {
      throw Error("snapshot " + origin + ": missing section '" +
                  tag_name(tag) + "'");
    }
    return Reader(it->second.data, it->second.size, origin, what);
  };

  Reader tech_r = section(kTagTech, "TECH section");
  Tech tech = read_tech_section(tech_r);
  if (tech_fingerprint(tech) != claimed_fingerprint) {
    throw Error("snapshot " + origin +
                ": technology fingerprint does not match the embedded "
                "parameters (corrupted file?)");
  }

  Reader node_r = section(kTagNode, "NODE section");
  Reader devs_r = section(kTagDevs, "DEVS section");
  Netlist nl = read_netlist_sections(node_r, devs_r);

  Reader opts_r = section(kTagOpts, "OPTS section");
  ExtractOptions extract = read_options_section(opts_r, nl);

  Reader stgs_r = section(kTagStgs, "STGS section");
  std::vector<TimingStage> stages = read_stages_section(stgs_r, nl);

  Reader stor_r = section(kTagStor, "STOR section");
  StageStore store = read_store_section(stor_r);
  if (store.size() != stages.size()) {
    throw Error("snapshot " + origin + ": stage store holds " +
                std::to_string(store.size()) + " stage(s) but " +
                std::to_string(stages.size()) + " were declared");
  }

  LoadedDesign loaded;
  loaded.design = SnapshotAccess::assemble(std::move(nl), std::move(tech),
                                           std::move(extract),
                                           std::move(stages),
                                           std::move(store));
  if (const auto it = sections.find(kTagTbls); it != sections.end()) {
    std::istringstream is(std::string(
        reinterpret_cast<const char*>(it->second.data), it->second.size));
    loaded.slope_tables = SlopeTables::read(is, origin + " (TBLS)");
  }
  return loaded;
}

void save_design_file(const CompiledDesign& design, const std::string& path,
                      const SlopeTables* tables) {
  // Failpoint "snapshot.write": `error` refuses before the file is
  // touched; `partial` truncates to half the payload and throws --
  // leaving exactly the torn file a crash mid-write would, which the
  // loader must reject by section checksum, never accept.
  const bool partial = failpoint("snapshot.write");
  const Bytes bytes = serialize_design(design, tables);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw Error("cannot create snapshot file " + path);
  const std::size_t n = partial ? bytes.size() / 2 : bytes.size();
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(n));
  if (partial) {
    out.flush();
    throw Error("short write to snapshot file " + path);
  }
  if (!out) throw Error("short write to snapshot file " + path);
}

LoadedDesign load_design_file(const std::string& path) {
  // Failpoint "snapshot.read": `error` models an unreadable file;
  // `partial` models a truncated read -- deserialize_design must turn
  // either into a named rejection, never a crash or a wrong design.
  const bool partial = failpoint("snapshot.read");
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open snapshot file " + path);
  Bytes bytes((std::istreambuf_iterator<char>(in)),
              std::istreambuf_iterator<char>());
  if (partial) bytes.resize(bytes.size() / 2);
  return deserialize_design(bytes, path);
}

}  // namespace sldm

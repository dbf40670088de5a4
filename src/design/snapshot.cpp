#include "design/snapshot.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <fstream>
#include <string_view>
#include <type_traits>

#include "util/contracts.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/file_io.h"

namespace sldm {

// The codec copies whole arrays between host memory and the file, whose
// integers and doubles are little-endian: the two layouts agree only on
// a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "the .sldc codec assumes a little-endian host");

namespace {

// --- Checksum -------------------------------------------------------------

constexpr std::uint64_t kMulA = 0x9E3779B97F4A7C15ull;  // odd: invertible
constexpr std::uint64_t kMulB = 0xC2B2AE3D27D4EB4Full;  // odd: invertible

std::uint64_t load_word(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// One hash step.  For a fixed lane it is a bijection of the word, and
/// for a fixed word a bijection of the lane: a changed word always
/// leaves a changed lane, and later steps never merge it back.
std::uint64_t mix(std::uint64_t lane, std::uint64_t word) {
  return std::rotl(lane + word * kMulA, 29) * kMulB;
}

}  // namespace

std::uint64_t snapshot_checksum(const std::uint8_t* data, std::size_t n) {
  std::uint64_t lane[4] = {kMulA, kMulB, ~kMulA, ~kMulB};
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    lane[0] = mix(lane[0], load_word(data + i));
    lane[1] = mix(lane[1], load_word(data + i + 8));
    lane[2] = mix(lane[2], load_word(data + i + 16));
    lane[3] = mix(lane[3], load_word(data + i + 24));
  }
  for (; i + 8 <= n; i += 8) lane[0] = mix(lane[0], load_word(data + i));
  if (i < n) {
    std::uint64_t tail = 0;
    std::memcpy(&tail, data + i, n - i);
    lane[1] = mix(lane[1], tail);
  }
  std::uint64_t h = mix(0, n);
  for (const std::uint64_t l : lane) h = mix(h, l);
  h ^= h >> 32;  // xor-shifts and odd multiplies: still a bijection
  h *= kMulA;
  h ^= h >> 29;
  return h;
}

namespace {

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
constexpr std::array<std::uint32_t, 7> kTags = {
    kTagTech, kTagNode, kTagDevs, kTagOpts, kTagStgs, kTagStor, kTagTbls};

/// [tag u32][payload length u64][checksum u64].
constexpr std::size_t kSectionHeaderBytes = 20;

std::string tag_name(std::uint32_t tag) {
  std::string s(4, '?');
  for (int i = 0; i < 4; ++i) {
    const char c = static_cast<char>(tag >> (8 * i));
    s[static_cast<std::size_t>(i)] = (c >= 32 && c < 127) ? c : '?';
  }
  return s;
}

// --- Writing: one layout walk, run twice --------------------------------
//
// write_snapshot() walks the layout over a Sink twice: the first walk
// only adds up sizes, the second fills a buffer allocated once at
// exactly that size.

class Sink {
 public:
  /// Without a buffer the sink only counts bytes.
  explicit Sink(std::uint8_t* out = nullptr) : out_(out) {}

  bool counting() const { return out_ == nullptr; }
  std::size_t size() const { return size_; }

  void raw(const void* src, std::size_t n) {
    if (!counting() && n != 0) std::memcpy(out_ + size_, src, n);
    size_ += n;
  }
  /// Counts `n` bytes whose contents a counting sink never needs.
  void skip(std::size_t n) {
    SLDM_ASSERT(counting());
    size_ += n;
  }
  std::size_t open_section() {
    const std::size_t at = size_;
    size_ += kSectionHeaderBytes;
    return at;
  }
  /// Seals the header at `at` with the payload's length and checksum.
  void close_section(std::size_t at, std::uint32_t tag) {
    if (counting()) return;
    const std::uint64_t length = size_ - at - kSectionHeaderBytes;
    const std::uint64_t check =
        snapshot_checksum(out_ + at + kSectionHeaderBytes, length);
    std::memcpy(out_ + at, &tag, 4);
    std::memcpy(out_ + at + 4, &length, 8);
    std::memcpy(out_ + at + 12, &check, 8);
  }

 private:
  std::uint8_t* out_;
  std::size_t size_ = 0;
};

template <typename T>
void put(Sink& s, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  s.raw(&v, sizeof v);
}

void put_string(Sink& s, std::string_view str) {
  put<std::uint32_t>(s, static_cast<std::uint32_t>(str.size()));
  s.raw(str.data(), str.size());
}

/// An array: [count u64][count elements], copied in one piece.
template <typename T>
void put_array(Sink& s, const std::vector<T>& v) {
  put<std::uint64_t>(s, v.size());
  s.raw(v.data(), v.size() * sizeof(T));
}

/// An array whose element i is `element(i)`, converted to T.
template <typename T, typename F>
void put_array_of(Sink& s, std::size_t n, F&& element) {
  put<std::uint64_t>(s, n);
  if (s.counting()) {
    s.skip(n * sizeof(T));
  } else {
    for (std::size_t i = 0; i < n; ++i) put<T>(s, static_cast<T>(element(i)));
  }
}

template <typename Body>
void put_section(Sink& s, std::uint32_t tag, Body&& body) {
  const std::size_t at = s.open_section();
  body();
  s.close_section(at, tag);
}

constexpr std::array<TransistorType, 3> kTypes = {
    TransistorType::kNEnhancement, TransistorType::kNDepletion,
    TransistorType::kPEnhancement};

void write_tech(Sink& s, const Tech& tech) {
  put_string(s, tech.name());
  put<double>(s, tech.vdd());
  for (const TransistorType t : kTypes) {
    const DeviceParams& p = tech.params(t);
    for (const double v : {p.vt, p.kp, p.lambda, p.cox, p.cov_w, p.cj_w,
                           p.r_up_sq, p.r_down_sq}) {
      put<double>(s, v);
    }
  }
}

std::uint8_t node_flags(const Node& info) {
  return static_cast<std::uint8_t>(
      (info.is_power ? 1u << 0 : 0u) | (info.is_ground ? 1u << 1 : 0u) |
      (info.is_input ? 1u << 2 : 0u) | (info.is_output ? 1u << 3 : 0u) |
      (info.is_precharged ? 1u << 4 : 0u));
}

void write_nodes(Sink& s, const Netlist& nl) {
  const std::size_t n = nl.node_count();
  const auto node = [&nl](std::size_t i) -> const Node& {
    return nl.node(NodeId(static_cast<NodeId::underlying_type>(i)));
  };
  put<std::uint64_t>(s, n);
  put_array_of<std::uint32_t>(s, n,
                              [&](std::size_t i) { return node(i).name.size(); });
  std::uint64_t name_bytes = 0;
  for (std::size_t i = 0; i < n; ++i) name_bytes += node(i).name.size();
  put<std::uint64_t>(s, name_bytes);
  for (std::size_t i = 0; i < n; ++i) {
    const std::string_view name = node(i).name.view();
    s.raw(name.data(), name.size());
  }
  put_array_of<double>(s, n, [&](std::size_t i) { return node(i).cap; });
  put_array_of<std::uint8_t>(s, n,
                             [&](std::size_t i) { return node_flags(node(i)); });
  put_array_of<std::int8_t>(s, n, [&](std::size_t i) { return node(i).fixed; });
}

void write_devices(Sink& s, const Netlist& nl) {
  const std::size_t n = nl.device_count();
  const auto dev = [&nl](std::size_t i) -> const Transistor& {
    return nl.device(DeviceId(static_cast<DeviceId::underlying_type>(i)));
  };
  put<std::uint64_t>(s, n);
  put_array_of<TransistorType>(s, n, [&](std::size_t i) { return dev(i).type; });
  put_array_of<std::uint32_t>(s, n,
                              [&](std::size_t i) { return dev(i).gate.value(); });
  put_array_of<std::uint32_t>(
      s, n, [&](std::size_t i) { return dev(i).source.value(); });
  put_array_of<std::uint32_t>(s, n,
                              [&](std::size_t i) { return dev(i).drain.value(); });
  put_array_of<double>(s, n, [&](std::size_t i) { return dev(i).width; });
  put_array_of<double>(s, n, [&](std::size_t i) { return dev(i).length; });
  put_array_of<Flow>(s, n, [&](std::size_t i) { return dev(i).flow; });
}

void write_options(Sink& s, const ExtractOptions& opts) {
  put<std::uint32_t>(s, static_cast<std::uint32_t>(opts.max_depth));
  put<std::uint8_t>(s, opts.inputs_as_sources ? 1 : 0);
  // fixed_values in ascending node order: the map iterates in hash
  // order, which must not leak into the byte stream (equal designs
  // must serialize to equal bytes).
  std::vector<std::pair<std::uint32_t, bool>> fixed;
  fixed.reserve(opts.fixed_values.size());
  for (const auto& [node, value] : opts.fixed_values) {
    fixed.emplace_back(node.value(), value);
  }
  std::sort(fixed.begin(), fixed.end());
  put_array_of<std::uint32_t>(s, fixed.size(),
                              [&](std::size_t i) { return fixed[i].first; });
  put_array_of<std::uint8_t>(s, fixed.size(),
                             [&](std::size_t i) { return fixed[i].second; });
}

/// STGS: the stage table's arrays verbatim -- [count u64], then source,
/// destination, trigger, bits, path offsets and path devices, each a
/// put_array.
void write_stages(Sink& s, const StageTable& stages) {
  put<std::uint64_t>(s, stages.size());
  stages.for_each_array([&s](const auto& v) { put_array(s, v); });
}

void write_tables(Sink& s, const SlopeTables& tables) {
  std::uint32_t count = 0;
  for (const TransistorType type : kTypes) {
    for (const Transition dir : {Transition::kRise, Transition::kFall}) {
      if (tables.has(type, dir)) ++count;
    }
  }
  put<std::uint32_t>(s, count);
  for (const TransistorType type : kTypes) {
    for (const Transition dir : {Transition::kRise, Transition::kFall}) {
      if (!tables.has(type, dir)) continue;
      const SlopeEntry& e = tables.entry(type, dir);
      put<TransistorType>(s, type);
      put<Transition>(s, dir);
      for (const PiecewiseLinear* f : {&e.delay_mult, &e.slope_mult}) {
        put_array(s, f->xs());
        put_array(s, f->ys());
      }
    }
  }
}

void write_snapshot(Sink& s, const CompiledDesign& design,
                    const SlopeTables* tables) {
  put<std::uint32_t>(s, kSnapshotMagic);
  put<std::uint32_t>(s, kSnapshotFormatVersion);
  put<std::uint64_t>(s, design.fingerprint());
  const Netlist& nl = design.netlist();
  put_section(s, kTagTech, [&] { write_tech(s, design.tech()); });
  put_section(s, kTagNode, [&] { write_nodes(s, nl); });
  put_section(s, kTagDevs, [&] { write_devices(s, nl); });
  put_section(s, kTagOpts, [&] { write_options(s, design.extract_options()); });
  put_section(s, kTagStgs, [&] { write_stages(s, design.stages()); });
  put_section(s, kTagStor, [&] {
    design.stage_store().for_each_array(
        [&s](const auto& v) { put_array(s, v); });
  });
  if (tables != nullptr) {
    put_section(s, kTagTbls, [&] { write_tables(s, *tables); });
  }
}

// --- Reading -------------------------------------------------------------

/// `n` elements of T at an unaligned spot inside a payload.  Elements
/// are copied out one at a time or all at once; the bytes are only
/// trusted after the caller's checks.
template <typename T>
class ArrayView {
 public:
  static_assert(std::is_trivially_copyable_v<T>);
  ArrayView(const std::uint8_t* data, std::size_t n) : data_(data), n_(n) {}

  std::size_t size() const { return n_; }
  T operator[](std::size_t i) const {
    T v;
    std::memcpy(&v, data_ + i * sizeof(T), sizeof(T));
    return v;
  }
  const char* chars() const { return reinterpret_cast<const char*>(data_); }
  std::vector<T> to_vector() const {
    std::vector<T> v(n_);
    if (n_ != 0) std::memcpy(v.data(), data_, n_ * sizeof(T));
    return v;
  }

 private:
  const std::uint8_t* data_;
  std::size_t n_;
};

/// Bounds-checked reader over one section payload (or the header).
/// Every read throws a truncation Error instead of walking off the end,
/// so short files fail loudly wherever the cut lands.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size,
         const std::string& origin, const char* what)
      : data_(data), size_(size), origin_(origin), what_(what) {}

  template <typename T>
  T scalar() {
    need(sizeof(T));
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  std::uint8_t u8() { return scalar<std::uint8_t>(); }
  std::uint32_t u32() { return scalar<std::uint32_t>(); }
  std::uint64_t u64() { return scalar<std::uint64_t>(); }
  double f64() { return scalar<double>(); }

  std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  /// The next array ([count u64][count elements]); the count is checked
  /// against the bytes left before the view is taken.
  template <typename T>
  ArrayView<T> array(const char* name) {
    const std::uint64_t n = u64();
    if (n > remaining() / sizeof(T)) {
      fail(std::string(name) + " count " + std::to_string(n) +
           " exceeds the " + std::to_string(remaining()) + " byte(s) left");
    }
    const ArrayView<T> view(data_ + pos_, static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n) * sizeof(T);
    return view;
  }

  /// array() that must hold exactly `expected` elements (an array
  /// parallel to a count read earlier).
  template <typename T>
  ArrayView<T> array(const char* name, std::uint64_t expected) {
    const ArrayView<T> view = array<T>(name);
    if (view.size() != expected) {
      fail(std::string(name) + " hold " + std::to_string(view.size()) +
           " entries, expected " + std::to_string(expected));
    }
    return view;
  }

  std::size_t remaining() const { return size_ - pos_; }

  /// Checks an untrusted element count against the bytes left: `n`
  /// records of at least `min_record_bytes` each must fit, so a corrupt
  /// count fails here by name instead of in a huge reserve().
  void check_count(std::uint64_t n, std::size_t min_record_bytes) const {
    if (n > remaining() / min_record_bytes) {
      fail("count " + std::to_string(n) + " exceeds the " +
           std::to_string(remaining()) + " byte(s) left");
    }
  }

  /// Fails unless the whole payload was consumed.
  void finish() const {
    if (remaining() != 0) {
      fail(std::to_string(remaining()) + " unexpected trailing byte(s)");
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

/// The enum stored in byte `v`, or a named failure for a byte past the
/// last enumerator.
template <typename E>
E to_enum(const Reader& r, std::uint8_t v) {
  E last;
  const char* what;
  if constexpr (std::is_same_v<E, TransistorType>) {
    last = TransistorType::kPEnhancement;
    what = "transistor type";
  } else if constexpr (std::is_same_v<E, Transition>) {
    last = Transition::kFall;
    what = "transition";
  } else {
    static_assert(std::is_same_v<E, Flow>);
    last = Flow::kDrainToSource;
    what = "flow annotation";
  }
  if (v > static_cast<std::uint8_t>(last)) {
    r.fail(std::string("bad ") + what + " " + std::to_string(v));
  }
  return static_cast<E>(v);
}

/// Checks every byte of an enum array (before its bytes are used).
template <typename E>
void check_enums(const Reader& r, const ArrayView<E>& a) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    (void)to_enum<E>(r, static_cast<std::uint8_t>(a[i]));
  }
}

Tech read_tech_section(Reader& r) {
  const std::string name = r.str();
  const double vdd = r.f64();
  Tech tech(name, vdd);
  for (const TransistorType t : kTypes) {
    DeviceParams& p = tech.params(t);
    for (double* v : {&p.vt, &p.kp, &p.lambda, &p.cox, &p.cov_w, &p.cj_w,
                      &p.r_up_sq, &p.r_down_sq}) {
      *v = r.f64();
    }
  }
  r.finish();
  return tech;
}

Netlist read_netlist_sections(Reader& nodes, Reader& devs) {
  const std::uint64_t node_count = nodes.u64();
  // Per node: a name length, at least one name byte, a capacitance,
  // flags and a pinned value.
  nodes.check_count(node_count, 4 + 1 + 8 + 1 + 1);
  const auto name_len = nodes.array<std::uint32_t>("name lengths", node_count);
  const auto names = nodes.array<char>("names");
  const auto cap = nodes.array<double>("capacitances", node_count);
  const auto flags = nodes.array<std::uint8_t>("flags", node_count);
  const auto fixed = nodes.array<std::int8_t>("pinned values", node_count);
  nodes.finish();

  const std::uint64_t device_count = devs.u64();
  // Per device: type and flow bytes, three terminals, two dimensions.
  devs.check_count(device_count, 2 + 3 * 4 + 2 * 8);
  const auto type = devs.array<TransistorType>("types", device_count);
  const auto gate = devs.array<std::uint32_t>("gates", device_count);
  const auto source = devs.array<std::uint32_t>("sources", device_count);
  const auto drain = devs.array<std::uint32_t>("drains", device_count);
  const auto width = devs.array<double>("widths", device_count);
  const auto length = devs.array<double>("lengths", device_count);
  const auto flow = devs.array<Flow>("flows", device_count);
  devs.finish();
  check_enums(devs, type);
  check_enums(devs, flow);

  Netlist nl;
  nl.reserve_nodes(node_count);
  std::size_t at = 0;
  for (std::size_t i = 0; i < node_count; ++i) {
    const std::uint32_t len = name_len[i];
    if (len == 0) nodes.fail("empty node name");
    if (len > names.size() - at) nodes.fail("names overrun their array");
    const std::string_view name(names.chars() + at, len);
    at += len;
    const double c = cap[i];
    const std::int8_t pinned = fixed[i];
    if (!std::isfinite(c) || c < 0.0) nodes.fail("bad node capacitance");
    if (flags[i] > 31) nodes.fail("bad node flags");
    if (pinned < -1 || pinned > 1) nodes.fail("bad pinned value");
    const NodeId id = nl.add_node(name);
    if (id.index() != i) {
      nodes.fail("duplicate node name '" + std::string(name) + "'");
    }
    Node& info = nl.node(id);
    const std::uint8_t f = flags[i];
    info.cap = c;
    info.is_power = (f & (1u << 0)) != 0;
    info.is_ground = (f & (1u << 1)) != 0;
    info.is_input = (f & (1u << 2)) != 0;
    info.is_output = (f & (1u << 3)) != 0;
    info.is_precharged = (f & (1u << 4)) != 0;
    info.fixed = pinned;
  }
  if (at != names.size()) nodes.fail("names do not match their lengths");

  std::vector<Transistor> transistors;
  transistors.reserve(device_count);
  for (std::size_t i = 0; i < device_count; ++i) {
    const NodeId g(gate[i]);
    const NodeId s(source[i]);
    const NodeId d(drain[i]);
    const double w = width[i];
    const double l = length[i];
    if (g.index() >= node_count || s.index() >= node_count ||
        d.index() >= node_count) {
      devs.fail("device terminal out of range");
    }
    if (s == d || !std::isfinite(w) || !(w > 0.0) || !std::isfinite(l) ||
        !(l > 0.0)) {
      devs.fail("bad device geometry");
    }
    transistors.push_back(Transistor{.type = type[i],
                                     .gate = g,
                                     .source = s,
                                     .drain = d,
                                     .width = w,
                                     .length = l,
                                     .flow = flow[i]});
  }
  nl.add_transistors(std::move(transistors));
  return nl;
}

ExtractOptions read_options_section(Reader& r, const Netlist& nl) {
  ExtractOptions opts;
  opts.max_depth = static_cast<int>(r.u32());
  opts.inputs_as_sources = r.u8() != 0;
  const auto node = r.array<std::uint32_t>("pinned nodes");
  const auto value = r.array<std::uint8_t>("pinned values", node.size());
  r.finish();
  for (std::size_t i = 0; i < node.size(); ++i) {
    if (node[i] >= nl.node_count()) r.fail("pinned node out of range");
    if (value[i] > 1) r.fail("bad pinned value");
    opts.fixed_values[NodeId(node[i])] = value[i] != 0;
  }
  return opts;
}

StageTable read_stages_section(Reader& r, const Netlist& nl) {
  const std::uint64_t count = r.u64();
  // Per stage: source, destination, trigger and path offset (u32 each)
  // and the bits byte.
  r.check_count(count, 4 * 4 + 1);
  StageTable::RawArrays a;
  a.source = r.array<NodeId>("sources", count).to_vector();
  a.destination = r.array<NodeId>("destinations", count).to_vector();
  a.trigger = r.array<DeviceId>("triggers", count).to_vector();
  a.bits = r.array<std::uint8_t>("stage bits", count).to_vector();
  a.offset = r.array<std::uint32_t>("path offsets", count + 1).to_vector();
  a.device = r.array<DeviceId>("path devices").to_vector();
  r.finish();

  const std::size_t nodes = nl.node_count();
  const std::size_t devices = nl.device_count();
  for (std::size_t i = 0; i < count; ++i) {
    if (a.source[i].index() >= nodes || a.destination[i].index() >= nodes ||
        a.trigger[i].index() >= devices) {
      r.fail("stage endpoint out of range");
    }
    if (a.bits[i] > StageTable::kAllBits) r.fail("bad stage bits");
  }
  if (a.offset[0] != 0 || a.offset[count] != a.device.size()) {
    r.fail("path offsets do not span the path devices");
  }
  for (std::size_t i = 0; i < count; ++i) {
    if (a.offset[i] > a.offset[i + 1]) r.fail("path offsets not monotonic");
  }
  for (const DeviceId d : a.device) {
    if (d.index() >= devices) r.fail("stage path device out of range");
  }
  return StageTable::from_arrays(std::move(a));
}

StageStore read_store_section(Reader& r) {
  StageStore::RawArrays a;
  a.for_each([&r]<typename T>(std::vector<T>& v) {
    const ArrayView<T> view = r.array<T>("store array");
    if constexpr (std::is_enum_v<T>) check_enums(r, view);
    v = view.to_vector();
  });
  r.finish();
  return StageStore::from_arrays(std::move(a));
}

PiecewiseLinear read_table(Reader& r) {
  const auto xs = r.array<double>("table abscissae");
  const auto ys = r.array<double>("table multipliers", xs.size());
  if (xs.size() == 0) r.fail("empty table");
  for (std::size_t i = 0; i < xs.size(); ++i) {
    // Lookups clamp to the boundary cells (slope_table.h), so every
    // cell must be usable: finite increasing x, finite positive y.
    if (!std::isfinite(xs[i]) || (i > 0 && !(xs[i] > xs[i - 1]))) {
      r.fail("table abscissae not finite and increasing");
    }
    if (!std::isfinite(ys[i]) || !(ys[i] > 0.0)) {
      r.fail("table multiplier not a finite positive number");
    }
  }
  return PiecewiseLinear(xs.to_vector(), ys.to_vector());
}

SlopeTables read_tables_section(Reader& r) {
  SlopeTables tables;
  const std::uint32_t count = r.u32();
  if (count > kTypes.size() * 2) r.fail("bad table count");
  for (std::uint32_t k = 0; k < count; ++k) {
    const auto type = to_enum<TransistorType>(r, r.u8());
    const auto dir = to_enum<Transition>(r, r.u8());
    if (tables.has(type, dir)) r.fail("repeated table entry");
    PiecewiseLinear delay = read_table(r);
    PiecewiseLinear slope = read_table(r);
    tables.set(type, dir, SlopeEntry{std::move(delay), std::move(slope)});
  }
  r.finish();
  return tables;
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
      StageTable stages, StageStore store) {
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
  Sink sizer;
  write_snapshot(sizer, design, tables);
  std::vector<std::uint8_t> out(sizer.size());
  Sink writer(out.data());
  write_snapshot(writer, design, tables);
  SLDM_ASSERT(writer.size() == out.size());
  return out;
}

LoadedDesign deserialize_design(std::span<const std::uint8_t> bytes,
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
  // payload window.  Every tag is known and appears at most once.
  std::size_t pos = bytes.size() - header.remaining();
  std::array<std::optional<Section>, kTags.size()> sections;
  while (pos < bytes.size()) {
    Reader sec(bytes.data() + pos, bytes.size() - pos, origin,
               "section table");
    const std::uint32_t tag = sec.u32();
    const std::uint64_t length = sec.u64();
    const std::uint64_t checksum = sec.u64();
    if (length > sec.remaining()) {
      throw Error("snapshot " + origin + ": section '" + tag_name(tag) +
                  "' truncated (declares " + std::to_string(length) +
                  " byte(s), " + std::to_string(sec.remaining()) +
                  " left in file)");
    }
    const std::uint8_t* payload = bytes.data() + pos + kSectionHeaderBytes;
    if (snapshot_checksum(payload, length) != checksum) {
      throw Error("snapshot " + origin + ": section '" + tag_name(tag) +
                  "' checksum mismatch (corrupted file?)");
    }
    const auto known = std::find(kTags.begin(), kTags.end(), tag);
    if (known == kTags.end()) {
      throw Error("snapshot " + origin + ": unknown section '" +
                  tag_name(tag) + "'");
    }
    std::optional<Section>& slot =
        sections[static_cast<std::size_t>(known - kTags.begin())];
    if (slot) {
      throw Error("snapshot " + origin + ": repeated section '" +
                  tag_name(tag) + "'");
    }
    slot = Section{payload, static_cast<std::size_t>(length)};
    pos += kSectionHeaderBytes + static_cast<std::size_t>(length);
  }

  const auto found = [&](std::uint32_t tag) -> const std::optional<Section>& {
    return sections[static_cast<std::size_t>(
        std::find(kTags.begin(), kTags.end(), tag) - kTags.begin())];
  };
  const auto section = [&](std::uint32_t tag, const char* what) {
    const std::optional<Section>& s = found(tag);
    if (!s) {
      throw Error("snapshot " + origin + ": missing section '" +
                  tag_name(tag) + "'");
    }
    return Reader(s->data, s->size, origin, what);
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
  StageTable stages = read_stages_section(stgs_r, nl);

  Reader stor_r = section(kTagStor, "STOR section");
  StageStore store = read_store_section(stor_r);
  if (store.size() != stages.size()) {
    throw Error("snapshot " + origin + ": stage store holds " +
                std::to_string(store.size()) + " stage(s) but " +
                std::to_string(stages.size()) + " were declared");
  }

  LoadedDesign loaded;
  if (found(kTagTbls)) {
    Reader tbls_r = section(kTagTbls, "TBLS section");
    loaded.slope_tables = read_tables_section(tbls_r);
  }
  loaded.design = SnapshotAccess::assemble(std::move(nl), std::move(tech),
                                           std::move(extract),
                                           std::move(stages),
                                           std::move(store));
  return loaded;
}

void save_design_file(const CompiledDesign& design, const std::string& path,
                      const SlopeTables* tables) {
  // Failpoint "snapshot.write": `error` refuses before the file is
  // touched; `partial` truncates to half the payload and throws --
  // leaving exactly the torn file a crash mid-write would, which the
  // loader must reject by section checksum, never accept.
  const bool partial = failpoint("snapshot.write");
  const std::vector<std::uint8_t> bytes = serialize_design(design, tables);
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
  const FileBytes file = read_regular_file(path, "snapshot");
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(file.data.get());
  return deserialize_design({bytes, partial ? file.size / 2 : file.size},
                            path);
}

}  // namespace sldm

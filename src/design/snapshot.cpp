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
#include "util/trace.h"

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

SnapshotChecksum::SnapshotChecksum()
    : lane_{kMulA, kMulB, ~kMulA, ~kMulB} {}

void SnapshotChecksum::update(const std::uint8_t* data, std::size_t n) {
  if (n == 0) return;
  length_ += n;
  if (pending_size_ != 0) {
    const std::size_t take = std::min(n, sizeof pending_ - pending_size_);
    std::memcpy(pending_ + pending_size_, data, take);
    pending_size_ += take;
    data += take;
    n -= take;
    if (pending_size_ < sizeof pending_) return;
    pending_size_ = 0;
    update_blocks(pending_, sizeof pending_);
  }
  const std::size_t whole = n - n % 32;
  update_blocks(data, whole);
  if (n != whole) std::memcpy(pending_, data + whole, n - whole);
  pending_size_ = n - whole;
}

void SnapshotChecksum::update_blocks(const std::uint8_t* data,
                                     std::size_t n) {
  // Locals, so the four lanes stay in registers across the loop.
  std::uint64_t a = lane_[0], b = lane_[1], c = lane_[2], d = lane_[3];
  for (std::size_t i = 0; i < n; i += 32) {
    a = mix(a, load_word(data + i));
    b = mix(b, load_word(data + i + 8));
    c = mix(c, load_word(data + i + 16));
    d = mix(d, load_word(data + i + 24));
  }
  lane_[0] = a, lane_[1] = b, lane_[2] = c, lane_[3] = d;
}

std::uint64_t SnapshotChecksum::value() const {
  // The last partial block: whole words feed lane 0, and the last 1-7
  // bytes, zero-padded, feed lane 1.
  std::uint64_t lane[4] = {lane_[0], lane_[1], lane_[2], lane_[3]};
  std::size_t i = 0;
  for (; i + 8 <= pending_size_; i += 8) {
    lane[0] = mix(lane[0], load_word(pending_ + i));
  }
  if (i < pending_size_) {
    std::uint64_t tail = 0;
    std::memcpy(&tail, pending_ + i, pending_size_ - i);
    lane[1] = mix(lane[1], tail);
  }
  std::uint64_t h = mix(0, length_);
  for (const std::uint64_t l : lane) h = mix(h, l);
  h ^= h >> 32;  // xor-shifts and odd multiplies: still a bijection
  h *= kMulA;
  h ^= h >> 29;
  return h;
}

std::uint64_t snapshot_checksum(const std::uint8_t* data, std::size_t n) {
  SnapshotChecksum sum;
  sum.update(data, n);
  return sum.value();
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

// --- Writing: one layout walk, over several kinds of sink ---------------
//
// write_snapshot() walks the layout over a Sink.  A counting sink only
// adds up sizes; the others receive every byte.  Each section is walked
// twice into the output: once through a HashSink for its length and
// checksum, which reads the arrays where they live, and once more for
// the header and the payload themselves.

class Sink {
 public:
  /// A sink that only counts bytes.
  Sink() = default;
  virtual ~Sink() = default;
  Sink(const Sink&) = delete;
  Sink& operator=(const Sink&) = delete;

  bool counting() const { return counting_; }
  std::size_t size() const { return size_; }

  void raw(const void* src, std::size_t n) {
    if (!counting_ && n != 0) emit(static_cast<const std::uint8_t*>(src), n);
    size_ += n;
  }
  /// Counts `n` bytes whose contents a counting sink never needs.
  void skip(std::size_t n) {
    SLDM_ASSERT(counting_);
    size_ += n;
  }

 protected:
  explicit Sink(bool counting) : counting_(counting) {}
  virtual void emit(const std::uint8_t*, std::size_t) {}

 private:
  bool counting_ = true;
  std::size_t size_ = 0;
};

/// Hashes what it receives: a section's length and checksum.
class HashSink final : public Sink {
 public:
  HashSink() : Sink(false) {}
  std::uint64_t checksum() const { return sum_.value(); }

 private:
  void emit(const std::uint8_t* src, std::size_t n) override {
    sum_.update(src, n);
  }
  SnapshotChecksum sum_;
};

/// Appends to a byte vector.
class MemorySink final : public Sink {
 public:
  explicit MemorySink(std::vector<std::uint8_t>& out)
      : Sink(false), out_(out) {}

 private:
  void emit(const std::uint8_t* src, std::size_t n) override {
    // resize + memcpy, not insert(): GCC 12 at -O3 reports a false
    // -Wstringop-overflow on the devirtualized insert.
    const std::size_t at = out_.size();
    out_.resize(at + n);
    std::memcpy(out_.data() + at, src, n);
  }
  std::vector<std::uint8_t>& out_;
};

/// Writes to a new file.  Bytes past `limit` are dropped (the
/// `snapshot.write` partial failpoint).
class FileSink final : public Sink {
 public:
  FileSink(const std::string& path, std::size_t limit)
      : Sink(false), out_(path, std::ios::binary | std::ios::trunc),
        limit_(limit) {
    if (!out_) throw Error("cannot create snapshot file " + path);
  }

  /// Flushes; false if any write failed.
  bool flush() { return static_cast<bool>(out_.flush()); }

 private:
  void emit(const std::uint8_t* src, std::size_t n) override {
    n = std::min(n, limit_ - std::min(limit_, written_));
    written_ += n;
    // The stream writes a large array with its own write(), past its
    // buffer.
    out_.write(reinterpret_cast<const char*>(src),
               static_cast<std::streamsize>(n));
  }

  std::ofstream out_;
  std::size_t limit_;
  std::size_t written_ = 0;
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
  if (s.counting()) {
    put<std::uint64_t>(s, n);
    s.skip(n * sizeof(T));
    return;
  }
  std::vector<T> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<T>(element(i));
  put_array(s, v);
}

/// A section: [tag u32][length u64][checksum u64][payload].  `body(sink)`
/// writes the payload; outside a count it runs twice, first into a
/// HashSink for the header.
template <typename Body>
void put_section(Sink& s, std::uint32_t tag, Body&& body) {
  if (s.counting()) {
    s.skip(kSectionHeaderBytes);
    body(s);
    return;
  }
  HashSink payload;
  body(payload);
  put<std::uint32_t>(s, tag);
  put<std::uint64_t>(s, payload.size());
  put<std::uint64_t>(s, payload.checksum());
  body(s);
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
  if (s.counting()) {
    s.skip(name_bytes);
  } else {
    std::string names;
    names.reserve(name_bytes);
    for (std::size_t i = 0; i < n; ++i) names += node(i).name.view();
    s.raw(names.data(), names.size());
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
  put_section(s, kTagTech, [&](Sink& out) { write_tech(out, design.tech()); });
  put_section(s, kTagNode, [&](Sink& out) { write_nodes(out, nl); });
  put_section(s, kTagDevs, [&](Sink& out) { write_devices(out, nl); });
  put_section(s, kTagOpts, [&](Sink& out) {
    write_options(out, design.extract_options());
  });
  put_section(s, kTagStgs,
              [&](Sink& out) { write_stages(out, design.stages()); });
  put_section(s, kTagStor, [&](Sink& out) {
    design.stage_store().for_each_array(
        [&out](const auto& v) { put_array(out, v); });
  });
  if (tables != nullptr) {
    put_section(s, kTagTbls,
                [&](Sink& out) { write_tables(out, *tables); });
  }
}

// --- Reading: one walk over the file or a memory span --------------------

[[noreturn]] void fail_in(const std::string& origin, const std::string& what,
                          const std::string& why) {
  throw Error("snapshot " + origin + ": " + what + ": " + why);
}

/// Bytes a decode walk reads in order: a file or a memory span.
class ByteSource {
 public:
  /// The first `size` bytes of `file`.
  ByteSource(RegularFile& file, std::size_t size)
      : file_(&file), left_(size) {}
  explicit ByteSource(std::span<const std::uint8_t> bytes)
      : at_(bytes.data()), left_(bytes.size()) {}

  /// Bytes not yet read.
  std::size_t remaining() const { return left_; }

  /// Reads the next `n` (at most remaining()) bytes into `dst`, feeding
  /// them to `sum` in pieces small enough to be hashed while they are
  /// still in cache.
  void read(void* dst, std::size_t n, SnapshotChecksum& sum) {
    SLDM_ASSERT(n <= left_);
    auto* out = static_cast<std::uint8_t*>(dst);
    for (std::size_t done = 0; done < n;) {
      const std::size_t piece = std::min(n - done, kPieceBytes);
      if (file_ != nullptr) {
        file_->read(out + done, piece);
      } else {
        std::memcpy(out + done, at_, piece);
        at_ += piece;
      }
      sum.update(out + done, piece);
      done += piece;
    }
    left_ -= n;
  }

 private:
  static constexpr std::size_t kPieceBytes = 256 * 1024;
  RegularFile* file_ = nullptr;
  const std::uint8_t* at_ = nullptr;
  std::size_t left_;
};

/// A section header's tag and checksum.
struct Seal {
  std::uint32_t tag;
  std::uint64_t checksum;
};

/// Bounds-checked reader over the next `length` bytes of a source: the
/// fixed header, a section header, or a sealed section payload.  Every
/// read throws a truncation Error instead of walking off the end, and
/// every count is bounded by the bytes left before anything is
/// allocated for it, so short or corrupt input fails by name wherever
/// the damage lands.  A payload is hashed as it is read; finish()
/// verifies its checksum, and so does any failure first (after reading
/// the rest of the payload), so a corrupted section is reported as a
/// checksum mismatch whichever value the corruption hit.
class SectionReader {
 public:
  SectionReader(ByteSource& src, std::size_t length, const std::string& origin,
                std::string what, std::optional<Seal> seal = std::nullopt)
      : src_(src),
        left_(length),
        origin_(origin),
        what_(std::move(what)),
        seal_(seal) {}

  template <typename T>
  T scalar() {
    T v{};
    take(&v, sizeof v);
    return v;
  }
  std::uint8_t u8() { return scalar<std::uint8_t>(); }
  std::uint32_t u32() { return scalar<std::uint32_t>(); }
  std::uint64_t u64() { return scalar<std::uint64_t>(); }
  double f64() { return scalar<double>(); }

  std::string str() {
    const std::uint32_t n = u32();
    std::string s;
    if (n <= left_) s.resize(n);  // else take() fails before writing
    take(s.data(), n);
    return s;
  }

  /// The next array ([count u64][count elements]), read straight into
  /// its own vector once the count is checked against the bytes left.
  template <typename T>
  std::vector<T> array(const char* name) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::uint64_t n = u64();
    if (n > left_ / sizeof(T)) {
      fail(std::string(name) + " count " + std::to_string(n) +
           " exceeds the " + std::to_string(left_) + " byte(s) left");
    }
    std::vector<T> v(static_cast<std::size_t>(n));
    take(v.data(), v.size() * sizeof(T));
    return v;
  }

  /// array() that must hold exactly `expected` elements (an array
  /// parallel to a count read earlier).
  template <typename T>
  std::vector<T> array(const char* name, std::uint64_t expected) {
    std::vector<T> v = array<T>(name);
    if (v.size() != expected) {
      fail(std::string(name) + " hold " + std::to_string(v.size()) +
           " entries, expected " + std::to_string(expected));
    }
    return v;
  }

  /// Checks an untrusted element count against the bytes left: `n`
  /// records of at least `min_record_bytes` each must fit, so a corrupt
  /// count fails here by name instead of in a huge reserve().
  void check_count(std::uint64_t n, std::size_t min_record_bytes) {
    if (n > left_ / min_record_bytes) {
      fail("count " + std::to_string(n) + " exceeds the " +
           std::to_string(left_) + " byte(s) left");
    }
  }

  /// Fails unless the whole payload was consumed, then verifies the
  /// checksum.  Values read from a sealed payload are checked and used
  /// only after this.
  void finish() {
    if (left_ != 0) {
      fail(std::to_string(left_) + " unexpected trailing byte(s)");
    }
    verify();
  }

  [[noreturn]] void fail(const std::string& why) {
    if (seal_) {
      std::vector<std::uint8_t> rest(std::min<std::size_t>(left_, 1 << 16));
      while (left_ != 0) {
        const std::size_t n = std::min(left_, rest.size());
        src_.read(rest.data(), n, sum_);
        left_ -= n;
      }
      verify();
    }
    fail_in(origin_, what_, why);
  }

 private:
  void take(void* dst, std::size_t n) {
    if (left_ < n) {
      fail("truncated (wanted " + std::to_string(n) + " more byte(s), " +
           std::to_string(left_) + " left)");
    }
    src_.read(dst, n, sum_);
    left_ -= n;
  }

  void verify() const {
    if (seal_ && sum_.value() != seal_->checksum) {
      throw Error("snapshot " + origin_ + ": section '" +
                  tag_name(seal_->tag) +
                  "' checksum mismatch (corrupted file?)");
    }
  }

  ByteSource& src_;
  std::size_t left_;
  const std::string& origin_;
  std::string what_;
  std::optional<Seal> seal_;
  SnapshotChecksum sum_;
};

/// The enum stored in byte `v`, or a named failure for a byte past the
/// last enumerator.
template <typename E>
E to_enum(SectionReader& r, std::uint8_t v) {
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

/// Checks every byte of an enum array before its values are used.
template <typename E>
void check_enums(SectionReader& r, const std::vector<E>& a) {
  for (const E e : a) (void)to_enum<E>(r, static_cast<std::uint8_t>(e));
}

Tech read_tech_section(SectionReader& r) {
  const std::string name = r.str();
  const double vdd = r.f64();
  std::array<double, kTypes.size() * 8> params{};
  for (double& v : params) v = r.f64();
  r.finish();
  if (!std::isfinite(vdd) || !(vdd > 0.0)) r.fail("bad Vdd");
  Tech tech(name, vdd);
  const double* v = params.data();
  for (const TransistorType t : kTypes) {
    DeviceParams& p = tech.params(t);
    for (double* field : {&p.vt, &p.kp, &p.lambda, &p.cox, &p.cov_w, &p.cj_w,
                          &p.r_up_sq, &p.r_down_sq}) {
      *field = *v++;
    }
  }
  return tech;
}

/// NODE, as stored.
struct NodeArrays {
  std::vector<std::uint32_t> name_len;
  std::vector<char> names;
  std::vector<double> cap;
  std::vector<std::uint8_t> flags;
  std::vector<std::int8_t> fixed;
};

NodeArrays read_nodes_section(SectionReader& r) {
  const std::uint64_t count = r.u64();
  // Per node: a name length, at least one name byte, a capacitance,
  // flags and a pinned value.
  r.check_count(count, 4 + 1 + 8 + 1 + 1);
  NodeArrays a;
  a.name_len = r.array<std::uint32_t>("name lengths", count);
  a.names = r.array<char>("names");
  a.cap = r.array<double>("capacitances", count);
  a.flags = r.array<std::uint8_t>("flags", count);
  a.fixed = r.array<std::int8_t>("pinned values", count);
  r.finish();
  return a;
}

/// DEVS, as stored (enum bytes checked).
struct DeviceArrays {
  std::vector<TransistorType> type;
  std::vector<std::uint32_t> gate, source, drain;
  std::vector<double> width, length;
  std::vector<Flow> flow;
};

DeviceArrays read_devices_section(SectionReader& r) {
  const std::uint64_t count = r.u64();
  // Per device: type and flow bytes, three terminals, two dimensions.
  r.check_count(count, 2 + 3 * 4 + 2 * 8);
  DeviceArrays a;
  a.type = r.array<TransistorType>("types", count);
  a.gate = r.array<std::uint32_t>("gates", count);
  a.source = r.array<std::uint32_t>("sources", count);
  a.drain = r.array<std::uint32_t>("drains", count);
  a.width = r.array<double>("widths", count);
  a.length = r.array<double>("lengths", count);
  a.flow = r.array<Flow>("flows", count);
  r.finish();
  check_enums(r, a.type);
  check_enums(r, a.flow);
  return a;
}

/// The netlist of NODE and DEVS (taken by value: they are freed as soon
/// as it is built).
Netlist build_netlist(NodeArrays nodes, DeviceArrays devs,
                      const std::string& origin) {
  const auto node_fail = [&origin](const std::string& why) {
    fail_in(origin, "NODE section", why);
  };
  const auto dev_fail = [&origin](const char* why) {
    fail_in(origin, "DEVS section", why);
  };
  TraceSpan span("build-netlist", "design");
  const std::size_t node_count = nodes.name_len.size();
  Netlist nl;
  nl.set_journaling(false);  // a construction: see ChangeLog's baseline
  nl.reserve_nodes(node_count);
  std::size_t at = 0;
  for (std::size_t i = 0; i < node_count; ++i) {
    const std::uint32_t len = nodes.name_len[i];
    if (len == 0) node_fail("empty node name");
    if (len > nodes.names.size() - at) node_fail("names overrun their array");
    const std::string_view name(nodes.names.data() + at, len);
    at += len;
    const double c = nodes.cap[i];
    const std::int8_t pinned = nodes.fixed[i];
    if (!std::isfinite(c) || c < 0.0) node_fail("bad node capacitance");
    if (nodes.flags[i] > 31) node_fail("bad node flags");
    if (pinned < -1 || pinned > 1) node_fail("bad pinned value");
    const NodeId id = nl.add_node(name);
    if (id.index() != i) {
      node_fail("duplicate node name '" + std::string(name) + "'");
    }
    Node& info = nl.node(id);
    const std::uint8_t f = nodes.flags[i];
    info.cap = c;
    info.is_power = (f & (1u << 0)) != 0;
    info.is_ground = (f & (1u << 1)) != 0;
    info.is_input = (f & (1u << 2)) != 0;
    info.is_output = (f & (1u << 3)) != 0;
    info.is_precharged = (f & (1u << 4)) != 0;
    info.fixed = pinned;
  }
  if (at != nodes.names.size()) node_fail("names do not match their lengths");

  const std::size_t device_count = devs.type.size();
  std::vector<Transistor> transistors;
  transistors.reserve(device_count);
  for (std::size_t i = 0; i < device_count; ++i) {
    const NodeId g(devs.gate[i]);
    const NodeId s(devs.source[i]);
    const NodeId d(devs.drain[i]);
    const double w = devs.width[i];
    const double l = devs.length[i];
    if (g.index() >= node_count || s.index() >= node_count ||
        d.index() >= node_count) {
      dev_fail("device terminal out of range");
    }
    if (s == d || !std::isfinite(w) || !(w > 0.0) || !std::isfinite(l) ||
        !(l > 0.0)) {
      dev_fail("bad device geometry");
    }
    transistors.push_back(Transistor{.type = devs.type[i],
                                     .gate = g,
                                     .source = s,
                                     .drain = d,
                                     .width = w,
                                     .length = l,
                                     .flow = devs.flow[i]});
  }
  nl.add_transistors(std::move(transistors));
  nl.set_journaling(true);
  return nl;
}

/// OPTS, as stored; checked against the netlist by build_options().
struct OptionArrays {
  std::uint32_t max_depth = 0;
  std::uint8_t inputs_as_sources = 0;
  std::vector<std::uint32_t> node;
  std::vector<std::uint8_t> value;
};

OptionArrays read_options_section(SectionReader& r) {
  OptionArrays a;
  a.max_depth = r.u32();
  a.inputs_as_sources = r.u8();
  a.node = r.array<std::uint32_t>("pinned nodes");
  a.value = r.array<std::uint8_t>("pinned values", a.node.size());
  r.finish();
  return a;
}

ExtractOptions build_options(const OptionArrays& a, const Netlist& nl,
                             const std::string& origin) {
  ExtractOptions opts;
  opts.max_depth = static_cast<int>(a.max_depth);
  opts.inputs_as_sources = a.inputs_as_sources != 0;
  for (std::size_t i = 0; i < a.node.size(); ++i) {
    if (a.node[i] >= nl.node_count()) {
      fail_in(origin, "OPTS section", "pinned node out of range");
    }
    if (a.value[i] > 1) fail_in(origin, "OPTS section", "bad pinned value");
    opts.fixed_values[NodeId(a.node[i])] = a.value[i] != 0;
  }
  return opts;
}

/// STGS, straight into the table's arrays; returns the stage count.
/// Values are checked against the netlist by check_stages().
std::uint64_t read_stages_section(SectionReader& r,
                                  StageTable::RawArrays& a) {
  const std::uint64_t count = r.u64();
  // Per stage: source, destination, trigger and path offset (u32 each)
  // and the bits byte.
  r.check_count(count, 4 * 4 + 1);
  a.source = r.array<NodeId>("sources", count);
  a.destination = r.array<NodeId>("destinations", count);
  a.trigger = r.array<DeviceId>("triggers", count);
  a.bits = r.array<std::uint8_t>("stage bits", count);
  a.offset = r.array<std::uint32_t>("path offsets", count + 1);
  a.device = r.array<DeviceId>("path devices");
  r.finish();
  return count;
}

void check_stages(const StageTable::RawArrays& a, std::uint64_t count,
                  const Netlist& nl, const std::string& origin) {
  const auto fail = [&origin](const char* why) {
    fail_in(origin, "STGS section", why);
  };
  const std::size_t nodes = nl.node_count();
  const std::size_t devices = nl.device_count();
  for (std::size_t i = 0; i < count; ++i) {
    if (a.source[i].index() >= nodes || a.destination[i].index() >= nodes ||
        a.trigger[i].index() >= devices) {
      fail("stage endpoint out of range");
    }
    if (a.bits[i] > StageTable::kAllBits) fail("bad stage bits");
  }
  if (a.offset[0] != 0 || a.offset[count] != a.device.size()) {
    fail("path offsets do not span the path devices");
  }
  for (std::size_t i = 0; i < count; ++i) {
    if (a.offset[i] > a.offset[i + 1]) fail("path offsets not monotonic");
  }
  for (const DeviceId d : a.device) {
    if (d.index() >= devices) fail("stage path device out of range");
  }
}

/// STOR, straight into the store's arrays (enum bytes checked).
void read_store_section(SectionReader& r, StageStore::RawArrays& a) {
  a.for_each([&r]<typename T>(std::vector<T>& v) {
    v = r.array<T>("store array");
  });
  r.finish();
  a.for_each([&r]<typename T>(std::vector<T>& v) {
    if constexpr (std::is_enum_v<T>) check_enums(r, v);
  });
}

PiecewiseLinear make_table(SectionReader& r, std::vector<double> xs,
                           std::vector<double> ys) {
  if (xs.empty()) r.fail("empty table");
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
  return PiecewiseLinear(std::move(xs), std::move(ys));
}

SlopeTables read_tables_section(SectionReader& r) {
  const std::uint32_t count = r.u32();
  if (count > kTypes.size() * 2) r.fail("bad table count");
  struct Entry {
    std::uint8_t type, dir;
    std::vector<double> delay_x, delay_y, slope_x, slope_y;
  };
  std::vector<Entry> entries(count);
  for (Entry& e : entries) {
    e.type = r.u8();
    e.dir = r.u8();
    e.delay_x = r.array<double>("table abscissae");
    e.delay_y = r.array<double>("table multipliers", e.delay_x.size());
    e.slope_x = r.array<double>("table abscissae");
    e.slope_y = r.array<double>("table multipliers", e.slope_x.size());
  }
  r.finish();
  SlopeTables tables;
  for (Entry& e : entries) {
    const auto type = to_enum<TransistorType>(r, e.type);
    const auto dir = to_enum<Transition>(r, e.dir);
    if (tables.has(type, dir)) r.fail("repeated table entry");
    PiecewiseLinear delay =
        make_table(r, std::move(e.delay_x), std::move(e.delay_y));
    PiecewiseLinear slope =
        make_table(r, std::move(e.slope_x), std::move(e.slope_y));
    tables.set(type, dir, SlopeEntry{std::move(delay), std::move(slope)});
  }
  return tables;
}

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
    design->index_stages();
    design->recount_stages_per_ccc();
    design->refresh_census();
    design->fingerprint_ = tech_fingerprint(*design->tech_);
    design->built_revision_ = design->nl_->revision();
    design->extract_seconds_ = 0.0;  // the whole point of loading
    SLDM_ENSURES(design->nl_->adjacency_fresh());  // add_transistors
    return design;
  }
};

namespace {

/// The decode walk over one source.  Sections are read in file order,
/// each verified by its checksum before any of its values is checked;
/// the checks that span sections run once every section is in, so the
/// order of sections in the file is free.
LoadedDesign decode(ByteSource& src, const std::string& origin) {
  SectionReader header(src, std::min<std::size_t>(16, src.remaining()),
                       origin, "header");
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

  // Every tag is known and appears at most once.
  std::array<bool, kTags.size()> seen{};
  std::optional<Tech> tech;
  NodeArrays nodes;
  DeviceArrays devs;
  OptionArrays options;
  StageTable::RawArrays stage_arrays;
  std::uint64_t stage_count = 0;
  StageStore::RawArrays store_arrays;
  LoadedDesign loaded;
  while (src.remaining() > 0) {
    SectionReader sec(src,
                      std::min<std::size_t>(kSectionHeaderBytes,
                                            src.remaining()),
                      origin, "section table");
    const std::uint32_t tag = sec.u32();
    const std::uint64_t length = sec.u64();
    const std::uint64_t checksum = sec.u64();
    if (length > src.remaining()) {
      throw Error("snapshot " + origin + ": section '" + tag_name(tag) +
                  "' truncated (declares " + std::to_string(length) +
                  " byte(s), " + std::to_string(src.remaining()) +
                  " left in file)");
    }
    const auto known = std::find(kTags.begin(), kTags.end(), tag);
    if (known == kTags.end()) {
      throw Error("snapshot " + origin + ": unknown section '" +
                  tag_name(tag) + "'");
    }
    bool& once = seen[static_cast<std::size_t>(known - kTags.begin())];
    if (once) {
      throw Error("snapshot " + origin + ": repeated section '" +
                  tag_name(tag) + "'");
    }
    once = true;
    SectionReader r(src, static_cast<std::size_t>(length), origin,
                    tag_name(tag) + " section", Seal{tag, checksum});
    if (tag == kTagTech) tech = read_tech_section(r);
    if (tag == kTagNode) nodes = read_nodes_section(r);
    if (tag == kTagDevs) devs = read_devices_section(r);
    if (tag == kTagOpts) options = read_options_section(r);
    if (tag == kTagStgs) stage_count = read_stages_section(r, stage_arrays);
    if (tag == kTagStor) read_store_section(r, store_arrays);
    if (tag == kTagTbls) loaded.slope_tables = read_tables_section(r);
  }

  for (std::size_t k = 0; k < kTags.size(); ++k) {
    if (!seen[k] && kTags[k] != kTagTbls) {
      throw Error("snapshot " + origin + ": missing section '" +
                  tag_name(kTags[k]) + "'");
    }
  }
  if (tech_fingerprint(*tech) != claimed_fingerprint) {
    throw Error("snapshot " + origin +
                ": technology fingerprint does not match the embedded "
                "parameters (corrupted file?)");
  }
  Netlist nl = build_netlist(std::move(nodes), std::move(devs), origin);
  ExtractOptions extract = build_options(options, nl, origin);
  check_stages(stage_arrays, stage_count, nl, origin);
  StageTable stages = StageTable::from_arrays(std::move(stage_arrays));
  StageStore store = StageStore::from_arrays(std::move(store_arrays));
  if (store.size() != stages.size()) {
    throw Error("snapshot " + origin + ": stage store holds " +
                std::to_string(store.size()) + " stage(s) but " +
                std::to_string(stages.size()) + " were declared");
  }
  loaded.design = SnapshotAccess::assemble(std::move(nl), std::move(*tech),
                                           std::move(extract),
                                           std::move(stages),
                                           std::move(store));
  return loaded;
}

}  // namespace

std::vector<std::uint8_t> serialize_design(const CompiledDesign& design,
                                           const SlopeTables* tables) {
  Sink counter;
  write_snapshot(counter, design, tables);
  std::vector<std::uint8_t> out;
  out.reserve(counter.size());
  MemorySink writer(out);
  write_snapshot(writer, design, tables);
  SLDM_ASSERT(out.size() == counter.size());
  return out;
}

LoadedDesign deserialize_design(std::span<const std::uint8_t> bytes,
                                const std::string& origin) {
  ByteSource src(bytes);
  return decode(src, origin);
}

void save_design_file(const CompiledDesign& design, const std::string& path,
                      const SlopeTables* tables) {
  TraceSpan span("write", "design");
  // Failpoint "snapshot.write": `error` refuses before the file is
  // touched; `partial` writes only the first half of the bytes and
  // throws -- leaving exactly the torn file a crash mid-write would,
  // which the loader must reject by section checksum, never accept.
  const bool partial = failpoint("snapshot.write");
  std::size_t limit = SIZE_MAX;
  if (partial) {
    Sink counter;
    write_snapshot(counter, design, tables);
    limit = counter.size() / 2;
  }
  FileSink out(path, limit);
  write_snapshot(out, design, tables);
  if (!out.flush() || partial) {
    throw Error("short write to snapshot file " + path);
  }
}

LoadedDesign load_design_file(const std::string& path) {
  TraceSpan span("read", "design");
  // Failpoint "snapshot.read": `error` models an unreadable file;
  // `partial` models a read that sees EOF at half the file -- the
  // decoder must turn either into a named rejection, never a crash or
  // a wrong design.
  const bool partial = failpoint("snapshot.read");
  RegularFile file(path, "snapshot");
  ByteSource src(file, partial ? file.size() / 2 : file.size());
  return decode(src, path);
}

}  // namespace sldm

// The .sldc compiled-design snapshot (FORMATS.md section 11):
// analysis over a serialize -> deserialize round trip must be
// bit-identical to direct analysis -- arrivals, critical paths, and
// explain traces, across every generator family -- and corrupted, truncated, or version-skewed files must be rejected
// with an Error naming the problem.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "cli/cli.h"
#include "delay/rctree.h"
#include "delay/slope.h"
#include "design/compiled_design.h"
#include "design/snapshot.h"
#include "gen/generators.h"
#include "tech/tech.h"
#include "timing/analyzer.h"
#include "timing/explain.h"
#include "util/error.h"

namespace sldm {
namespace {

constexpr Seconds kSlope = 1e-9;

const Tech& tech_for(const GeneratedCircuit& g) {
  static const Tech nmos = nmos4();
  static const Tech cmos = cmos3();
  return g.style == Style::kNmos ? nmos : cmos;
}

/// One circuit per generator family in src/gen (same roster as
/// tests/parallel_timing_test.cpp).
std::vector<GeneratedCircuit> generator_suite() {
  std::vector<GeneratedCircuit> out;
  out.push_back(inverter_chain(Style::kCmos, 8, 3));
  out.push_back(inverter_chain(Style::kNmos, 6, 2));
  out.push_back(nand_chain(Style::kCmos, 3));
  out.push_back(nor_chain(Style::kNmos, 3));
  out.push_back(pass_chain(Style::kNmos, 5));
  out.push_back(barrel_shifter(Style::kCmos, 4));
  out.push_back(manchester_carry(Style::kNmos, 6));
  out.push_back(precharged_bus(Style::kCmos, 5));
  out.push_back(driver_chain(Style::kCmos, 4, 2.5, 80.0));
  out.push_back(address_decoder(Style::kCmos, 3));
  out.push_back(pla(Style::kCmos, 4, 5, 3, 0x1234));
  out.push_back(shift_register(Style::kCmos, 3));
  out.push_back(sram_read_column(Style::kNmos, 6));
  out.push_back(random_logic(Style::kCmos, 6, 10, 0xABCD));
  return out;
}

std::vector<std::uint8_t> snapshot_of(const GeneratedCircuit& g) {
  const auto design = CompiledDesign::compile(g.netlist, tech_for(g));
  return serialize_design(*design);
}

void expect_load_error(std::vector<std::uint8_t> bytes,
                       const std::string& expected_substring) {
  try {
    deserialize_design(bytes, "<test>");
    FAIL() << "load succeeded; expected an Error mentioning '"
           << expected_substring << "'";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(expected_substring),
              std::string::npos)
        << "actual message: " << e.what();
  }
}

TEST(Snapshot, RoundTripIsBitIdenticalAcrossGeneratorFamilies) {
  const RcTreeModel model;
  for (const GeneratedCircuit& g : generator_suite()) {
    SCOPED_TRACE(g.name);
    const Tech& tech = tech_for(g);
    const LoadedDesign loaded =
        deserialize_design(snapshot_of(g), g.name);
    ASSERT_NE(loaded.design, nullptr);
    EXPECT_EQ(loaded.design->extract_seconds(), 0.0);
    EXPECT_EQ(loaded.design->fingerprint(), tech_fingerprint(tech));

    TimingAnalyzer direct(g.netlist, tech, model);
    TimingAnalyzer reloaded(loaded.design, model);
    direct.add_all_input_events(kSlope);
    reloaded.add_all_input_events(kSlope);
    direct.run();
    reloaded.run();

    ASSERT_EQ(direct.stages().size(), reloaded.stages().size());
    for (NodeId n : g.netlist.all_nodes()) {
      for (Transition dir : {Transition::kRise, Transition::kFall}) {
        const auto a = direct.arrival(n, dir);
        const auto b = reloaded.arrival(n, dir);
        ASSERT_EQ(a.has_value(), b.has_value())
            << g.netlist.node(n).name << ' ' << to_string(dir);
        if (!a) continue;
        EXPECT_EQ(a->time, b->time);
        EXPECT_EQ(a->slope, b->slope);
        EXPECT_EQ(a->from_node, b->from_node);
        EXPECT_EQ(a->from_dir, b->from_dir);
        EXPECT_EQ(a->via_stage, b->via_stage);
      }
    }

    const auto worst = direct.worst_arrival(/*outputs_only=*/false);
    ASSERT_TRUE(worst.has_value());
    const auto pa = direct.critical_path(worst->node, worst->dir);
    const auto pb = reloaded.critical_path(worst->node, worst->dir);
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i) {
      EXPECT_EQ(pa[i].node, pb[i].node);
      EXPECT_EQ(pa[i].dir, pb[i].dir);
      EXPECT_EQ(pa[i].time, pb[i].time);
      EXPECT_EQ(pa[i].slope, pb[i].slope);
      EXPECT_EQ(pa[i].description, pb[i].description);
    }

    const ExplainReport ea =
        explain_arrival(direct, worst->node, worst->dir);
    const ExplainReport eb =
        explain_arrival(reloaded, worst->node, worst->dir);
    EXPECT_EQ(ea.arrival, eb.arrival);
    ASSERT_EQ(ea.steps.size(), eb.steps.size());
    for (std::size_t i = 0; i < ea.steps.size(); ++i) {
      EXPECT_EQ(ea.steps[i].node, eb.steps[i].node);
      EXPECT_EQ(ea.steps[i].arrival, eb.steps[i].arrival);
      EXPECT_EQ(ea.steps[i].slope, eb.steps[i].slope);
      EXPECT_EQ(ea.steps[i].delay, eb.steps[i].delay);
      EXPECT_EQ(ea.steps[i].stage, eb.steps[i].stage);
    }

  }
}

/// Format 2 is frozen: the bytes of a fixed design are pinned by their
/// FNV-1a hash, recorded when the stage table replaced per-stage
/// records.  A change to the STGS/STOR layout, the stage order or any
/// baked double moves the hash; such a change needs a new format
/// version, not a new pin.
TEST(Snapshot, FormatTwoBytesArePinned) {
  constexpr std::uint64_t kPinnedFnv = 0x5785eb16f2aeaff9ull;
  constexpr std::size_t kPinnedBytes = 203435;
  const GeneratedCircuit g = random_logic(Style::kCmos, 8, 32, 7);
  for (const int threads : {1, 4}) {
    const auto design = CompiledDesign::compile(
        g.netlist, cmos3(), CompileOptions{{}, threads});
    const std::vector<std::uint8_t> bytes = serialize_design(*design);
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const std::uint8_t b : bytes) {
      hash ^= b;
      hash *= 0x100000001b3ull;
    }
    EXPECT_EQ(bytes.size(), kPinnedBytes) << "threads=" << threads;
    EXPECT_EQ(hash, kPinnedFnv) << "threads=" << threads;
  }
}

TEST(Snapshot, FileRoundTripPreservesEmbeddedSlopeTables) {
  const GeneratedCircuit g = nand_chain(Style::kCmos, 3);
  const Tech& tech = tech_for(g);
  const auto design = CompiledDesign::compile(g.netlist, tech);
  const SlopeTables tables = SlopeTables::unit();
  const std::string path = "/tmp/sldm_snapshot_test.sldc";
  save_design_file(*design, path, &tables);
  const LoadedDesign loaded = load_design_file(path);
  std::remove(path.c_str());

  ASSERT_TRUE(loaded.slope_tables.has_value());
  const SlopeModel direct_model(SlopeTables::unit());
  const SlopeModel loaded_model(*loaded.slope_tables);
  TimingAnalyzer direct(g.netlist, tech, direct_model);
  TimingAnalyzer reloaded(loaded.design, loaded_model);
  direct.add_all_input_events(kSlope);
  reloaded.add_all_input_events(kSlope);
  direct.run();
  reloaded.run();
  const auto a = direct.worst_arrival(true);
  const auto b = reloaded.worst_arrival(true);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->time, b->time);
}

TEST(Snapshot, LoadedDesignSupportsEcoUpdates) {
  const GeneratedCircuit g = inverter_chain(Style::kCmos, 5, 2);
  LoadedDesign loaded = deserialize_design(snapshot_of(g), g.name);
  const RcTreeModel model;
  // Moved in, not copied: a handle left outstanding would (correctly)
  // make update() refuse under the single-writer discipline.
  TimingAnalyzer analyzer(std::move(loaded.design), model);
  analyzer.add_all_input_events(kSlope);
  analyzer.run();

  Netlist& nl = analyzer.mutable_netlist();
  nl.set_capacitance(*nl.find_node("s2"), 25e-15);
  analyzer.update();

  TimingAnalyzer fresh(nl, tech_for(g), model);
  fresh.add_all_input_events(kSlope);
  fresh.run();
  for (NodeId n : nl.all_nodes()) {
    for (Transition dir : {Transition::kRise, Transition::kFall}) {
      const auto a = analyzer.arrival(n, dir);
      const auto b = fresh.arrival(n, dir);
      ASSERT_EQ(a.has_value(), b.has_value());
      if (!a) continue;
      EXPECT_EQ(a->time, b->time);
      EXPECT_EQ(a->slope, b->slope);
    }
  }
}

TEST(Snapshot, RejectsBadMagic) {
  auto bytes = snapshot_of(inverter_chain(Style::kCmos, 3, 1));
  bytes[0] ^= 0xFF;
  expect_load_error(std::move(bytes), "not a .sldc");
}

TEST(Snapshot, RejectsFutureFormatVersion) {
  auto bytes = snapshot_of(inverter_chain(Style::kCmos, 3, 1));
  bytes[4] = static_cast<std::uint8_t>(kSnapshotFormatVersion + 1);
  expect_load_error(std::move(bytes), "not supported");
}

TEST(Snapshot, RejectsFlippedPayloadByte) {
  auto bytes = snapshot_of(inverter_chain(Style::kCmos, 3, 1));
  // Header is 16 bytes, each section header 20; flip a byte inside the
  // first (TECH) section payload.
  bytes[16 + 20 + 3] ^= 0x01;
  expect_load_error(std::move(bytes), "checksum mismatch");
}

TEST(Snapshot, RejectsTruncatedFile) {
  auto bytes = snapshot_of(inverter_chain(Style::kCmos, 3, 1));
  bytes.resize(bytes.size() - 7);
  expect_load_error(std::move(bytes), "truncated");
}

TEST(Snapshot, RejectsHeaderShorterThanFixedFields) {
  auto bytes = snapshot_of(inverter_chain(Style::kCmos, 3, 1));
  bytes.resize(10);
  expect_load_error(std::move(bytes), "truncated");
}

TEST(Snapshot, RejectsTechFingerprintMismatch) {
  auto bytes = snapshot_of(inverter_chain(Style::kCmos, 3, 1));
  // Corrupt the claimed fingerprint (header bytes 8..15); the embedded
  // TECH section no longer hashes to it.
  bytes[8] ^= 0xA5;
  expect_load_error(std::move(bytes), "fingerprint");
}

/// Reads the little-endian unsigned integer of `width` bytes at `at`.
std::uint64_t get_le(const std::vector<std::uint8_t>& b, std::size_t at,
                     int width) {
  std::uint64_t v = 0;
  for (int i = 0; i < width; ++i) {
    v |= static_cast<std::uint64_t>(b[at + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  return v;
}

void put_le(std::vector<std::uint8_t>& b, std::size_t at, std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i) {
    b[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

/// The payload offset of the section tagged `tag` (walks the section
/// table: a 16-byte header, then [tag u32][length u64][check u64]).
std::size_t payload_of(const std::vector<std::uint8_t>& b,
                       std::uint32_t tag) {
  std::size_t pos = 16;
  while (get_le(b, pos, 4) != tag) {
    pos += 20 + get_le(b, pos + 4, 8);
    if (pos >= b.size()) {
      ADD_FAILURE() << "no section " << tag;
      return 0;
    }
  }
  return pos + 20;
}

/// Recomputes the checksum of the section whose payload is at `payload`.
void reseal(std::vector<std::uint8_t>& b, std::size_t payload) {
  const std::size_t length = get_le(b, payload - 16, 8);
  put_le(b, payload - 8, snapshot_checksum(b.data() + payload, length));
}

/// The offset just past the array ([count u64][count * width bytes])
/// that starts at `at`.
std::size_t skip_array(const std::vector<std::uint8_t>& b, std::size_t at,
                       std::size_t width) {
  return at + 8 + get_le(b, at, 8) * width;
}

constexpr std::uint32_t kDevs = 0x53564544u;  // "DEVS"
constexpr std::uint32_t kStgs = 0x53475453u;  // "STGS"

TEST(Snapshot, RejectsInflatedStageCountWithValidChecksum) {
  // A count is untrusted even when its section checksum verifies (the
  // checksum is public and trivial to recompute): inflate the STGS stage
  // count, re-seal the section, and the load must fail by name instead
  // of reserving.
  auto bytes = snapshot_of(inverter_chain(Style::kCmos, 3, 1));
  const std::size_t payload = payload_of(bytes, kStgs);
  put_le(bytes, payload, std::uint64_t{1} << 60);
  reseal(bytes, payload);
  expect_load_error(bytes, "STGS section: count");

  // Through the CLI: a named error and exit 1, not an abort.
  const std::string path = "/tmp/sldm_snapshot_test_inflated.sldc";
  {
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(run_cli({"time", "--load", path, "--model", "rc-tree"}, out, err),
            1);
  EXPECT_NE(err.str().find("STGS section: count"), std::string::npos)
      << err.str();
  std::remove(path.c_str());
}

/// Offsets of the flat STGS arrays (FORMATS.md section 11).
struct StgsLayout {
  std::uint64_t stages;
  std::size_t offsets;  ///< the path-offset array (its count field)
  std::size_t devices;  ///< the path-device array (its count field)
};

StgsLayout stgs_layout(const std::vector<std::uint8_t>& b) {
  const std::size_t p = payload_of(b, kStgs);
  std::size_t at = p + 8;  // past the stage count
  for (const std::size_t width : {4u, 4u, 4u, 1u}) at = skip_array(b, at, width);
  return {get_le(b, p, 8), at, skip_array(b, at, 4)};
}

SlopeTables uneven_tables() {
  // Multipliers with no short decimal form: a text round trip would
  // round them, the binary TBLS section must not.
  SlopeTables t;
  const std::vector<double> xs{0.1, 1.0 / 3.0, 2.0, 7.0};
  for (TransistorType type :
       {TransistorType::kNEnhancement, TransistorType::kPEnhancement}) {
    for (Transition dir : {Transition::kRise, Transition::kFall}) {
      const double k = 1.0 + static_cast<double>(type) / 7.0 +
                       (dir == Transition::kFall ? 1.0 / 9.0 : 0.0);
      t.set(type, dir,
            SlopeEntry{PiecewiseLinear(xs, {k, k * 1.1, k * 1.3, k * 1.7}),
                       PiecewiseLinear(xs, {k / 3.0, k, k * 2.1, k * 3.3})});
    }
  }
  return t;
}

TEST(Snapshot, EverySingleByteFlipIsRejected) {
  const GeneratedCircuit g = inverter_chain(Style::kCmos, 3, 1);
  const auto design = CompiledDesign::compile(g.netlist, tech_for(g));
  const SlopeTables tables = uneven_tables();
  const std::vector<std::uint8_t> clean = serialize_design(*design, &tables);
  ASSERT_NO_THROW(deserialize_design(clean, "<clean>"));
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < clean.size(); ++i) {
    for (const int mask : {0x01, 0x80}) {
      std::vector<std::uint8_t> bytes = clean;
      bytes[i] = static_cast<std::uint8_t>(bytes[i] ^ mask);
      try {
        deserialize_design(bytes, "<flipped>");
        ++accepted;
        ADD_FAILURE() << "flip of byte " << i << " by " << mask
                      << " was accepted";
      } catch (const Error&) {
      }
    }
  }
  EXPECT_EQ(accepted, 0u) << "of " << clean.size() << " bytes";
}

TEST(Snapshot, ReserializingALoadedDesignIsByteIdentical) {
  const GeneratedCircuit g = random_logic(Style::kCmos, 12, 48, 0x5EED);
  const std::optional<NodeId> pinned = g.netlist.find_node("in0");
  ASSERT_TRUE(pinned.has_value());
  CompileOptions options;
  options.extract.fixed_values[*pinned] = true;
  const auto design = CompiledDesign::compile(g.netlist, tech_for(g), options);
  const SlopeTables tables = uneven_tables();
  const std::vector<std::uint8_t> first = serialize_design(*design, &tables);
  const LoadedDesign loaded = deserialize_design(first, g.name);
  ASSERT_TRUE(loaded.slope_tables.has_value());
  const std::vector<std::uint8_t> second =
      serialize_design(*loaded.design, &*loaded.slope_tables);
  EXPECT_GT(first.size(), 100000u);
  EXPECT_TRUE(first == second) << first.size() << " vs " << second.size();
}

TEST(Snapshot, RejectsBadEnumByteInABulkArray) {
  auto bytes = snapshot_of(inverter_chain(Style::kCmos, 3, 1));
  const std::size_t p = payload_of(bytes, kDevs);
  bytes[p + 8 + 8 + 1] = 7;  // device 1 of the type array
  reseal(bytes, p);
  expect_load_error(bytes, "DEVS section: bad transistor type 7");
}

TEST(Snapshot, RejectsANonPositiveVddWithValidChecksum) {
  // A resealed TECH section with Vdd <= 0 used to reach Tech's
  // constructor precondition instead of a named error.
  auto bytes = snapshot_of(inverter_chain(Style::kCmos, 3, 1));
  const std::size_t p = payload_of(bytes, 0x48434554u);  // "TECH"
  const std::size_t vdd = p + 4 + get_le(bytes, p, 4);
  put_le(bytes, vdd, std::bit_cast<std::uint64_t>(-1.0));
  reseal(bytes, p);
  expect_load_error(bytes, "TECH section: bad Vdd");
}

constexpr std::uint32_t kNode = 0x45444F4Eu;  // "NODE"
constexpr std::uint32_t kOpts = 0x5354504Fu;  // "OPTS"

/// Where the NODE arrays' elements start: [count u64], then name
/// lengths (u32), names (bytes), capacitances (f64), flags and pinned
/// values (bytes), each array [count u64][elements].
struct NodeLayout {
  std::size_t count, name_len, names, caps, flags, pinned;
};

NodeLayout node_layout(const std::vector<std::uint8_t>& b) {
  const std::size_t p = payload_of(b, kNode);
  NodeLayout l{};
  l.count = get_le(b, p, 8);
  const std::size_t len_at = p + 8;
  const std::size_t names_at = skip_array(b, len_at, 4);
  const std::size_t caps_at = skip_array(b, names_at, 1);
  const std::size_t flags_at = skip_array(b, caps_at, 8);
  const std::size_t pinned_at = skip_array(b, flags_at, 1);
  l.name_len = len_at + 8;
  l.names = names_at + 8;
  l.caps = caps_at + 8;
  l.flags = flags_at + 8;
  l.pinned = pinned_at + 8;
  return l;
}

void put_u32(std::vector<std::uint8_t>& b, std::size_t at, std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) {
    b[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

// Each NODE, DEVS and OPTS value check fails by name on a section whose
// checksum was recomputed after the edit (the checksum is no defense
// against a crafted file).
TEST(Snapshot, RejectsBadNodeValuesWithValidChecksums) {
  const auto clean = snapshot_of(inverter_chain(Style::kCmos, 3, 1));
  const NodeLayout l = node_layout(clean);
  ASSERT_GE(l.count, 3u);
  const auto edited = [&](auto edit, const std::string& expected) {
    auto bytes = clean;
    edit(bytes);
    reseal(bytes, payload_of(bytes, kNode));
    expect_load_error(std::move(bytes), "NODE section: " + expected);
  };
  const auto len = [&](std::size_t i) {
    return static_cast<std::uint32_t>(get_le(clean, l.name_len + 4 * i, 4));
  };
  edited([&](auto& b) { put_u32(b, l.name_len, 0); }, "empty node name");
  edited([&](auto& b) { put_u32(b, l.name_len, 0x7FFFFFFFu); },
         "names overrun their array");
  // The last name one byte shorter leaves a byte no name claims.
  const std::size_t last = l.count - 1;
  edited([&](auto& b) { put_u32(b, l.name_len + 4 * last, len(last) - 1); },
         "names do not match their lengths");
  edited([&](auto& b) {
    put_le(b, l.caps, std::bit_cast<std::uint64_t>(-1.0));
  }, "bad node capacitance");
  edited([&](auto& b) { b[l.flags] = 32; }, "bad node flags");
  edited([&](auto& b) { b[l.pinned] = 2; }, "bad pinned value");

  // Two names of one length: the second copies the first.
  std::size_t first = l.count;
  std::size_t second = l.count;
  std::size_t first_at = 0;
  std::size_t second_at = 0;
  for (std::size_t i = 0, at = l.names; i < l.count && second == l.count;
       at += len(i), ++i) {
    for (std::size_t j = 0, at_j = l.names; j < i; at_j += len(j), ++j) {
      if (len(j) == len(i)) {
        first = j;
        first_at = at_j;
        second = i;
        second_at = at;
        break;
      }
    }
  }
  ASSERT_LT(second, l.count);
  edited([&](auto& b) {
    std::copy_n(b.begin() + static_cast<std::ptrdiff_t>(first_at), len(first),
                b.begin() + static_cast<std::ptrdiff_t>(second_at));
  }, "duplicate node name");
}

TEST(Snapshot, RejectsBadDeviceAndOptionValuesWithValidChecksums) {
  const GeneratedCircuit g = inverter_chain(Style::kCmos, 3, 1);
  const auto clean = snapshot_of(g);
  // DEVS: [count u64], then types (u8), gates, sources, drains (u32),
  // widths, lengths (f64) and flows (u8), each [count u64][elements].
  const std::size_t p = payload_of(clean, kDevs);
  const std::size_t gates = skip_array(clean, p + 8, 1);
  const std::size_t sources = skip_array(clean, gates, 4);
  const std::size_t drains = skip_array(clean, sources, 4);
  const std::size_t widths = skip_array(clean, drains, 4);
  auto bytes = clean;
  put_u32(bytes, gates + 8, 0xFFFFFFF0u);
  reseal(bytes, p);
  expect_load_error(std::move(bytes),
                    "DEVS section: device terminal out of range");
  bytes = clean;
  put_le(bytes, widths + 8, std::bit_cast<std::uint64_t>(0.0));
  reseal(bytes, p);
  expect_load_error(std::move(bytes), "DEVS section: bad device geometry");

  // OPTS: [max depth u32][inputs as sources u8], then the pinned nodes
  // (u32) and their values (u8), each [count u64][elements].
  CompileOptions options;
  options.extract.fixed_values[g.input] = true;
  const auto design = CompiledDesign::compile(g.netlist, tech_for(g), options);
  bytes = serialize_design(*design);
  const std::size_t o = payload_of(bytes, kOpts);
  ASSERT_EQ(get_le(bytes, o + 5, 8), 1u);
  put_u32(bytes, o + 5 + 8, 0xFFFFFFF0u);
  reseal(bytes, o);
  expect_load_error(std::move(bytes), "OPTS section: pinned node out of range");
}

TEST(Snapshot, RejectsNonMonotonicPathOffsets) {
  auto bytes = snapshot_of(inverter_chain(Style::kCmos, 3, 1));
  const StgsLayout l = stgs_layout(bytes);
  ASSERT_GE(l.stages, 2u);
  // Offset 1 (the end of stage 0's path) past offset 2.
  const std::size_t at = l.offsets + 8 + 4;
  bytes[at] = static_cast<std::uint8_t>(get_le(bytes, at + 4, 4) + 1);
  reseal(bytes, payload_of(bytes, kStgs));
  expect_load_error(bytes, "STGS section: path offsets not monotonic");
}

TEST(Snapshot, RejectsOutOfRangePathDevice) {
  auto bytes = snapshot_of(inverter_chain(Style::kCmos, 3, 1));
  const StgsLayout l = stgs_layout(bytes);
  ASSERT_GE(get_le(bytes, l.devices, 8), 1u);
  put_le(bytes, l.devices + 8, 0xFFFFFFu);  // device 0 (and its neighbor)
  reseal(bytes, payload_of(bytes, kStgs));
  expect_load_error(bytes, "STGS section: stage path device out of range");
}

TEST(Snapshot, RejectsVersionOneWithTheRecompileMessage) {
  auto bytes = snapshot_of(inverter_chain(Style::kCmos, 3, 1));
  bytes[4] = 1;
  expect_load_error(bytes, "format version 1 is not supported");
  expect_load_error(bytes, "recompile the design with `sldm compile`");
}

TEST(Snapshot, RejectsUnknownAndRepeatedSections) {
  const auto clean = snapshot_of(inverter_chain(Style::kCmos, 3, 1));
  auto unknown = clean;
  unknown[16] = 'X';  // "TECH" -> "XECH"
  expect_load_error(unknown, "unknown section 'XECH'");

  // Append a second copy of the first section (TECH).
  auto repeated = clean;
  const std::size_t first_end = 16 + 20 + get_le(clean, 16 + 4, 8);
  repeated.insert(repeated.end(), clean.begin() + 16,
                  clean.begin() + static_cast<std::ptrdiff_t>(first_end));
  expect_load_error(repeated, "repeated section 'TECH'");
}

TEST(Snapshot, LoadingANonRegularFileIsANamedError) {
  try {
    load_design_file("/tmp");
    FAIL() << "a directory loaded";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("/tmp: not a regular file"),
              std::string::npos)
        << e.what();
  }
}

TEST(Snapshot, StreamingChecksumEqualsOnePieceForEverySplit) {
  std::mt19937_64 rng(2026);
  for (const std::size_t n : {0u, 1u, 7u, 8u, 31u, 32u, 33u, 64u, 65u, 100u,
                              257u, 4099u}) {
    std::vector<std::uint8_t> bytes(n);
    for (std::uint8_t& b : bytes) b = static_cast<std::uint8_t>(rng());
    const std::uint64_t whole = snapshot_checksum(bytes.data(), n);
    for (int trial = 0; trial < 50; ++trial) {
      SnapshotChecksum sum;
      std::size_t at = 0;
      while (at < n) {
        // Empty and 1-byte pieces often, block-crossing ones too.
        const std::size_t left = n - at;
        const std::size_t piece =
            trial % 5 == 0 ? std::min<std::size_t>(1, left)
                           : std::min<std::size_t>(rng() % 70, left);
        sum.update(bytes.data() + at, piece);
        at += piece;
      }
      sum.update(bytes.data() + n, 0);
      EXPECT_EQ(sum.value(), whole) << n << " byte(s), trial " << trial;
    }
  }
}

/// The bytes of the file at `path`.
std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::uint8_t* data,
                 std::size_t n) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data),
            static_cast<std::streamsize>(n));
}

TEST(Snapshot, SaveDesignFileWritesTheSerializedBytes) {
  const std::string path = ::testing::TempDir() + "sldm_snapshot_save.sldc";
  const SlopeTables tables = uneven_tables();
  for (const GeneratedCircuit& g : generator_suite()) {
    const auto design = CompiledDesign::compile(g.netlist, tech_for(g));
    for (const SlopeTables* t : {static_cast<const SlopeTables*>(nullptr),
                                 &tables}) {
      save_design_file(*design, path, t);
      EXPECT_TRUE(file_bytes(path) == serialize_design(*design, t)) << g.name;
      const LoadedDesign loaded = load_design_file(path);
      EXPECT_TRUE(serialize_design(*loaded.design,
                                   loaded.slope_tables ? &*loaded.slope_tables
                                                       : nullptr) ==
                  serialize_design(*design, t))
          << g.name;
    }
  }
  std::remove(path.c_str());
}

TEST(Snapshot, FileTruncatedAtEveryOffsetIsANamedError) {
  const GeneratedCircuit g = inverter_chain(Style::kCmos, 3, 1);
  const auto design = CompiledDesign::compile(g.netlist, tech_for(g));
  const SlopeTables tables = uneven_tables();
  const std::vector<std::uint8_t> clean = serialize_design(*design, &tables);
  const std::string path = ::testing::TempDir() + "sldm_snapshot_cut.sldc";
  // TBLS is optional and written last: the cut just before it leaves a
  // whole snapshot without tables.
  const std::size_t tbls = payload_of(clean, 0x534C4254u) - 20;  // "TBLS"
  for (std::size_t size = 0; size < clean.size(); ++size) {
    write_bytes(path, clean.data(), size);
    if (size == tbls) {
      EXPECT_FALSE(load_design_file(path).slope_tables.has_value());
      continue;
    }
    try {
      load_design_file(path);
      ADD_FAILURE() << "a file cut to " << size << " byte(s) loaded";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
          << e.what();
    }
  }
  std::remove(path.c_str());
}

TEST(Snapshot, SectionsLoadInAnyOrder) {
  // The checks that span sections run once every section is in, so a
  // file whose sections are reversed loads the same design.
  const GeneratedCircuit g = random_logic(Style::kCmos, 6, 10, 0xABCD);
  const auto design = CompiledDesign::compile(g.netlist, tech_for(g));
  const SlopeTables tables = uneven_tables();
  const std::vector<std::uint8_t> clean = serialize_design(*design, &tables);
  std::vector<std::pair<std::size_t, std::size_t>> sections;
  for (std::size_t pos = 16; pos < clean.size();) {
    const std::size_t end = pos + 20 + get_le(clean, pos + 4, 8);
    sections.emplace_back(pos, end);
    pos = end;
  }
  ASSERT_EQ(sections.size(), 7u);
  std::vector<std::uint8_t> reversed(clean.begin(), clean.begin() + 16);
  for (auto it = sections.rbegin(); it != sections.rend(); ++it) {
    reversed.insert(reversed.end(),
                    clean.begin() + static_cast<std::ptrdiff_t>(it->first),
                    clean.begin() + static_cast<std::ptrdiff_t>(it->second));
  }
  const std::string path = ::testing::TempDir() + "sldm_snapshot_rev.sldc";
  write_bytes(path, reversed.data(), reversed.size());
  for (const LoadedDesign& loaded :
       {deserialize_design(reversed, "<reversed>"), load_design_file(path)}) {
    ASSERT_TRUE(loaded.slope_tables.has_value());
    EXPECT_TRUE(serialize_design(*loaded.design, &*loaded.slope_tables) ==
                clean);
  }
  std::remove(path.c_str());
}

TEST(Snapshot, EmbeddedIncompleteTablesAreANamedErrorOnLoad) {
  // A snapshot whose TBLS section lacks entries its stages need (an
  // older compile accepted such tables): `time --load` names the gap
  // instead of failing a pricing precondition.
  const GeneratedCircuit g = inverter_chain(Style::kCmos, 3, 1);
  const auto design = CompiledDesign::compile(g.netlist, tech_for(g));
  const std::string path = ::testing::TempDir() + "sldm_snapshot_empty.sldc";
  const SlopeTables empty;
  save_design_file(*design, path, &empty);
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(run_cli({"time", "--load", path}, out, err), 1);
  EXPECT_NE(err.str().find("slope tables have no entry for"),
            std::string::npos)
      << err.str();
  EXPECT_EQ(err.str().find("internal error"), std::string::npos)
      << err.str();
  std::remove(path.c_str());
}

TEST(Snapshot, ErrorsNameTheOrigin) {
  auto bytes = snapshot_of(inverter_chain(Style::kCmos, 3, 1));
  bytes.resize(bytes.size() - 7);
  try {
    deserialize_design(bytes, "designs/adder.sldc");
    FAIL() << "expected an Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("designs/adder.sldc"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace sldm

// The flat stage table and everything built from it: row views and
// iteration, window copies and the per-node stitch, the CSR trigger
// index, and the gather bake of the StageStore.  The references are the
// definitions the flat forms replaced: stages_to() per node in id order,
// a naive per-key grouping, and make_stage + StageStore::add per stage.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "delay/rctree.h"
#include "design/compiled_design.h"
#include "gen/generators.h"
#include "tech/tech.h"
#include "timing/analyzer.h"
#include "timing/stage_table.h"
#include "util/contracts.h"

namespace sldm {
namespace {

std::vector<DeviceId> ids(std::initializer_list<std::uint32_t> raw) {
  std::vector<DeviceId> out;
  for (const std::uint32_t v : raw) out.emplace_back(v);
  return out;
}

/// Three hand-made rows: paths of length 2, 1 and 3.
StageTable three_rows() {
  StageTable t;
  t.append(NodeId(0), NodeId(5), DeviceId(7),
           StageTable::pack_bits(Transition::kFall, Transition::kRise, false,
                                 false),
           ids({7, 8}));
  t.append(NodeId(1), NodeId(5), DeviceId(9),
           StageTable::pack_bits(Transition::kRise, Transition::kFall, true,
                                 false),
           ids({3}));
  t.append(NodeId(2), NodeId(6), DeviceId(4),
           StageTable::pack_bits(Transition::kRise, Transition::kRise, false,
                                 true),
           ids({4, 5, 6}));
  return t;
}

/// Every array of `a` equals the same array of `b`, byte for byte.
template <typename T>
void expect_same_arrays(const T& a, const T& b, const std::string& tag) {
  std::vector<std::pair<const void*, std::size_t>> va;
  std::vector<std::pair<const void*, std::size_t>> vb;
  a.for_each_array([&](const auto& v) {
    va.emplace_back(v.data(), v.size() * sizeof(v[0]));
  });
  b.for_each_array([&](const auto& v) {
    vb.emplace_back(v.data(), v.size() * sizeof(v[0]));
  });
  ASSERT_EQ(va.size(), vb.size()) << tag;
  for (std::size_t i = 0; i < va.size(); ++i) {
    ASSERT_EQ(va[i].second, vb[i].second) << tag << " array " << i;
    EXPECT_EQ(std::memcmp(va[i].first, vb[i].first, va[i].second), 0)
        << tag << " array " << i;
  }
}

TEST(StageTable, RowViewsDecodeEveryField) {
  const StageTable t = three_rows();
  ASSERT_EQ(t.size(), 3u);
  EXPECT_FALSE(t.empty());
  EXPECT_EQ(t.path_device_count(), 6u);
  EXPECT_EQ(t.path_device_count(1, 3), 4u);

  const TimingStage a = t[0];
  EXPECT_EQ(a.source, NodeId(0));
  EXPECT_EQ(a.destination, NodeId(5));
  EXPECT_EQ(a.output_dir, Transition::kFall);
  EXPECT_EQ(a.trigger, DeviceId(7));
  EXPECT_EQ(a.trigger_gate_dir, Transition::kRise);
  EXPECT_FALSE(a.trigger_is_release);
  EXPECT_FALSE(a.source_triggered);
  EXPECT_TRUE(std::ranges::equal(a.path, ids({7, 8})));

  const TimingStage b = t[1];
  EXPECT_EQ(b.output_dir, Transition::kRise);
  EXPECT_EQ(b.trigger_gate_dir, Transition::kFall);
  EXPECT_TRUE(b.trigger_is_release);
  EXPECT_TRUE(std::ranges::equal(b.path, ids({3})));

  const TimingStage c = t[2];
  EXPECT_TRUE(c.source_triggered);
  EXPECT_EQ(c.path.size(), 3u);
  EXPECT_EQ(c.path[2], DeviceId(6));

  // Column accessors agree with the views.
  EXPECT_EQ(t.destination(2), NodeId(6));
  EXPECT_EQ(t.output_dir(0), Transition::kFall);
  EXPECT_EQ(t.output_dir(1), Transition::kRise);
}

TEST(StageTable, PathWindowsTileTheSharedArray) {
  const StageTable t = three_rows();
  // Each window starts where the previous one ends.
  for (std::size_t s = 0; s + 1 < t.size(); ++s) {
    EXPECT_EQ(t.path(s).data() + t.path(s).size(), t.path(s + 1).data());
  }
  EXPECT_EQ(t.path(0).data() + t.path_device_count(),
            t.path(2).data() + t.path(2).size());
}

TEST(StageTable, RangeForVisitsRowsInOrder) {
  const StageTable t = three_rows();
  std::vector<NodeId> sources;
  for (const TimingStage& ts : t) sources.push_back(ts.source);
  EXPECT_EQ(sources, (std::vector<NodeId>{NodeId(0), NodeId(1), NodeId(2)}));
  EXPECT_EQ(std::distance(t.begin(), t.end()), 3);
  const StageTable empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.begin(), empty.end());
}

TEST(StageTable, AppendCopiesAViewAndAppendRowsRebases) {
  const StageTable src = three_rows();
  StageTable copy;
  for (const TimingStage& ts : src) copy.append(ts);
  expect_same_arrays(copy, src, "append(view)");

  StageTable tail;
  tail.append(src[0]);
  tail.append_rows(src, 1, 3);
  expect_same_arrays(tail, src, "append_rows");
  tail.append_rows(src, 2, 2);  // empty window: no-op
  EXPECT_EQ(tail.size(), 3u);
  EXPECT_THROW(tail.append_rows(tail, 0, 1), ContractViolation);
  EXPECT_THROW(tail.append_rows(src, 2, 4), ContractViolation);
}

TEST(StageTable, StitchConcatenatesWindowsInOrder) {
  const StageTable t = three_rows();
  StageTable other;
  other.append(t[2]);
  const std::vector<const StageTable*> tables{&t, &other};
  // Row 2 of t comes from `other`; an empty window names a table that
  // does not exist and must be skipped.
  const std::vector<StageWindow> windows{
      {0, 0, 1}, {7, 0, 0}, {1, 0, 1}, {0, 1, 2}};
  const StageTable out = stitch_stages(tables, windows);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].source, NodeId(0));
  EXPECT_EQ(out[1].source, NodeId(2));
  EXPECT_EQ(out[2].source, NodeId(1));
  EXPECT_TRUE(std::ranges::equal(out[1].path, ids({4, 5, 6})));
  EXPECT_TRUE(std::ranges::equal(out[2].path, ids({3})));
}

TEST(StageTable, FromArraysAdoptsTheArraysVerbatim) {
  const StageTable t = three_rows();
  const auto raw = [&t] {
    StageTable::RawArrays a;
    for (const TimingStage& ts : t) {
      a.source.push_back(ts.source);
      a.destination.push_back(ts.destination);
      a.trigger.push_back(ts.trigger);
      a.bits.push_back(StageTable::pack_bits(ts.output_dir,
                                             ts.trigger_gate_dir,
                                             ts.trigger_is_release,
                                             ts.source_triggered));
    }
    a.offset = {0, 2, 3, 6};
    a.device = ids({7, 8, 3, 4, 5, 6});
    return a;
  };
  expect_same_arrays(StageTable::from_arrays(raw()), t, "round trip");

  auto short_bits = raw();
  short_bits.bits.pop_back();
  EXPECT_THROW(StageTable::from_arrays(short_bits), ContractViolation);
  auto bad_end = raw();
  bad_end.offset.back() = 5;
  EXPECT_THROW(StageTable::from_arrays(bad_end), ContractViolation);
}

/// Every stage of `nl`, from stages_to() per node in id order, rise
/// before fall: the canonical order the stitch must reproduce.
StageTable node_order_reference(const Netlist& nl,
                                const ExtractOptions& options = {}) {
  const NodeRoles roles(nl, options);
  ExtractScratch scratch;
  StageTable out;
  for (NodeId n : nl.all_nodes()) {
    if (nl.channels_at(n).empty()) continue;
    for (Transition dir : {Transition::kRise, Transition::kFall}) {
      stages_to(nl, n, dir, options, roles, scratch, out);
    }
  }
  return out;
}

TEST(StageStitch, InterleavedComponentsStitchInNodeOrder) {
  // Two channel-connected components whose node ids interleave:
  // A = {a0, a2}, B = {b1, b3}.  Each is a two-high nMOS pull-down
  // under a depletion load.
  Netlist nl;
  const NodeId a0 = nl.add_node("a0");
  const NodeId b1 = nl.add_node("b1");
  const NodeId a2 = nl.add_node("a2");
  const NodeId b3 = nl.add_node("b3");
  const NodeId vdd = nl.mark_power("vdd");
  const NodeId gnd = nl.mark_ground("gnd");
  const NodeId in = nl.mark_input("in");
  ASSERT_EQ(a0.value(), 0u);
  ASSERT_EQ(b3.value(), 3u);
  for (const auto& [top, bottom] : {std::pair{a0, a2}, std::pair{b1, b3}}) {
    nl.add_transistor(TransistorType::kNDepletion, top, top, vdd, 4e-6, 8e-6);
    nl.add_transistor(TransistorType::kNEnhancement, in, top, bottom, 8e-6,
                      4e-6);
    nl.add_transistor(TransistorType::kNEnhancement, in, bottom, gnd, 8e-6,
                      4e-6);
  }
  const CccPartition ccc(nl);
  ASSERT_EQ(ccc.component_of(a0), ccc.component_of(a2));
  ASSERT_EQ(ccc.component_of(b1), ccc.component_of(b3));
  ASSERT_NE(ccc.component_of(a0), ccc.component_of(b1));

  const StageTable reference = node_order_reference(nl);
  ASSERT_FALSE(reference.empty());
  for (int threads = 1; threads <= 4; ++threads) {
    const PartitionedStages got =
        extract_stages_partitioned(nl, {}, ccc, threads);
    expect_same_arrays(got.stages, reference,
                       "threads=" + std::to_string(threads));
    std::size_t counted = 0;
    for (const std::size_t n : got.per_ccc) counted += n;
    EXPECT_EQ(counted, reference.size());
  }
}

/// One circuit per generator family (both styles where the structure
/// differs).
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

const Tech& tech_for(const GeneratedCircuit& g) {
  static const Tech nmos = nmos4();
  static const Tech cmos = cmos3();
  return g.style == Style::kNmos ? nmos : cmos;
}

/// The store make_stage + StageStore::add builds, stage by stage.
StageStore reference_store(const CompiledDesign& design) {
  StageStore store;
  for (const TimingStage& ts : design.stages()) {
    store.add(make_stage(design.netlist(), design.tech(), ts, 0.0));
  }
  return store;
}

/// The trigger index as a naive grouping of the stage views.
std::vector<std::vector<std::uint32_t>> naive_trigger_groups(
    const CompiledDesign& design) {
  const Netlist& nl = design.netlist();
  std::vector<std::vector<std::uint32_t>> groups(nl.node_count() * 2);
  for (std::size_t s = 0; s < design.stages().size(); ++s) {
    const TimingStage ts = design.stages()[s];
    const NodeId fire =
        ts.source_triggered ? ts.source : nl.device(ts.trigger).gate;
    groups[arrival_key(fire, ts.trigger_gate_dir)].push_back(
        static_cast<std::uint32_t>(s));
  }
  return groups;
}

void expect_index_matches(const CompiledDesign& design,
                          const std::string& tag) {
  const auto groups = naive_trigger_groups(design);
  const TriggerIndex& index = design.stages_by_trigger();
  ASSERT_EQ(index.key_count(), groups.size()) << tag;
  for (std::size_t k = 0; k < groups.size(); ++k) {
    ASSERT_TRUE(std::ranges::equal(index[k], groups[k])) << tag << " key "
                                                         << k;
  }
}

TEST(StageBake, GatherBakeEqualsMakeStageStoreForEveryFamily) {
  for (const GeneratedCircuit& g : generator_suite()) {
    const auto design = CompiledDesign::compile(g.netlist, tech_for(g));
    ASSERT_FALSE(design->stages().empty()) << g.name;
    expect_same_arrays(design->stage_store(), reference_store(*design),
                       g.name);
  }
}

TEST(StageBake, CloseStageRefusesWhatValidateRefuses) {
  const auto refused = [](Ohms r, Farads c, std::size_t trigger_index) {
    StageStore store;
    store.push_element(TransistorType::kNEnhancement, r, c);
    try {
      store.close_stage(Transition::kFall, trigger_index);
    } catch (const ContractViolation&) {
      return true;
    }
    return false;
  };
  EXPECT_FALSE(refused(1e3, 1e-15, 0));
  EXPECT_TRUE(refused(1e3, 0.0, 0));     // total C must be positive
  EXPECT_TRUE(refused(-1.0, 1e-15, 0));  // r > 0
  EXPECT_TRUE(refused(1e3, -1e-15, 0));  // c >= 0
  EXPECT_TRUE(refused(1e3, 1e-15, 1));   // trigger inside the window
  StageStore empty;
  EXPECT_THROW(empty.close_stage(Transition::kFall, 0), ContractViolation);
}

TEST(TriggerIndex, CsrEqualsNaiveGroupingAfterCompile) {
  for (const GeneratedCircuit& g : generator_suite()) {
    const auto design = CompiledDesign::compile(g.netlist, tech_for(g));
    expect_index_matches(*design, g.name);
  }
}

/// Deterministic splitmix64 stream.
std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

TEST(TriggerIndex, CsrAndBakeMatchReferencesAfterRandomEcoEdits) {
  const RcTreeModel model;
  for (const int threads : {1, 3}) {
    for (const GeneratedCircuit& g : generator_suite()) {
      Netlist nl = g.netlist;
      AnalyzerOptions opts;
      opts.threads = threads;
      TimingAnalyzer an(nl, tech_for(g), model, opts);
      std::uint64_t rng = 0x5EED ^ static_cast<std::uint64_t>(threads);
      const auto below = [&rng](std::size_t n) {
        return static_cast<std::size_t>(splitmix(rng) % n);
      };
      for (int step = 0; step < 6; ++step) {
        const DeviceId d(static_cast<std::uint32_t>(below(nl.device_count())));
        const NodeId n(static_cast<std::uint32_t>(below(nl.node_count())));
        switch (below(4)) {
          case 0:
            nl.set_width(d, nl.device(d).width * 2.0);
            break;
          case 1:
            nl.set_capacitance(n, static_cast<double>(below(100)) * 1e-15);
            break;
          case 2: {
            const NodeId fresh =
                nl.add_node("eco" + std::to_string(step));
            nl.add_transistor(nl.device(d).type, n, nl.device(d).source,
                              fresh, 4e-6, 2e-6);
            break;
          }
          default:
            if (n != g.input && !nl.is_rail(n)) {
              nl.set_fixed(n, below(2) != 0);
            }
            break;
        }
        an.update();
        const CompiledDesign& design = an.session().design();
        const std::string tag = g.name + " threads=" +
                                std::to_string(threads) +
                                " step=" + std::to_string(step);
        expect_index_matches(design, tag);
        expect_same_arrays(design.stages(), node_order_reference(nl), tag);
        expect_same_arrays(design.stage_store(), reference_store(design),
                           tag);
      }
    }
  }
}

}  // namespace
}  // namespace sldm

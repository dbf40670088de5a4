// The netlist's flat (CSR) adjacency, its construction journal and its
// byte count.  Every adjacency span is checked against a brute-force
// scan of the devices, however the netlist was built or grown: device by
// device with reads in between, in bulk, through a .sldc round trip, and
// under random ECO streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "design/compiled_design.h"
#include "design/snapshot.h"
#include "fuzz/eco_fuzzer.h"
#include "gen/generators.h"
#include "netlist/eco_io.h"
#include "netlist/sim_io.h"
#include "tech/tech.h"
#include "util/contracts.h"
#include "util/strings.h"

namespace sldm {
namespace {

/// Every generator family, in both styles.
std::vector<GeneratedCircuit> all_families() {
  std::vector<GeneratedCircuit> out;
  for (const Style s : {Style::kCmos, Style::kNmos}) {
    out.push_back(inverter_chain(s, 6, 2));
    out.push_back(nand_chain(s, 3));
    out.push_back(nor_chain(s, 3));
    out.push_back(pass_chain(s, 5));
    out.push_back(barrel_shifter(s, 4));
    out.push_back(manchester_carry(s, 6));
    out.push_back(precharged_bus(s, 5));
    out.push_back(driver_chain(s, 4, 2.5, 80.0));
    out.push_back(address_decoder(s, 3));
    out.push_back(pla(s, 4, 5, 3, 0x1234));
    out.push_back(shift_register(s, 3));
    out.push_back(sram_read_column(s, 6));
    out.push_back(random_logic(s, 6, 10, 0xABCD));
  }
  return out;
}

/// The devices gated by `n` / with a channel terminal on `n`, found by
/// scanning every device in ascending id.
std::vector<DeviceId> scan_gated_by(const Netlist& nl, NodeId n) {
  std::vector<DeviceId> out;
  for (const DeviceId d : nl.all_devices()) {
    if (nl.device(d).gate == n) out.push_back(d);
  }
  return out;
}

std::vector<DeviceId> scan_channels_at(const Netlist& nl, NodeId n) {
  std::vector<DeviceId> out;
  for (const DeviceId d : nl.all_devices()) {
    if (nl.device(d).connects(n)) out.push_back(d);
  }
  return out;
}

void expect_node_adjacency(const Netlist& nl, NodeId n,
                           const std::string& what) {
  EXPECT_TRUE(std::ranges::equal(nl.gated_by(n), scan_gated_by(nl, n)))
      << what << ": gated_by(" << nl.node(n).name << ")";
  EXPECT_TRUE(
      std::ranges::equal(nl.channels_at(n), scan_channels_at(nl, n)))
      << what << ": channels_at(" << nl.node(n).name << ")";
}

void expect_adjacency(const Netlist& nl, const std::string& what) {
  for (const NodeId n : nl.all_nodes()) expect_node_adjacency(nl, n, what);
  EXPECT_TRUE(nl.adjacency_fresh()) << what;
}

/// `g`'s netlist rebuilt device by device, each device's terminals
/// created just before it, reading the adjacency of every terminal after
/// each add: nodes are added while the adjacency is fresh and while it
/// is stale, and every read follows an append.
Netlist grow_one_by_one(const Netlist& g, const std::string& what) {
  Netlist nl;
  const auto copy_node = [&](NodeId n) {
    return nl.add_node(g.node(n).name);
  };
  for (const DeviceId d : g.all_devices()) {
    const Transistor& t = g.device(d);
    const NodeId gate = copy_node(t.gate);
    const NodeId source = copy_node(t.source);
    const NodeId drain = copy_node(t.drain);
    nl.add_transistor(t.type, gate, source, drain, t.width, t.length,
                      t.flow);
    for (const NodeId n : {gate, source, drain}) {
      expect_node_adjacency(nl, n, what);
    }
  }
  for (const NodeId n : g.all_nodes()) copy_node(n);  // device-less nodes
  return nl;
}

TEST(CsrAdjacency, OneByOneWithInterleavedReadsMatchesScan) {
  for (const GeneratedCircuit& g : all_families()) {
    const Netlist nl = grow_one_by_one(g.netlist, g.name);
    ASSERT_EQ(nl.device_count(), g.netlist.device_count()) << g.name;
    expect_adjacency(nl, g.name + " (one by one)");
    expect_adjacency(g.netlist, g.name + " (generated)");
  }
}

TEST(CsrAdjacency, BulkBuildMatchesScan) {
  for (const GeneratedCircuit& g : all_families()) {
    Netlist nl;
    for (const NodeId n : g.netlist.all_nodes()) {
      nl.add_node(g.netlist.node(n).name);
    }
    std::vector<Transistor> devices;
    for (const DeviceId d : g.netlist.all_devices()) {
      devices.push_back(g.netlist.device(d));
    }
    nl.add_transistors(std::move(devices));
    EXPECT_TRUE(nl.adjacency_fresh()) << g.name;
    expect_adjacency(nl, g.name + " (bulk)");
    expect_adjacency(reparse(g.netlist), g.name + " (parsed)");
  }
}

TEST(CsrAdjacency, SnapshotRoundTripMatchesScan) {
  for (const GeneratedCircuit& g : all_families()) {
    const Tech tech = g.style == Style::kCmos ? cmos3() : nmos4();
    const auto design = CompiledDesign::compile(g.netlist, tech);
    const LoadedDesign loaded =
        deserialize_design(serialize_design(*design), g.name);
    const Netlist& nl = loaded.design->netlist();
    expect_adjacency(nl, g.name + " (.sldc)");
    for (const NodeId n : nl.all_nodes()) {
      EXPECT_TRUE(
          std::ranges::equal(nl.gated_by(n), g.netlist.gated_by(n)))
          << g.name;
    }
  }
}

TEST(CsrAdjacency, RandomEcoStreamsMatchScan) {
  int checked_growth = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    for (const Style style : {Style::kCmos, Style::kNmos}) {
      const GeneratedCircuit g = random_logic(style, 5, 8, seed);
      Netlist nl = reparse(g.netlist);
      const NodeId input = *nl.find_node(g.netlist.node(g.input).name);
      FuzzRng rng(seed);
      int new_nodes = 0;
      for (int round = 0; round < 6; ++round) {
        const std::size_t devices = nl.device_count();
        const std::uint64_t since = nl.revision();
        std::istringstream script(join_script(
            random_eco_script(nl, rng, 12, input, &new_nodes)));
        apply_eco(script, nl, "stream.eco");
        if (nl.device_count() > devices) ++checked_growth;
        // The ECO's own edits are all journaled and replayable.
        for (std::uint64_t i = since; i < nl.revision(); ++i) {
          EXPECT_NO_THROW((void)nl.changes().entry(i));
        }
        expect_adjacency(nl, g.name + " after an eco round");
      }
    }
  }
  EXPECT_GT(checked_growth, 0);  // some rounds did add devices
}

TEST(CsrAdjacency, AppendingReadsMatchScanWithoutRebuilding) {
  const GeneratedCircuit g = random_logic(Style::kCmos, 4, 6, 3);
  Netlist nl = reparse(g.netlist);
  ASSERT_TRUE(nl.adjacency_fresh());
  const std::size_t built = nl.device_count();
  const NodeId vdd = *nl.find_node("vdd");
  // Grow while reading: new gates, old gates, new and old nodes.
  for (int i = 0; i < 40; ++i) {
    const NodeId gate = i % 3 == 0 ? nl.add_node(format("eg%d", i))
                                   : NodeId(static_cast<std::uint32_t>(i));
    const NodeId out = nl.add_node(format("eo%d", i));
    nl.add_transistor(TransistorType::kPEnhancement, gate, vdd, out, 4e-6,
                      2e-6);
    for (const NodeId n : {gate, out, vdd, NodeId(0u)}) {
      EXPECT_EQ(nl.gated_by_appending(n), scan_gated_by(nl, n)) << i;
    }
  }
  EXPECT_FALSE(nl.adjacency_fresh());  // no read rebuilt it
  // Past kAppendScan added devices a read rebuilds once.
  const NodeId in0 = *nl.find_node("in0");
  const NodeId eo0 = *nl.find_node("eo0");
  while (nl.device_count() - built <= Netlist::kAppendScan) {
    nl.add_transistor(TransistorType::kPEnhancement, in0, vdd, eo0, 4e-6,
                      2e-6);
  }
  EXPECT_EQ(nl.gated_by_appending(in0), scan_gated_by(nl, in0));
  EXPECT_TRUE(nl.adjacency_fresh());
  expect_adjacency(nl, "after appending reads");
}

TEST(CsrAdjacency, EcoInterleavingAddsAndEditsDoesNotRebuild) {
  const GeneratedCircuit g = random_logic(Style::kCmos, 4, 6, 5);
  Netlist nl = reparse(g.netlist);
  const std::size_t before = nl.device_count();
  std::string script;
  for (int i = 0; i < 30; ++i) {
    script += format("transistor p in0 vdd x%d 2 4\n", i);
    script += format("width in0 vdd x%d 7\n", i);
  }
  std::istringstream in(script);
  apply_eco(in, nl, "interleaved.eco");
  EXPECT_FALSE(nl.adjacency_fresh());
  ASSERT_EQ(nl.device_count(), before + 30);
  for (std::size_t d = before; d < nl.device_count(); ++d) {
    EXPECT_DOUBLE_EQ(
        nl.device(DeviceId(static_cast<std::uint32_t>(d))).width, 7e-6);
  }
  expect_adjacency(nl, "after the interleaved eco");
}

// --- construction journal ---------------------------------------------

TEST(ConstructionJournal, ParsedNetlistHoldsNoConstructionEntries) {
  const GeneratedCircuit g = random_logic(Style::kCmos, 4, 6, 9);
  Netlist nl = reparse(g.netlist);
  const ChangeLog& log = nl.changes();
  // revision() still counts every construction edit: one per node and
  // device, one per `c` record and one per role mark.
  EXPECT_EQ(log.baseline(), log.revision());
  EXPECT_GE(log.revision(), nl.node_count() + nl.device_count());
  EXPECT_EQ(log.bytes(), 0u);
  EXPECT_THROW((void)log.entry(0), ContractViolation);
  EXPECT_THROW((void)log.entry(log.revision() - 1), ContractViolation);

  // An ECO after the parse journals, and replays, only its own edits.
  const std::uint64_t since = nl.revision();
  const Transistor t = nl.device(DeviceId(0));
  std::istringstream script(
      "width " + nl.node(t.gate).name + " " + nl.node(t.source).name + " " +
      nl.node(t.drain).name + " 9\ntransistor e " + nl.node(t.gate).name +
      " " + nl.node(t.source).name + " eco_new 2 4\n");
  apply_eco(script, nl, "edit.eco");
  ASSERT_GT(nl.revision(), since);
  EXPECT_EQ(nl.changes().baseline(), since);
  std::vector<ChangeKind> kinds;
  for (std::uint64_t i = since; i < nl.revision(); ++i) {
    kinds.push_back(nl.changes().entry(i).kind);
  }
  EXPECT_EQ(kinds.back(), ChangeKind::kDeviceAdded);
  EXPECT_NE(std::ranges::find(kinds, ChangeKind::kNodeAdded), kinds.end());
  EXPECT_GE(std::ranges::count(kinds, ChangeKind::kDeviceSized), 1);
}

TEST(ConstructionJournal, LoadedNetlistHoldsNoConstructionEntries) {
  const GeneratedCircuit g = pla(Style::kCmos, 4, 5, 3, 0x1234);
  const auto design = CompiledDesign::compile(g.netlist, cmos3());
  const LoadedDesign loaded = deserialize_design(serialize_design(*design));
  const Netlist& nl = loaded.design->netlist();
  EXPECT_EQ(nl.revision(), nl.node_count() + nl.device_count());
  EXPECT_EQ(nl.changes().baseline(), nl.revision());
  EXPECT_THROW((void)nl.changes().entry(0), ContractViolation);
}

TEST(ConstructionJournal, OnlyAnEmptyJournalTurnsOff) {
  Netlist nl;
  nl.set_journaling(false);
  nl.add_node("a");
  nl.add_node("b");
  nl.set_journaling(true);
  const NodeId c = nl.add_node("c");
  EXPECT_EQ(nl.revision(), 3u);
  EXPECT_EQ(nl.changes().baseline(), 2u);
  EXPECT_EQ(nl.changes().entry(2).node(), c);
  EXPECT_THROW(nl.set_journaling(false), ContractViolation);
}

TEST(SimParse, RailNamesAreClassifiedOncePerNode) {
  // A device, cap or @set record makes a rail-named node that rail; a
  // role record alone does not, also when it created the node first.
  std::istringstream in(
      "@in vdd\n@out gnd vss\ne a vdd out 2 2\ne a gnd out 2 2\n"
      "e vdd gnd x 2 2\nc out 1\n");
  const Netlist nl = read_sim(in, "rails.sim");
  const Node& vdd = nl.node(*nl.find_node("vdd"));
  EXPECT_TRUE(vdd.is_power && vdd.is_input);
  EXPECT_TRUE(nl.node(*nl.find_node("gnd")).is_ground);
  EXPECT_FALSE(nl.node(*nl.find_node("vss")).is_ground);
  EXPECT_FALSE(nl.is_rail(*nl.find_node("out")));
}

// --- byte count -----------------------------------------------------------

TEST(NetlistBytes, ParsedDesignStaysWithinBudget) {
  // The 54k-device design of `sldm gen random_logic --style cmos
  // --layers 64 --width 256 --seed 7`, as `sldm time` reads it.
  const Netlist nl =
      reparse(random_logic(Style::kCmos, 64, 256, 7).netlist);
  ASSERT_GT(nl.device_count(), 50000u);
  const std::size_t floor = nl.device_count() * sizeof(Transistor) +
                            nl.node_count() * sizeof(Node) +
                            3 * nl.device_count() * sizeof(DeviceId);
  EXPECT_GE(nl.bytes(), floor);
  const double per_device = static_cast<double>(nl.bytes()) /
                            static_cast<double>(nl.device_count());
  EXPECT_LE(per_device, 100.0);
}

}  // namespace
}  // namespace sldm

// Unit tests for src/netlist: the switch-level representation, role
// marking, connectivity queries, and the structural checker.
#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "netlist/checks.h"
#include "netlist/netlist.h"
#include "util/contracts.h"
#include "util/strings.h"
#include "util/units.h"

namespace sldm {
namespace {

using namespace units;

TEST(Netlist, AddNodeIsIdempotentByName) {
  Netlist nl;
  const NodeId a = nl.add_node("a");
  const NodeId a2 = nl.add_node("a");
  EXPECT_EQ(a, a2);
  EXPECT_EQ(nl.node_count(), 1u);
  EXPECT_EQ(nl.find_node("a"), a);
  EXPECT_FALSE(nl.find_node("missing").has_value());
}

TEST(Netlist, EmptyNameRejected) {
  Netlist nl;
  EXPECT_THROW(nl.add_node(""), ContractViolation);
}

TEST(Netlist, NameIndexCopiesAreIndependentAndMovesKeepIt) {
  Netlist a;
  for (int i = 0; i < 100; ++i) a.add_node(format("n%d", i));
  Netlist copy = a;
  a.add_node("only_in_a");
  copy.add_node("only_in_copy");
  EXPECT_TRUE(a.find_node("only_in_a").has_value());
  EXPECT_FALSE(a.find_node("only_in_copy").has_value());
  EXPECT_TRUE(copy.find_node("only_in_copy").has_value());
  EXPECT_FALSE(copy.find_node("only_in_a").has_value());
  EXPECT_EQ(copy.find_node("n42"), a.find_node("n42"));

  Netlist assigned;
  assigned.add_node("stale");
  assigned = copy;
  EXPECT_FALSE(assigned.find_node("stale").has_value());
  EXPECT_EQ(assigned.find_node("only_in_copy"), NodeId(100));
  {
    // The copy's names live in its own arena: it outlives the source.
    Netlist source;
    source.add_node("temporary");
    assigned = source;
  }
  EXPECT_EQ(assigned.find_node("temporary"), NodeId(0));
  EXPECT_EQ(assigned.node(NodeId(0)).name, "temporary");

  Netlist moved = std::move(copy);
  EXPECT_EQ(moved.find_node("n7"), NodeId(7));
  EXPECT_EQ(moved.add_node("n7"), NodeId(7));
  EXPECT_EQ(moved.node_count(), 101u);
  Netlist move_assigned;
  move_assigned = std::move(moved);
  EXPECT_EQ(move_assigned.find_node("only_in_copy"), NodeId(100));
}

TEST(Netlist, NameIndexMissesReturnNothing) {
  Netlist empty;
  EXPECT_FALSE(empty.find_node("x").has_value());
  EXPECT_FALSE(empty.find_node("").has_value());
  Netlist nl;
  nl.add_node("abc");
  EXPECT_FALSE(nl.find_node("ab").has_value());
  EXPECT_FALSE(nl.find_node("abcd").has_value());
  EXPECT_FALSE(nl.find_node("ABC").has_value());
  EXPECT_FALSE(nl.find_node(std::string_view("abc\0", 4)).has_value());
}

TEST(Netlist, NameIndexInternsAMillionNamesWithLongSharedPrefixes) {
  const std::string prefix =
      "top/core/datapath/alu/bit_slice/carry_chain/stage_";
  const auto name = [&](int i) { return prefix + format("%d/q", i); };
  constexpr int kNames = 1'000'000;
  Netlist nl;
  for (int i = 0; i < kNames; ++i) {
    ASSERT_EQ(nl.add_node(name(i)), NodeId(static_cast<std::uint32_t>(i)));
  }
  ASSERT_EQ(nl.node_count(), static_cast<std::size_t>(kNames));
  EXPECT_EQ(nl.revision(), static_cast<std::uint64_t>(kNames));
  for (int i = 0; i < kNames; ++i) {
    const auto id = nl.find_node(name(i));
    ASSERT_TRUE(id.has_value()) << name(i);
    ASSERT_EQ(*id, NodeId(static_cast<std::uint32_t>(i)));
    ASSERT_EQ(nl.node(*id).name, name(i));
  }
  // Re-adding returns the existing id and grows nothing.
  EXPECT_EQ(nl.add_node(name(123456)), NodeId(123456));
  EXPECT_EQ(nl.node_count(), static_cast<std::size_t>(kNames));
  EXPECT_FALSE(nl.find_node(name(kNames)).has_value());
  EXPECT_FALSE(nl.find_node(prefix).has_value());
}

TEST(Netlist, TransistorConnectivityIndexed) {
  Netlist nl;
  const NodeId g = nl.add_node("g");
  const NodeId s = nl.add_node("s");
  const NodeId d = nl.add_node("d");
  const DeviceId t = nl.add_transistor(TransistorType::kNEnhancement, g, s, d,
                                       8 * um, 4 * um);
  ASSERT_EQ(nl.gated_by(g).size(), 1u);
  EXPECT_EQ(nl.gated_by(g)[0], t);
  EXPECT_TRUE(nl.gated_by(s).empty());
  EXPECT_EQ(nl.channels_at(s).size(), 1u);
  EXPECT_EQ(nl.channels_at(d).size(), 1u);
  EXPECT_TRUE(nl.channels_at(g).empty());
}

TEST(Netlist, TransistorPreconditions) {
  Netlist nl;
  const NodeId a = nl.add_node("a");
  const NodeId b = nl.add_node("b");
  // source == drain
  EXPECT_THROW(nl.add_transistor(TransistorType::kNEnhancement, a, b, b,
                                 8 * um, 4 * um),
               ContractViolation);
  // non-positive dimensions
  EXPECT_THROW(nl.add_transistor(TransistorType::kNEnhancement, a, a, b, 0.0,
                                 4 * um),
               ContractViolation);
  EXPECT_THROW(nl.add_transistor(TransistorType::kNEnhancement, a, a, b,
                                 8 * um, -1.0),
               ContractViolation);
  // invalid node id
  EXPECT_THROW(nl.add_transistor(TransistorType::kNEnhancement,
                                 NodeId::invalid(), a, b, 8 * um, 4 * um),
               ContractViolation);
}

TEST(Netlist, OtherEndAndConnects) {
  Netlist nl;
  const NodeId g = nl.add_node("g");
  const NodeId s = nl.add_node("s");
  const NodeId d = nl.add_node("d");
  const DeviceId t = nl.add_transistor(TransistorType::kPEnhancement, g, s, d,
                                       6 * um, 3 * um);
  const Transistor& tr = nl.device(t);
  EXPECT_EQ(tr.other_end(s), d);
  EXPECT_EQ(tr.other_end(d), s);
  EXPECT_TRUE(tr.connects(s));
  EXPECT_FALSE(tr.connects(g));
  EXPECT_THROW(tr.other_end(g), ContractViolation);
  EXPECT_DOUBLE_EQ(tr.aspect(), 2.0);
}

TEST(Netlist, RoleMarking) {
  Netlist nl;
  const NodeId v = nl.mark_power("vdd");
  const NodeId g = nl.mark_ground("gnd");
  const NodeId in = nl.mark_input("in");
  const NodeId out = nl.mark_output("out");
  const NodeId pc = nl.mark_precharged("bus");
  EXPECT_TRUE(nl.node(v).is_power);
  EXPECT_TRUE(nl.node(g).is_ground);
  EXPECT_TRUE(nl.node(in).is_input);
  EXPECT_TRUE(nl.node(out).is_output);
  EXPECT_TRUE(nl.node(pc).is_precharged);
  EXPECT_TRUE(nl.is_rail(v));
  EXPECT_TRUE(nl.is_rail(g));
  EXPECT_FALSE(nl.is_rail(in));
  EXPECT_EQ(nl.power_node(), v);
  EXPECT_EQ(nl.ground_node(), g);
}

TEST(Netlist, AmbiguousRailsReportedAsNullopt) {
  Netlist nl;
  nl.mark_power("vdd1");
  nl.mark_power("vdd2");
  EXPECT_FALSE(nl.power_node().has_value());
}

TEST(Netlist, CapAccumulates) {
  Netlist nl;
  const NodeId a = nl.add_node("a");
  nl.add_cap(a, 5 * fF);
  nl.add_cap(a, 3 * fF);
  EXPECT_DOUBLE_EQ(nl.node(a).cap, 8 * fF);
  EXPECT_THROW(nl.add_cap(a, -1 * fF), ContractViolation);
}

TEST(Netlist, IdsAreDense) {
  Netlist nl;
  nl.add_node("a");
  nl.add_node("b");
  const auto ids = nl.node_ids();
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0].index(), 0u);
  EXPECT_EQ(ids[1].index(), 1u);
}

TEST(Netlist, MutatorsValidateAndApply) {
  Netlist nl;
  const NodeId g = nl.add_node("g");
  const NodeId a = nl.add_node("a");
  const NodeId b = nl.add_node("b");
  const DeviceId d =
      nl.add_transistor(TransistorType::kNEnhancement, g, a, b, 8 * um,
                        4 * um);
  nl.set_width(d, 12 * um);
  nl.set_length(d, 6 * um);
  EXPECT_DOUBLE_EQ(nl.device(d).width, 12 * um);
  EXPECT_DOUBLE_EQ(nl.device(d).length, 6 * um);
  EXPECT_THROW(nl.set_width(d, 0.0), ContractViolation);
  EXPECT_THROW(nl.set_length(d, -1 * um), ContractViolation);
  nl.set_capacitance(a, 7 * fF);
  EXPECT_DOUBLE_EQ(nl.node(a).cap, 7 * fF);
  nl.set_capacitance(a, 2 * fF);  // replaces, does not accumulate
  EXPECT_DOUBLE_EQ(nl.node(a).cap, 2 * fF);
  EXPECT_THROW(nl.set_capacitance(a, -1 * fF), ContractViolation);
  nl.set_fixed(a, true);
  EXPECT_EQ(nl.node(a).fixed_value(), std::optional<bool>(true));
  nl.set_fixed(a, std::nullopt);
  EXPECT_EQ(nl.node(a).fixed_value(), std::nullopt);
}

TEST(Netlist, ChangeLogJournalsEveryMutation) {
  Netlist nl;
  EXPECT_EQ(nl.revision(), 0u);
  const NodeId g = nl.add_node("g");
  const NodeId a = nl.add_node("a");
  const NodeId b = nl.add_node("b");
  EXPECT_EQ(nl.revision(), 3u);
  nl.add_node("a");  // existing name: no new node, no log entry
  EXPECT_EQ(nl.revision(), 3u);

  const DeviceId d =
      nl.add_transistor(TransistorType::kNEnhancement, g, a, b, 8 * um,
                        4 * um);
  nl.set_width(d, 12 * um);
  nl.set_flow(d, Flow::kSourceToDrain);
  nl.set_capacitance(a, 5 * fF);
  nl.add_cap(a, 1 * fF);
  nl.set_fixed(b, false);
  nl.mark_output("a");
  nl.mark_input("g");
  const ChangeLog& log = nl.changes();
  ASSERT_EQ(log.revision(), 11u);
  EXPECT_EQ(log.entry(0).kind, ChangeKind::kNodeAdded);
  EXPECT_EQ(log.entry(0).node(), g);
  EXPECT_EQ(log.entry(3).kind, ChangeKind::kDeviceAdded);
  EXPECT_EQ(log.entry(3).device(), d);
  EXPECT_EQ(log.entry(4).kind, ChangeKind::kDeviceSized);
  EXPECT_EQ(log.entry(5).kind, ChangeKind::kDeviceFlow);
  EXPECT_EQ(log.entry(6).kind, ChangeKind::kNodeCap);
  EXPECT_EQ(log.entry(7).kind, ChangeKind::kNodeCap);
  EXPECT_EQ(log.entry(8).kind, ChangeKind::kNodeFixed);
  EXPECT_EQ(log.entry(8).node(), b);
  EXPECT_EQ(log.entry(9).kind, ChangeKind::kNodeRoleOutput);
  EXPECT_EQ(log.entry(10).kind, ChangeKind::kNodeRole);
}

TEST(Netlist, BulkTransistorsMatchOneByOneAdds) {
  // Same devices, once through add_transistor and once in bulk: ids,
  // adjacency lists (order included) and the journal must agree.
  const auto nodes = [](Netlist& nl) {
    for (const char* name : {"vdd", "gnd", "a", "b", "c"}) nl.add_node(name);
  };
  const std::vector<Transistor> devices = {
      {TransistorType::kPEnhancement, NodeId(2), NodeId(0), NodeId(3),
       8 * um, 2 * um, Flow::kBidirectional},
      {TransistorType::kNEnhancement, NodeId(2), NodeId(3), NodeId(1),
       4 * um, 2 * um, Flow::kSourceToDrain},
      {TransistorType::kNDepletion, NodeId(3), NodeId(4), NodeId(3),
       2 * um, 8 * um, Flow::kDrainToSource},
      {TransistorType::kNEnhancement, NodeId(3), NodeId(4), NodeId(1),
       4 * um, 2 * um, Flow::kBidirectional}};
  Netlist one;
  nodes(one);
  for (const Transistor& t : devices) {
    one.add_transistor(t.type, t.gate, t.source, t.drain, t.width, t.length,
                       t.flow);
  }
  Netlist bulk;
  nodes(bulk);
  bulk.add_transistors(devices);

  ASSERT_EQ(bulk.device_count(), one.device_count());
  for (DeviceId d : one.all_devices()) {
    const Transistor& a = one.device(d);
    const Transistor& b = bulk.device(d);
    EXPECT_EQ(a.type, b.type);
    EXPECT_EQ(a.gate, b.gate);
    EXPECT_EQ(a.source, b.source);
    EXPECT_EQ(a.drain, b.drain);
    EXPECT_EQ(a.width, b.width);
    EXPECT_EQ(a.length, b.length);
    EXPECT_EQ(a.flow, b.flow);
  }
  for (NodeId n : one.all_nodes()) {
    EXPECT_EQ(one.gated_by(n), bulk.gated_by(n));
    EXPECT_EQ(one.channels_at(n), bulk.channels_at(n));
  }
  ASSERT_EQ(bulk.revision(), one.revision());
  for (std::uint64_t i = 0; i < one.revision(); ++i) {
    EXPECT_EQ(bulk.changes().entry(i).kind, one.changes().entry(i).kind);
    EXPECT_EQ(bulk.changes().entry(i).index, one.changes().entry(i).index);
  }
  // Only a netlist without devices takes a bulk add.
  EXPECT_THROW(bulk.add_transistors(devices), ContractViolation);
}

TEST(TypeNames, LettersAndStrings) {
  EXPECT_EQ(to_letter(TransistorType::kNEnhancement), "e");
  EXPECT_EQ(to_letter(TransistorType::kNDepletion), "d");
  EXPECT_EQ(to_letter(TransistorType::kPEnhancement), "p");
  EXPECT_EQ(to_string(Transition::kRise), "rise");
  EXPECT_EQ(to_string(Transition::kFall), "fall");
  EXPECT_EQ(opposite(Transition::kRise), Transition::kFall);
  EXPECT_EQ(opposite(Transition::kFall), Transition::kRise);
}

// --- checks --------------------------------------------------------------

Netlist inverter_netlist() {
  Netlist nl;
  const NodeId vdd = nl.mark_power("vdd");
  const NodeId gnd = nl.mark_ground("gnd");
  const NodeId in = nl.mark_input("in");
  const NodeId out = nl.mark_output("out");
  nl.add_transistor(TransistorType::kNEnhancement, in, gnd, out, 8 * um,
                    4 * um);
  nl.add_transistor(TransistorType::kNDepletion, out, out, vdd, 4 * um,
                    8 * um);
  return nl;
}

TEST(Checks, CleanInverterPasses) {
  const Netlist nl = inverter_netlist();
  const auto ds = check(nl);
  EXPECT_TRUE(all_ok(ds)) << to_string(nl, ds);
  EXPECT_TRUE(ds.empty()) << to_string(nl, ds);
}

TEST(Checks, MissingRailsIsError) {
  Netlist nl;
  const NodeId a = nl.add_node("a");
  const NodeId b = nl.add_node("b");
  const NodeId g = nl.add_node("g");
  nl.add_transistor(TransistorType::kNEnhancement, g, a, b, 8 * um, 4 * um);
  const auto ds = check(nl);
  EXPECT_FALSE(all_ok(ds));
}

TEST(Checks, PowerAndGroundConflictIsError) {
  Netlist nl;
  nl.mark_power("x");
  nl.mark_ground("x");
  EXPECT_FALSE(all_ok(check(nl)));
}

TEST(Checks, PermanentlyOffDeviceIsError) {
  Netlist nl = inverter_netlist();
  const NodeId gnd = *nl.ground_node();
  const NodeId out = *nl.find_node("out");
  const NodeId x = nl.add_node("x");
  // n-enh gated by ground can never conduct.
  nl.add_transistor(TransistorType::kNEnhancement, gnd, out, x, 8 * um,
                    4 * um);
  EXPECT_FALSE(all_ok(check(nl)));
}

TEST(Checks, PseudoNmosLoadIsLegitimate) {
  Netlist nl;
  const NodeId vdd = nl.mark_power("vdd");
  const NodeId gnd = nl.mark_ground("gnd");
  const NodeId in = nl.mark_input("in");
  const NodeId out = nl.mark_output("out");
  nl.add_transistor(TransistorType::kNEnhancement, in, gnd, out, 8 * um,
                    4 * um);
  // p load gated by ground: permanently on, allowed.
  nl.add_transistor(TransistorType::kPEnhancement, gnd, out, vdd, 6 * um,
                    3 * um);
  EXPECT_TRUE(all_ok(check(nl)));
}

TEST(Checks, FloatingGateIsWarning) {
  Netlist nl = inverter_netlist();
  const NodeId ghost = nl.add_node("ghost");
  const NodeId gnd = *nl.ground_node();
  const NodeId out = *nl.find_node("out");
  nl.add_transistor(TransistorType::kNEnhancement, ghost, gnd, out, 8 * um,
                    4 * um);
  const auto ds = check(nl);
  EXPECT_TRUE(all_ok(ds));  // warning, not error
  bool found = false;
  for (const auto& d : ds) {
    if (d.message.find("floating gate") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found) << to_string(nl, ds);
}

TEST(Checks, UnreachableChannelIslandIsWarning) {
  Netlist nl = inverter_netlist();
  const NodeId a = nl.add_node("islanda");
  const NodeId b = nl.add_node("islandb");
  const NodeId in = *nl.find_node("in");
  nl.add_transistor(TransistorType::kNEnhancement, in, a, b, 8 * um, 4 * um);
  const auto ds = check(nl);
  EXPECT_TRUE(all_ok(ds));
  bool found = false;
  for (const auto& d : ds) {
    if (d.message.find("no channel path") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found) << to_string(nl, ds);
}

TEST(Checks, DiagnosticRenderingMentionsDevice) {
  Netlist nl = inverter_netlist();
  const NodeId gnd = *nl.ground_node();
  const NodeId out = *nl.find_node("out");
  const NodeId x = nl.add_node("x");
  nl.add_transistor(TransistorType::kNEnhancement, gnd, out, x, 8 * um,
                    4 * um);
  const auto ds = check(nl);
  const std::string text = to_string(nl, ds);
  EXPECT_NE(text.find("permanently off"), std::string::npos);
  EXPECT_NE(text.find("g=gnd"), std::string::npos);
}

}  // namespace
}  // namespace sldm

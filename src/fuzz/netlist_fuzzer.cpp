#include "fuzz/netlist_fuzzer.h"

#include <string>
#include <utility>
#include <vector>

#include "gen/builder.h"
#include "util/strings.h"
#include "util/units.h"

namespace sldm {

GeneratedCircuit random_soup(Style style, int gates, int bridges,
                             FuzzRng& rng) {
  CircuitBuilder b(style);
  const NodeId a = b.input("a");
  const NodeId sel = b.input("sel");  // held high (pass gates, NAND fill)
  const NodeId lo = b.input("lo");    // held low (NOR fill input)

  // Gate DAG: every gate draws its inputs from earlier signals only, so
  // the network is acyclic and every gate output is driven.
  std::vector<NodeId> signals{a};
  for (int i = 0; i < gates; ++i) {
    const std::string out = format("g%d", i);
    const NodeId x = signals[rng.below(signals.size())];
    switch (rng.below(3)) {
      case 0:
        signals.push_back(b.inverter(x, out));
        break;
      case 1: {
        const NodeId y = signals[rng.below(signals.size())];
        signals.push_back(b.nand_gate({x, y == x ? sel : y}, out));
        break;
      }
      default: {
        const NodeId y = signals[rng.below(signals.size())];
        signals.push_back(b.nor_gate({x, y == x ? lo : y}, out));
        break;
      }
    }
  }

  // Pass-transistor bridges between distinct gate outputs, gated by the
  // held-high select: the resulting channel-connected components span
  // several logic stages -- topology the benchmark generators never
  // emit.  Each bridge is flow-restricted from the topologically
  // earlier signal to the later one (the paper's flow attribute);
  // without the restriction a bridge would close a stage-graph cycle
  // and the static analyzer would rightly reject the circuit.
  for (int i = 0; i < bridges; ++i) {
    std::size_t xi = rng.below(signals.size());
    std::size_t yi = rng.below(signals.size());
    if (xi > yi) std::swap(xi, yi);
    const NodeId x = signals[xi];
    const NodeId y = signals[yi];
    if (x == y || x == a || y == a) continue;
    const DeviceId d = b.pass(x, y, sel);
    b.netlist().set_flow(d, Flow::kSourceToDrain);
  }

  // Random loading: fanout gates and explicit caps.  Untouched internal
  // nodes keep their default zero explicit capacitance, which is itself
  // a case worth covering (device caps still apply via Tech).
  for (NodeId s : signals) {
    if (rng.chance(1, 3)) {
      b.add_fanout_load(s, 1 + static_cast<int>(rng.below(3)));
    }
    if (rng.chance(1, 4)) {
      b.netlist().add_cap(
          s, static_cast<double>(rng.below(80)) * units::fF);
    }
  }

  GeneratedCircuit g;
  g.name = "soup_" + to_string(style) + "_g" + std::to_string(gates) + "_b" +
           std::to_string(bridges);
  g.style = style;
  g.input = a;
  g.output = b.netlist().mark_output(
      b.netlist().node(signals.back()).name);
  g.high_inputs = {sel};
  g.low_inputs = {lo};
  g.netlist = std::move(b.netlist());
  return g;
}

GeneratedCircuit random_circuit(FuzzRng& rng) {
  const Style style = rng.chance(1, 2) ? Style::kNmos : Style::kCmos;
  // Parameter ranges keep every stage path inside the extractor's
  // default depth (ExtractOptions::max_depth == 16) so the static
  // analysis remains a sound over-approximation for the switch-level
  // oracle.
  switch (rng.below(14)) {
    case 0:
      return inverter_chain(style, 1 + static_cast<int>(rng.below(10)),
                            1 + static_cast<int>(rng.below(4)));
    case 1:
      return nand_chain(style, 2 + static_cast<int>(rng.below(4)));
    case 2:
      return nor_chain(style, 2 + static_cast<int>(rng.below(4)));
    case 3:
      return pass_chain(style, 1 + static_cast<int>(rng.below(8)));
    case 4:
      return barrel_shifter(style, 2 + static_cast<int>(rng.below(4)));
    case 5:
      return manchester_carry(style, 2 + static_cast<int>(rng.below(5)));
    case 6:
      return precharged_bus(style, 2 + static_cast<int>(rng.below(5)));
    case 7:
      return driver_chain(style, 2 + static_cast<int>(rng.below(4)),
                          1.5 + 0.5 * static_cast<double>(rng.below(4)),
                          20.0 + static_cast<double>(rng.below(100)));
    case 8:
      return address_decoder(style, 1 + static_cast<int>(rng.below(4)));
    case 9:
      return pla(style, 2 + static_cast<int>(rng.below(4)),
                 2 + static_cast<int>(rng.below(5)),
                 1 + static_cast<int>(rng.below(3)), rng.next());
    case 10:
      return shift_register(style, 1 + static_cast<int>(rng.below(4)));
    case 11:
      return sram_read_column(style, 1 + static_cast<int>(rng.below(8)));
    case 12:
      return random_logic(style, 2 + static_cast<int>(rng.below(4)),
                          2 + static_cast<int>(rng.below(6)), rng.next());
    default:
      return random_soup(style, 2 + static_cast<int>(rng.below(6)),
                         static_cast<int>(rng.below(4)), rng);
  }
}

}  // namespace sldm

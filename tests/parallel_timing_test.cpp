// The pieces the timing pipeline is built on: the CCC partition, the
// analyzer's phase counters and its run-once / reset() contract, and
// the thread pool serve's request workers run on.  (That extraction
// follows node order on every generator is pinned in
// stage_table_test.)
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>

#include "delay/rctree.h"
#include "design/compiled_design.h"
#include "gen/generators.h"
#include "tech/tech.h"
#include "timing/analyzer.h"
#include "timing/ccc.h"
#include "util/error.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace sldm {
namespace {

/// One circuit per generator in src/gen (both styles where the
/// structure differs: ratioed nMOS exercises release stages).
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

TEST(ParallelTiming, StatsPhasesPopulated) {
  const RcTreeModel model;
  const GeneratedCircuit g = inverter_chain(Style::kCmos, 6, 2);
  TimingAnalyzer an(g.netlist, tech_for(g), model);
  an.add_input_event(g.input, Transition::kRise, 0.0, 1e-9);
  an.run();
  const AnalyzerStats& st = an.stats();
  EXPECT_GT(st.stage_count, 0u);
  EXPECT_GT(st.ccc_count, 0u);
  EXPECT_EQ(an.design().stages_per_ccc().size(), st.ccc_count);
  std::size_t sum = 0;
  for (std::size_t s : an.design().stages_per_ccc()) sum += s;
  EXPECT_EQ(sum, st.stage_count);
  EXPECT_GE(st.extract_seconds, 0.0);
  EXPECT_GE(st.propagate_seconds, 0.0);
  EXPECT_GT(st.stage_evaluations, 0u);
  EXPECT_GT(st.keys_priced, 0u);
  EXPECT_GT(st.arrival_updates, 0u);
}

TEST(Analyzer, RunTwiceThrowsClearError) {
  const RcTreeModel model;
  const GeneratedCircuit g = inverter_chain(Style::kCmos, 2, 1);
  TimingAnalyzer an(g.netlist, tech_for(g), model);
  an.add_input_event(g.input, Transition::kRise, 0.0, 1e-9);
  an.run();
  EXPECT_THROW(an.run(), Error);
  EXPECT_THROW(an.add_input_event(g.input, Transition::kFall, 0.0, 1e-9),
               Error);
  EXPECT_THROW(an.add_all_input_events(1e-9), Error);
}

TEST(Analyzer, ResetAllowsReanalysis) {
  const RcTreeModel model;
  const GeneratedCircuit g = inverter_chain(Style::kCmos, 3, 1);
  TimingAnalyzer an(g.netlist, tech_for(g), model);
  an.add_input_event(g.input, Transition::kRise, 0.0, 1e-9);
  an.run();
  const auto first = an.worst_arrival(false);
  ASSERT_TRUE(first.has_value());

  an.reset();
  // Opposite-direction analysis after reset: old arrivals are gone.
  an.add_input_event(g.input, Transition::kFall, 0.0, 1e-9);
  an.run();
  const NodeId s1 = *g.netlist.find_node("s1");
  EXPECT_TRUE(an.arrival(s1, Transition::kRise).has_value());
  EXPECT_FALSE(an.arrival(s1, Transition::kFall).has_value())
      << "stale pre-reset arrival leaked through reset()";

  // And the same analysis repeated after reset matches a fresh run.
  an.reset();
  an.add_input_event(g.input, Transition::kRise, 0.0, 1e-9);
  an.run();
  const auto again = an.worst_arrival(false);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(first->node, again->node);
  EXPECT_EQ(first->time, again->time);
}

TEST(Ccc, PartitionCoversChannelNodesDisjointly) {
  for (const GeneratedCircuit& g : generator_suite()) {
    const CccPartition ccc(g.netlist);
    std::set<std::uint32_t> seen;
    for (std::size_t c = 0; c < ccc.count(); ++c) {
      for (NodeId n : ccc.members(c)) {
        EXPECT_TRUE(seen.insert(n.value()).second)
            << g.name << ": node in two components";
        EXPECT_EQ(ccc.component_of(n), c) << g.name;
        EXPECT_FALSE(g.netlist.is_rail(n)) << g.name;
        EXPECT_FALSE(g.netlist.channels_at(n).empty()) << g.name;
      }
    }
    for (NodeId n : g.netlist.node_ids()) {
      const bool partitioned =
          ccc.component_of(n) != CccPartition::kNone;
      const bool expected = !g.netlist.is_rail(n) &&
                            !g.netlist.channels_at(n).empty();
      EXPECT_EQ(partitioned, expected) << g.name;
    }
  }
}

TEST(Ccc, ChannelConnectedNodesShareAComponent) {
  const GeneratedCircuit g = pass_chain(Style::kNmos, 4);
  const CccPartition ccc(g.netlist);
  // Every internal node of the pass chain is channel-connected.
  const std::size_t c = ccc.component_of(*g.netlist.find_node("p1"));
  ASSERT_NE(c, CccPartition::kNone);
  for (int i = 2; i <= 4; ++i) {
    EXPECT_EQ(ccc.component_of(*g.netlist.find_node(format("p%d", i))), c);
  }
}

/// Reads every adjacency span of `nl` from 4 threads at once; each
/// returns the number of (node, device) incidences it saw.
std::vector<std::size_t> read_adjacency_concurrently(const Netlist& nl) {
  std::vector<std::size_t> seen(4, 0);
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < seen.size(); ++r) {
    readers.emplace_back([&nl, &seen, r] {
      for (NodeId n : nl.all_nodes()) {
        seen[r] += nl.gated_by(n).size() + nl.channels_at(n).size();
      }
    });
  }
  for (std::thread& t : readers) t.join();
  return seen;
}

TEST(ParallelTiming, AdjacencyIsFreshBeforeADesignIsShared) {
  // Devices added one at a time leave the netlist's adjacency stale,
  // and a stale read rebuilds it.  Compiling a design and updating an
  // analyzer must rebuild it first, so that readers of the design
  // never write (tsan runs this suite in scripts/check.sh).
  const GeneratedCircuit g = random_logic(Style::kCmos, 6, 10, 0xABCD);
  Netlist nl = g.netlist;
  const NodeId grown = nl.add_node("grown");
  for (int i = 0; i < 3; ++i) {
    nl.add_transistor(TransistorType::kNEnhancement, g.input, grown,
                      g.output, 2e-6, 2e-6);
  }
  ASSERT_FALSE(nl.adjacency_fresh());
  auto design = CompiledDesign::compile_owned(std::move(nl), cmos3());
  EXPECT_TRUE(design->netlist().adjacency_fresh());
  for (const std::size_t seen :
       read_adjacency_concurrently(design->netlist())) {
    EXPECT_EQ(seen, 3 * design->netlist().device_count());
  }

  const RcTreeModel model;
  TimingAnalyzer analyzer(std::move(design), model);
  analyzer.mutable_netlist().add_transistor(
      TransistorType::kNEnhancement, g.output, grown, g.input, 2e-6, 2e-6);
  ASSERT_FALSE(analyzer.netlist().adjacency_fresh());
  analyzer.update();
  EXPECT_TRUE(analyzer.netlist().adjacency_fresh());
  for (const std::size_t seen :
       read_adjacency_concurrently(analyzer.netlist())) {
    EXPECT_EQ(seen, 3 * analyzer.netlist().device_count());
  }
}

TEST(ThreadPool, WaitDrainsEverySubmittedTask) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    pool.submit([&hits, i] { hits[i].fetch_add(1); });
  }
  pool.wait();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SingleThreadRunsInlineInOrder) {
  ThreadPool pool(1);
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    pool.submit([&order, i] { order.push_back(i); });
  }
  pool.wait();
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ThreadPool, TaskExceptionRethrownFromWait) {
  for (const int size : {1, 3}) {
    ThreadPool pool(size);
    for (int i = 0; i < 5; ++i) {
      pool.submit([i] {
        if (i == 3) throw Error("boom");
      });
    }
    EXPECT_THROW(pool.wait(), Error) << "size=" << size;
    // The pool stays usable after an exception.
    std::atomic<int> ran{0};
    pool.submit([&ran] { ran.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(ran.load(), 1);
  }
}

}  // namespace
}  // namespace sldm

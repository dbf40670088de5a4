// Determinism of the component-partitioned timing pipeline: for every
// circuit generator, stage extraction and arrival propagation with
// threads=N must be bit-identical to threads=1 (which in turn is the
// reference sequential order).  Also covers the thread pool and the CCC
// partition the pipeline is built on, and the analyzer's run-once /
// reset() contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>

#include "delay/rctree.h"
#include "gen/generators.h"
#include "tech/tech.h"
#include "timing/analyzer.h"
#include "timing/ccc.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace sldm {
namespace {

bool same_stage(const TimingStage& a, const TimingStage& b) {
  return a.source == b.source && a.destination == b.destination &&
         a.output_dir == b.output_dir &&
         std::ranges::equal(a.path, b.path) &&
         a.trigger == b.trigger &&
         a.trigger_gate_dir == b.trigger_gate_dir &&
         a.trigger_is_release == b.trigger_is_release &&
         a.source_triggered == b.source_triggered;
}

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

TEST(ParallelTiming, StagesBitIdenticalAcrossThreadCounts) {
  const RcTreeModel model;
  for (const GeneratedCircuit& g : generator_suite()) {
    AnalyzerOptions seq;
    seq.threads = 1;
    TimingAnalyzer a1(g.netlist, tech_for(g), model, seq);
    for (const int threads : {2, 4, ThreadPool::hardware_threads()}) {
      AnalyzerOptions par;
      par.threads = threads;
      TimingAnalyzer aN(g.netlist, tech_for(g), model, par);
      ASSERT_EQ(a1.stages().size(), aN.stages().size())
          << g.name << " threads=" << threads;
      for (std::size_t i = 0; i < a1.stages().size(); ++i) {
        ASSERT_TRUE(same_stage(a1.stages()[i], aN.stages()[i]))
            << g.name << " threads=" << threads << " stage " << i;
      }
    }
  }
}

TEST(ParallelTiming, ArrivalsBitIdenticalAcrossThreadCounts) {
  const RcTreeModel model;
  for (const GeneratedCircuit& g : generator_suite()) {
    AnalyzerOptions seq;
    seq.threads = 1;
    TimingAnalyzer a1(g.netlist, tech_for(g), model, seq);
    a1.add_input_event(g.input, Transition::kRise, 0.0, 1e-9);
    a1.run();
    AnalyzerOptions par;
    par.threads = 4;
    TimingAnalyzer a4(g.netlist, tech_for(g), model, par);
    a4.add_input_event(g.input, Transition::kRise, 0.0, 1e-9);
    a4.run();

    for (NodeId n : g.netlist.node_ids()) {
      for (Transition dir : {Transition::kRise, Transition::kFall}) {
        const auto i1 = a1.arrival(n, dir);
        const auto i4 = a4.arrival(n, dir);
        ASSERT_EQ(i1.has_value(), i4.has_value()) << g.name;
        if (!i1) continue;
        // Bitwise equality, not tolerance: the merge must reproduce the
        // sequential stage order exactly.
        EXPECT_EQ(i1->time, i4->time) << g.name;
        EXPECT_EQ(i1->slope, i4->slope) << g.name;
        EXPECT_EQ(i1->from_node, i4->from_node) << g.name;
        EXPECT_EQ(i1->from_dir, i4->from_dir) << g.name;
        EXPECT_EQ(i1->via_stage, i4->via_stage) << g.name;
      }
    }
    const auto w1 = a1.worst_arrival(/*outputs_only=*/true);
    const auto w4 = a4.worst_arrival(/*outputs_only=*/true);
    ASSERT_EQ(w1.has_value(), w4.has_value()) << g.name;
    if (w1) {
      EXPECT_EQ(w1->node, w4->node) << g.name;
      EXPECT_EQ(w1->dir, w4->dir) << g.name;
      EXPECT_EQ(w1->time, w4->time) << g.name;
    }
  }
}

TEST(ParallelTiming, WholeTestsuiteSeedSlopeAllInputs) {
  // Full-suite flavor: every input seeded both directions, stats
  // consistent between thread counts.
  const RcTreeModel model;
  const GeneratedCircuit g = random_logic(Style::kCmos, 5, 8, 0x77);
  AnalyzerOptions seq;
  AnalyzerOptions par;
  par.threads = 4;
  TimingAnalyzer a1(g.netlist, tech_for(g), model, seq);
  TimingAnalyzer a4(g.netlist, tech_for(g), model, par);
  a1.add_all_input_events(1e-9);
  a4.add_all_input_events(1e-9);
  a1.run();
  a4.run();
  EXPECT_EQ(a1.stats().stage_count, a4.stats().stage_count);
  EXPECT_EQ(a1.stats().ccc_count, a4.stats().ccc_count);
  EXPECT_EQ(a1.design().stages_per_ccc(), a4.design().stages_per_ccc());
  EXPECT_EQ(a1.stats().stage_evaluations, a4.stats().stage_evaluations);
  EXPECT_EQ(a1.stats().worklist_pushes, a4.stats().worklist_pushes);
  EXPECT_EQ(a1.stats().arrival_updates, a4.stats().arrival_updates);
  EXPECT_EQ(a4.stats().threads, 4);
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
  EXPECT_GT(st.worklist_pushes, 0u);
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
    EXPECT_EQ(ccc.component_of(
                  *g.netlist.find_node("p" + std::to_string(i))),
              c);
  }
}

TEST(ThreadPool, ParallelForRunsEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  parallel_for(pool, hits.size(),
               [&](std::size_t i) { hits[i].fetch_add(1); });
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
  for (const int threads : {1, 3}) {
    ThreadPool pool(threads);
    for (int i = 0; i < 5; ++i) {
      pool.submit([i] {
        if (i == 3) throw Error("boom");
      });
    }
    EXPECT_THROW(pool.wait(), Error) << "threads=" << threads;
    // The pool stays usable after an exception.
    std::atomic<int> ran{0};
    pool.submit([&ran] { ran.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(ran.load(), 1);
  }
}

}  // namespace
}  // namespace sldm

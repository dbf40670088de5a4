// The StageStore batch kernel (delay/model.h), the one path every model
// prices a stage through: the store's insertion-time caches against the
// RcTree/Stage reference definitions over the stage sets of every
// circuit generator in src/gen, plus the batch-boundary edge cases
// (empty batch, repeated ids in a batch larger than the store).
#include <gtest/gtest.h>

#include <vector>

#include "delay/bounds.h"
#include "delay/lumped.h"
#include "delay/rctree.h"
#include "delay/slope.h"
#include "delay/stage_store.h"
#include "delay/unit.h"
#include "gen/generators.h"
#include "rc/rc_tree.h"
#include "tech/tech.h"
#include "timing/analyzer.h"
#include "timing/stage_extract.h"

namespace sldm {
namespace {

/// One circuit per generator in src/gen (both styles, so release stages
/// and depletion loads land in the store too).
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

/// The six models (unit tables for slope, both bound modes).
struct ModelSet {
  LumpedRcModel lumped;
  RcTreeModel rctree;
  SlopeModel slope{SlopeTables::unit()};
  RphBoundsModel upper{RphBoundsModel::Mode::kUpper};
  RphBoundsModel lower{RphBoundsModel::Mode::kLower};
  UnitDelayModel unit{1e-9};

  std::vector<const DelayModel*> all() const {
    return {&lumped, &rctree, &slope, &upper, &lower, &unit};
  }
};

TEST(BatchKernel, StoreCachesMatchRcTreeReference) {
  // RcTree and the Stage getters are the reference definitions of the
  // quantities the store caches at insertion.  StageStore::add follows
  // their summation order term for term, so the caches are bit-identical
  // to the reference -- the %.17g reports and answer digests depend on
  // it.  The bounds models, which read T_D and T_P from the caches, must
  // give the tree's own RPH bounds.
  const RcTreeModel extraction_model;  // store content is model-free
  const RphBoundsModel upper(RphBoundsModel::Mode::kUpper);
  const RphBoundsModel lower(RphBoundsModel::Mode::kLower);
  for (const GeneratedCircuit& g : generator_suite()) {
    const TimingAnalyzer an(g.netlist, tech_for(g), extraction_model);
    const StageStore& store = an.stage_store();
    ASSERT_GT(store.size(), 0u) << g.name;
    for (std::size_t s = 0; s < store.size(); ++s) {
      const auto id = static_cast<StageStore::StageId>(s);
      const Stage stage =
          make_stage(g.netlist, tech_for(g), an.stages()[s], 0.0);
      const RcTree tree = to_rc_tree(stage);
      const std::size_t dest = stage.elements.size();
      EXPECT_EQ(store.elmore(id), tree.elmore(dest))
          << g.name << " stage " << s;
      EXPECT_EQ(store.total_time_constant(id), tree.total_time_constant())
          << g.name << " stage " << s;
      EXPECT_EQ(store.total_resistance(id), stage.total_resistance())
          << g.name << " stage " << s;
      EXPECT_EQ(store.total_cap(id), stage.total_cap())
          << g.name << " stage " << s;
      EXPECT_EQ(store.destination_cap(id), stage.destination_cap());
      EXPECT_EQ(store.length(id), stage.elements.size());

      const StageStore::StageId ids[] = {id};
      const Seconds slopes[] = {0.0};
      DelayEstimate up[1];
      DelayEstimate lo[1];
      upper.estimate_batch(store, ids, slopes, up);
      lower.estimate_batch(store, ids, slopes, lo);
      const RcTree::Bounds b = tree.rph_bounds(dest, 0.5);
      EXPECT_EQ(up[0].delay, b.upper) << g.name << " stage " << s;
      EXPECT_EQ(lo[0].delay, b.lower) << g.name << " stage " << s;
    }
  }
}

TEST(BatchKernel, EmptyBatchIsANoOp) {
  const ModelSet models;
  const RcTreeModel extraction_model;
  const GeneratedCircuit g = inverter_chain(Style::kCmos, 4, 1);
  const TimingAnalyzer an(g.netlist, tech_for(g), extraction_model);
  for (const DelayModel* model : models.all()) {
    std::vector<StageStore::StageId> ids;
    std::vector<Seconds> slopes;
    std::vector<DelayEstimate> out;
    model->estimate_batch(an.stage_store(), ids, slopes, out);
    EXPECT_TRUE(out.empty()) << model->name();
  }
}

TEST(BatchKernel, RepeatedIdsBatchLargerThanStore) {
  // Ids may repeat and a batch may hold more items than the store holds
  // stages: every item is priced as if alone (here: as the standalone
  // stage through estimate()), so repeats with different slopes leak no
  // per-stage state between items.
  const ModelSet models;
  const RcTreeModel extraction_model;
  const GeneratedCircuit g = pass_chain(Style::kNmos, 5);
  const TimingAnalyzer an(g.netlist, tech_for(g), extraction_model);
  const StageStore& store = an.stage_store();
  std::vector<StageStore::StageId> ids;
  std::vector<Seconds> slopes;
  const std::size_t n = 3 * store.size() + 2;
  for (std::size_t i = 0; i < n; ++i) {
    ids.push_back(static_cast<StageStore::StageId>(i % store.size()));
    slopes.push_back(0.1e-9 + static_cast<Seconds>(i % 7) * 0.35e-9);
  }
  for (const DelayModel* model : models.all()) {
    std::vector<DelayEstimate> batch(n);
    model->estimate_batch(store, ids, slopes, batch);
    for (std::size_t i = 0; i < n; ++i) {
      const DelayEstimate alone = model->estimate(make_stage(
          g.netlist, tech_for(g), an.stages()[ids[i]], slopes[i]));
      EXPECT_EQ(batch[i].delay, alone.delay) << model->name() << ' ' << i;
      EXPECT_EQ(batch[i].output_slope, alone.output_slope)
          << model->name() << ' ' << i;
    }
  }
}

}  // namespace
}  // namespace sldm

#include "delay/stage.h"

#include "util/contracts.h"

namespace sldm {

Farads Stage::destination_cap() const {
  SLDM_EXPECTS(!elements.empty());
  return elements.back().cap;
}

Ohms Stage::total_resistance() const {
  Ohms r = 0.0;
  for (const StageElement& e : elements) r += e.resistance;
  return r;
}

Farads Stage::total_cap() const {
  Farads c = 0.0;
  for (const StageElement& e : elements) c += e.cap;
  return c;
}

void validate(const Stage& stage) {
  SLDM_EXPECTS(!stage.elements.empty());
  SLDM_EXPECTS(stage.trigger_index < stage.elements.size());
  SLDM_EXPECTS(stage.input_slope >= 0.0);
  for (const StageElement& e : stage.elements) {
    SLDM_EXPECTS(e.resistance > 0.0);
    SLDM_EXPECTS(e.cap >= 0.0);
  }
  SLDM_EXPECTS(stage.total_cap() > 0.0);
}

RcTree to_rc_tree(const Stage& stage) {
  validate(stage);
  RcTree tree;
  std::size_t parent = 0;
  for (const StageElement& e : stage.elements) {
    parent = tree.add_node(parent, e.resistance, e.cap);
  }
  return tree;
}

Seconds stage_elmore(const Stage& stage) {
  const RcTree tree = to_rc_tree(stage);
  return tree.elmore(stage.elements.size());
}

}  // namespace sldm

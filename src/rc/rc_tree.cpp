#include "rc/rc_tree.h"

#include "util/contracts.h"

namespace sldm {

RcTree::RcTree(Farads root_cap) {
  SLDM_EXPECTS(root_cap >= 0.0);
  parent_.push_back(0);
  r_up_.push_back(0.0);
  cap_.push_back(root_cap);
}

std::size_t RcTree::add_node(std::size_t parent, Ohms r, Farads c) {
  check_node(parent);
  SLDM_EXPECTS(r > 0.0);
  SLDM_EXPECTS(c >= 0.0);
  parent_.push_back(parent);
  r_up_.push_back(r);
  cap_.push_back(c);
  return parent_.size() - 1;
}

void RcTree::add_cap(std::size_t node, Farads c) {
  check_node(node);
  SLDM_EXPECTS(c >= 0.0);
  cap_[node] += c;
}

Farads RcTree::subtree_cap(std::size_t node) const {
  check_node(node);
  // Children always have larger indices, so one reverse sweep
  // accumulates subtree sums; here we only need one subtree, so walk
  // descendants directly (indices > node whose ancestor chain passes
  // through node).
  Farads total = 0.0;
  for (std::size_t k = node; k < parent_.size(); ++k) {
    std::size_t a = k;
    while (a > node) a = parent_[a];
    if (a == node) total += cap_[k];
  }
  return total;
}

Farads RcTree::total_cap() const {
  Farads total = 0.0;
  for (Farads c : cap_) total += c;
  return total;
}

Ohms RcTree::path_resistance(std::size_t node) const {
  check_node(node);
  Ohms r = 0.0;
  for (std::size_t a = node; a != 0; a = parent_[a]) r += r_up_[a];
  return r;
}

Ohms RcTree::common_resistance(std::size_t a, std::size_t b) const {
  check_node(a);
  check_node(b);
  // Collect a's ancestor chain, then walk b upward until we hit it; the
  // common resistance is the root->LCA path resistance.
  std::vector<bool> on_a_path(parent_.size(), false);
  for (std::size_t x = a;; x = parent_[x]) {
    on_a_path[x] = true;
    if (x == 0) break;
  }
  std::size_t lca = b;
  while (!on_a_path[lca]) lca = parent_[lca];
  return path_resistance(lca);
}

Seconds RcTree::elmore(std::size_t node) const {
  check_node(node);
  Seconds t = 0.0;
  for (std::size_t k = 0; k < parent_.size(); ++k) {
    if (cap_[k] == 0.0) continue;
    t += common_resistance(node, k) * cap_[k];
  }
  return t;
}

Seconds RcTree::total_time_constant() const {
  Seconds t = 0.0;
  for (std::size_t k = 0; k < parent_.size(); ++k) {
    t += path_resistance(k) * cap_[k];
  }
  return t;
}

RcTree::Bounds RcTree::rph_bounds(std::size_t node, double v) const {
  check_node(node);
  return sldm::rph_bounds(elmore(node), total_time_constant(), v);
}

RcTree::Bounds rph_bounds(Seconds td, Seconds tp, double v) {
  SLDM_EXPECTS(v > 0.0 && v < 1.0);
  RcTree::Bounds b;
  b.lower = td - (1.0 - v) * tp;
  if (b.lower < 0.0) b.lower = 0.0;
  b.upper = td / (1.0 - v);
  SLDM_ENSURES(b.upper >= b.lower);
  return b;
}

Seconds RcTree::delay_50(std::size_t node) const {
  return kLn2 * elmore(node);
}

Seconds RcTree::slope(std::size_t node) const {
  return kSlopeFactor * elmore(node);
}

void RcTree::check_node(std::size_t node) const {
  SLDM_EXPECTS(node < parent_.size());
}

}  // namespace sldm

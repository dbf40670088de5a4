// RC tree analysis: Elmore delay and Rubinstein-Penfield-Horowitz bounds.
//
// A stage extracted by the timing analyzer is an RC tree rooted at the
// value source (rail/input/precharged node): tree edges carry the
// effective resistances of the conducting transistors and tree nodes
// carry the lumped node capacitances.  The paper's "distributed RC"
// model evaluates the Elmore delay of this tree; the RPH bounds brace it
// from both sides (Ablation B measures their tightness).
#pragma once

#include <cstddef>
#include <vector>

#include "util/units.h"

namespace sldm {

/// An RC tree.  Node 0 is the root (the driving source); every other
/// node is added with its parent, the resistance of the edge to the
/// parent, and its grounded capacitance.
class RcTree {
 public:
  /// Creates a tree whose root has capacitance `root_cap` (normally 0:
  /// the root is an ideal source).
  explicit RcTree(Farads root_cap = 0.0);

  /// Adds a node under `parent`.  Preconditions: parent already exists;
  /// r > 0; c >= 0.  Returns the new node's index.
  std::size_t add_node(std::size_t parent, Ohms r, Farads c);

  std::size_t node_count() const { return parent_.size(); }

  /// Adds extra capacitance to an existing node (side loads).
  void add_cap(std::size_t node, Farads c);

  /// Total capacitance in the subtree rooted at `node` (inclusive).
  Farads subtree_cap(std::size_t node) const;

  /// Total capacitance of the whole tree.
  Farads total_cap() const;

  /// Path resistance from the root to `node`.
  Ohms path_resistance(std::size_t node) const;

  /// Resistance of the common portion of the root->a and root->b paths
  /// (the classic R_ab of the RPH analysis).
  Ohms common_resistance(std::size_t a, std::size_t b) const;

  /// Elmore delay (first moment of the impulse response) at `node`:
  /// T_D = sum_k R_common(node, k) * C_k.
  Seconds elmore(std::size_t node) const;

  /// T_P = sum_k R_k * C_k  (the RPH "total" time constant; an upper
  /// envelope shared by all nodes).
  Seconds total_time_constant() const;

  /// Bounds on the time for the (normalized, monotone) step response at
  /// `node` to reach fraction `v` of its final value, from Rubinstein,
  /// Penfield & Horowitz, "Signal delay in RC tree networks" (1983):
  ///   1 - x(t) >= (T_D - t) / T_P   =>  t_lower = T_D - (1-v) T_P
  ///   1 - x(t) <= T_D / t           =>  t_upper = T_D / (1-v)
  /// Precondition: 0 < v < 1.
  struct Bounds {
    Seconds lower = 0.0;
    Seconds upper = 0.0;
  };
  Bounds rph_bounds(std::size_t node, double v) const;

  /// The conventional point estimate of 50%-crossing delay derived from
  /// the Elmore time constant: ln(2) * T_D.
  Seconds delay_50(std::size_t node) const;

  /// Full-swing-equivalent transition time of the exponential with time
  /// constant T_D: (t90 - t10)/0.8 = ln(9)/0.8 * T_D.
  Seconds slope(std::size_t node) const;

 private:
  void check_node(std::size_t node) const;

  std::vector<std::size_t> parent_;  // parent_[0] == 0
  std::vector<Ohms> r_up_;           // resistance to parent (0 for root)
  std::vector<Farads> cap_;
};

/// The RPH bounds of RcTree::rph_bounds from the node's Elmore constant
/// `td` and the tree's total time constant `tp`; the lower bound is
/// clamped at 0.  Precondition: 0 < v < 1.
RcTree::Bounds rph_bounds(Seconds td, Seconds tp, double v);

/// ln(2): time-constant -> 50% delay conversion for an exponential.
inline constexpr double kLn2 = 0.6931471805599453;
/// ln(9)/0.8: time-constant -> full-swing-equivalent transition time.
inline constexpr double kSlopeFactor = 2.746530721670274;

}  // namespace sldm

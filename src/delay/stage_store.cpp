#include "delay/stage_store.h"

#include <algorithm>

#include "util/contracts.h"
#include "util/error.h"

namespace sldm {

StageStore::StageId StageStore::add(const Stage& stage) {
  validate(stage);
  for (const StageElement& e : stage.elements) {
    push_element(e.type, e.resistance, e.cap);
  }
  return close_stage(stage.output_dir, stage.trigger_index);
}

StageStore::StageId StageStore::close_stage(Transition output_dir,
                                            std::size_t trigger_index) {
  const std::size_t begin = offset_.back();
  const std::size_t n = elem_r_.size() - begin;
  SLDM_EXPECTS(n != 0);
  SLDM_EXPECTS(trigger_index < n);
  SLDM_EXPECTS(elem_r_.size() <= UINT32_MAX);
  const Caches caches =
      bake_caches(elem_r_.data() + begin, elem_c_.data() + begin, n);

  const StageId id = static_cast<StageId>(size());
  offset_.push_back(static_cast<std::uint32_t>(elem_r_.size()));
  output_dir_.push_back(output_dir);
  trigger_index_.push_back(static_cast<std::uint32_t>(trigger_index));
  trigger_type_.push_back(elem_type_[begin + trigger_index]);
  total_r_.push_back(caches.total_r);
  total_c_.push_back(caches.total_c);
  dest_c_.push_back(caches.dest_c);
  elmore_.push_back(caches.elmore);
  tp_.push_back(caches.tp);
  return id;
}

void StageStore::rebake_stage(StageId s, std::span<const Ohms> r,
                              std::span<const Farads> c) {
  SLDM_EXPECTS(s < size());
  const std::size_t begin = offset_[s];
  const std::size_t n = length(s);
  SLDM_EXPECTS(r.size() == n && c.size() == n);
  // Checked before any write, so a throw leaves the stage untouched.
  const Caches caches = bake_caches(r.data(), c.data(), n);
  std::copy(r.begin(), r.end(), elem_r_.data() + begin);
  std::copy(c.begin(), c.end(), elem_c_.data() + begin);
  total_r_[s] = caches.total_r;
  total_c_[s] = caches.total_c;
  dest_c_[s] = caches.dest_c;
  elmore_[s] = caches.elmore;
  tp_[s] = caches.tp;
}

StageStore::Caches StageStore::bake_caches(const Ohms* r, const Farads* c,
                                           std::size_t n) {
  Caches out;
  for (std::size_t i = 0; i < n; ++i) {
    SLDM_EXPECTS(r[i] > 0.0);
    SLDM_EXPECTS(c[i] >= 0.0);
    out.total_r += r[i];
    out.total_c += c[i];
  }
  SLDM_EXPECTS(out.total_c > 0.0);
  out.dest_c = c[n - 1];

  // The Elmore constant and the RPH total time constant follow the
  // RcTree arithmetic (to_rc_tree builds a pure chain: tree node k is
  // element k-1, the destination is the last node) term for term and in
  // the same summation order, without allocating a tree per stage:
  //  * RcTree::path_resistance(k) sums r_up from node k upward
  //    (descending element index);
  //  * elmore(dest) adds path_resistance(k) * cap_k over ascending k,
  //    skipping zero caps (the LCA of the destination with any chain
  //    node k is k itself, so common_resistance == path_resistance);
  //  * total_time_constant() is the same sum without the skip (the
  //    zero-cap root contributes +0.0, which no non-negative sum
  //    notices).
  for (std::size_t k = 1; k <= n; ++k) {
    Ohms path_r = 0.0;
    for (std::size_t a = k; a != 0; --a) path_r += r[a - 1];
    if (c[k - 1] != 0.0) out.elmore += path_r * c[k - 1];
    out.tp += path_r * c[k - 1];
  }
  return out;
}

void StageStore::clear() {
  elem_type_.clear();
  elem_r_.clear();
  elem_c_.clear();
  offset_.assign(1, 0);
  output_dir_.clear();
  trigger_index_.clear();
  trigger_type_.clear();
  total_r_.clear();
  total_c_.clear();
  dest_c_.clear();
  elmore_.clear();
  tp_.clear();
}

void StageStore::reserve(std::size_t stages, std::size_t elements) {
  elem_type_.reserve(elements);
  elem_r_.reserve(elements);
  elem_c_.reserve(elements);
  offset_.reserve(stages + 1);
  output_dir_.reserve(stages);
  trigger_index_.reserve(stages);
  trigger_type_.reserve(stages);
  total_r_.reserve(stages);
  total_c_.reserve(stages);
  dest_c_.reserve(stages);
  elmore_.reserve(stages);
  tp_.reserve(stages);
}

StageStore StageStore::from_arrays(RawArrays arrays) {
  if (arrays.offset.empty() || arrays.offset.front() != 0 ||
      arrays.offset.back() != arrays.elem_r.size()) {
    throw Error("stage store arrays are inconsistent: bad offset table");
  }
  const std::size_t stages = arrays.offset.size() - 1;
  const std::size_t elements = arrays.elem_r.size();
  if (arrays.elem_type.size() != elements ||
      arrays.elem_c.size() != elements) {
    throw Error("stage store arrays are inconsistent: element lengths");
  }
  if (arrays.output_dir.size() != stages ||
      arrays.trigger_index.size() != stages ||
      arrays.trigger_type.size() != stages ||
      arrays.total_r.size() != stages || arrays.total_c.size() != stages ||
      arrays.dest_c.size() != stages || arrays.elmore.size() != stages ||
      arrays.tp.size() != stages) {
    throw Error("stage store arrays are inconsistent: per-stage lengths");
  }
  for (std::size_t s = 0; s < stages; ++s) {
    if (arrays.offset[s] > arrays.offset[s + 1]) {
      throw Error("stage store arrays are inconsistent: bad offset table");
    }
    const std::uint32_t len = arrays.offset[s + 1] - arrays.offset[s];
    if (len == 0 || arrays.trigger_index[s] >= len) {
      throw Error(
          "stage store arrays are inconsistent: trigger out of window");
    }
  }
  StageStore store;
  store.elem_type_ = std::move(arrays.elem_type);
  store.elem_r_ = std::move(arrays.elem_r);
  store.elem_c_ = std::move(arrays.elem_c);
  store.offset_ = std::move(arrays.offset);
  store.output_dir_ = std::move(arrays.output_dir);
  store.trigger_index_ = std::move(arrays.trigger_index);
  store.trigger_type_ = std::move(arrays.trigger_type);
  store.total_r_ = std::move(arrays.total_r);
  store.total_c_ = std::move(arrays.total_c);
  store.dest_c_ = std::move(arrays.dest_c);
  store.elmore_ = std::move(arrays.elmore);
  store.tp_ = std::move(arrays.tp);
  return store;
}

}  // namespace sldm

#include "timing/stage_table.h"

#include <type_traits>

#include "util/contracts.h"

namespace sldm {

// The snapshot codec copies these arrays as raw u32 words.
static_assert(sizeof(NodeId) == 4 && std::is_trivially_copyable_v<NodeId>);
static_assert(sizeof(DeviceId) == 4 &&
              std::is_trivially_copyable_v<DeviceId>);

void StageTable::append(NodeId source, NodeId destination, DeviceId trigger,
                        std::uint8_t bits, std::span<const DeviceId> path) {
  SLDM_EXPECTS(device_.size() + path.size() <= UINT32_MAX);
  source_.push_back(source);
  destination_.push_back(destination);
  trigger_.push_back(trigger);
  bits_.push_back(bits);
  device_.insert(device_.end(), path.begin(), path.end());
  offset_.push_back(static_cast<std::uint32_t>(device_.size()));
}

void StageTable::append(const TimingStage& ts) {
  append(ts.source, ts.destination, ts.trigger,
         pack_bits(ts.output_dir, ts.trigger_gate_dir, ts.trigger_is_release,
                   ts.source_triggered),
         ts.path);
}

void StageTable::append_rows(const StageTable& from, std::size_t begin,
                             std::size_t end) {
  SLDM_EXPECTS(&from != this);
  SLDM_EXPECTS(begin <= end && end <= from.size());
  if (begin == end) return;
  const auto b = static_cast<std::ptrdiff_t>(begin);
  const auto e = static_cast<std::ptrdiff_t>(end);
  source_.insert(source_.end(), from.source_.begin() + b,
                 from.source_.begin() + e);
  destination_.insert(destination_.end(), from.destination_.begin() + b,
                      from.destination_.begin() + e);
  trigger_.insert(trigger_.end(), from.trigger_.begin() + b,
                  from.trigger_.begin() + e);
  bits_.insert(bits_.end(), from.bits_.begin() + b, from.bits_.begin() + e);

  const std::uint32_t first = from.offset_[begin];
  const std::uint32_t last = from.offset_[end];
  const std::uint32_t base = static_cast<std::uint32_t>(device_.size());
  SLDM_EXPECTS(std::size_t{base} + (last - first) <= UINT32_MAX);
  device_.insert(device_.end(), from.device_.begin() + first,
                 from.device_.begin() + last);
  for (std::size_t s = begin + 1; s <= end; ++s) {
    offset_.push_back(from.offset_[s] - first + base);
  }
}

void StageTable::clear() {
  source_.clear();
  destination_.clear();
  trigger_.clear();
  bits_.clear();
  offset_.assign(1, 0);
  device_.clear();
}

void StageTable::reserve(std::size_t stages, std::size_t path_devices) {
  source_.reserve(stages);
  destination_.reserve(stages);
  trigger_.reserve(stages);
  bits_.reserve(stages);
  offset_.reserve(stages + 1);
  device_.reserve(path_devices);
}

StageTable StageTable::from_arrays(RawArrays arrays) {
  const std::size_t n = arrays.source.size();
  SLDM_EXPECTS(arrays.destination.size() == n && arrays.trigger.size() == n &&
               arrays.bits.size() == n && arrays.offset.size() == n + 1);
  SLDM_EXPECTS(arrays.offset.front() == 0 &&
               arrays.offset.back() == arrays.device.size());
  StageTable table;
  table.source_ = std::move(arrays.source);
  table.destination_ = std::move(arrays.destination);
  table.trigger_ = std::move(arrays.trigger);
  table.bits_ = std::move(arrays.bits);
  table.offset_ = std::move(arrays.offset);
  table.device_ = std::move(arrays.device);
  return table;
}

StageTable stitch_stages(std::span<const StageTable* const> tables,
                         std::span<const StageWindow> windows) {
  std::size_t stages = 0;
  std::size_t devices = 0;
  for (const StageWindow& w : windows) {
    if (w.begin == w.end) continue;  // `table` may name no table at all
    stages += w.end - w.begin;
    devices += tables[w.table]->path_device_count(w.begin, w.end);
  }
  StageTable out;
  out.reserve(stages, devices);
  // Consecutive windows that continue each other in one table (a
  // component's nodes in id order) are copied as one run.
  StageWindow run{};
  for (const StageWindow& w : windows) {
    if (w.begin == w.end) continue;
    if (w.table == run.table && w.begin == run.end) {
      run.end = w.end;
      continue;
    }
    if (run.begin != run.end) {
      out.append_rows(*tables[run.table], run.begin, run.end);
    }
    run = w;
  }
  if (run.begin != run.end) {
    out.append_rows(*tables[run.table], run.begin, run.end);
  }
  SLDM_ENSURES(out.size() == stages);
  return out;
}

void TriggerIndex::build(const StageTable& table, const Netlist& nl,
                         std::size_t key_count) {
  SLDM_EXPECTS(table.size() <= UINT32_MAX);
  const std::size_t n = table.size();
  std::vector<std::uint32_t> keys(n);
  offsets_.assign(key_count + 1, 0);
  for (std::size_t s = 0; s < n; ++s) {
    const std::size_t k = fire_key(table[s], nl);
    SLDM_EXPECTS(k < key_count);
    keys[s] = static_cast<std::uint32_t>(k);
    ++offsets_[k + 1];
  }
  for (std::size_t k = 0; k < key_count; ++k) {
    offsets_[k + 1] += offsets_[k];
  }
  // Fill in ascending stage order; `cursor` walks each key's slots.
  stages_.resize(n);
  std::vector<std::uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (std::size_t s = 0; s < n; ++s) {
    stages_[cursor[keys[s]]++] = static_cast<std::uint32_t>(s);
  }
}

}  // namespace sldm

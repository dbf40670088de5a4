#include "timing/stage_table.h"

#include <algorithm>
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
  SLDM_EXPECTS(table.size() <= UINT32_MAX && key_count <= UINT32_MAX);
  const std::size_t n = table.size();
  fire_.resize(n);
  offsets_.assign(key_count + 1, 0);
  for (std::size_t s = 0; s < n; ++s) {
    const std::uint32_t k = table.fire_key(s, nl);
    SLDM_EXPECTS(k < key_count);
    fire_[s] = k;
    ++offsets_[k + 1];
  }
  for (std::size_t k = 0; k < key_count; ++k) {
    offsets_[k + 1] += offsets_[k];
  }
  // Fill in ascending stage order; `cursor` walks each key's slots.
  stages_.resize(n);
  std::vector<std::uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (std::size_t s = 0; s < n; ++s) {
    stages_[cursor[fire_[s]]++] = static_cast<std::uint32_t>(s);
  }
}

void LevelSchedule::build(const StageTable& table,
                          const TriggerIndex& by_trigger) {
  const std::size_t nkeys = by_trigger.key_count();
  const std::size_t n = table.size();
  // The stages into each key are one run of rows (canonical order).
  rows_.assign(nkeys + 1, 0);
  std::uint32_t prev = 0;
  for (std::size_t s = 0; s < n; ++s) {
    const std::uint32_t d = table.destination_key(s);
    SLDM_EXPECTS(d < nkeys && d >= prev);
    ++rows_[d + 1];
    prev = d;
  }
  for (std::size_t k = 0; k < nkeys; ++k) rows_[k + 1] += rows_[k];

  // A key's level is one more than the highest level that fires into
  // it.  Designs usually number a node after the nodes that drive it,
  // so one ascending sweep that reads each key's fire keys in row order
  // levels them all; any key whose fire key is not levelled yet sends
  // the whole design through Kahn's algorithm instead.
  cycles_.clear();
  cycle_keys_.clear();
  cycle_of_.clear();
  if (!level_in_key_order(by_trigger)) level_by_kahn(table, by_trigger);

  // Counting sort of the scheduled acyclic keys by level, ascending
  // within a level.
  std::uint32_t top = 0;
  for (std::size_t k = 0; k < nkeys; ++k) top = std::max(top, level_[k]);
  for (const Cycle& c : cycles_) top = std::max(top, c.level);
  level_begin_.assign(std::size_t{top} + 1, 0);
  for (std::size_t k = 0; k < nkeys; ++k) {
    if (level_[k] != 0 && cycle_of(k) == kNoCycle) ++level_begin_[level_[k]];
  }
  for (std::size_t l = 1; l <= top; ++l) {
    level_begin_[l] += level_begin_[l - 1];
  }
  keys_.resize(level_begin_[top]);
  std::vector<std::uint32_t> cursor(level_begin_.begin(),
                                    level_begin_.end() - 1);
  for (std::size_t k = 0; k < nkeys; ++k) {
    if (level_[k] != 0 && cycle_of(k) == kNoCycle) {
      keys_[cursor[level_[k] - 1]++] = static_cast<std::uint32_t>(k);
    }
  }
}

bool LevelSchedule::level_in_key_order(const TriggerIndex& by_trigger) {
  constexpr std::uint32_t kPending = UINT32_MAX;
  const std::size_t nkeys = rows_.size() - 1;
  level_.resize(nkeys);
  for (std::size_t k = 0; k < nkeys; ++k) {
    level_[k] = rows_[k] == rows_[k + 1] ? 0 : kPending;
  }
  for (std::size_t d = 0; d < nkeys; ++d) {
    std::uint32_t lvl = 0;
    for (std::uint32_t s = rows_[d]; s < rows_[d + 1]; ++s) {
      const std::uint32_t f = level_[by_trigger.fire_key(s)];
      if (f == kPending) return false;
      lvl = std::max(lvl, f + 1);
    }
    if (lvl != 0) level_[d] = lvl;
  }
  return true;
}

void LevelSchedule::level_by_kahn(const StageTable& table,
                                  const TriggerIndex& by_trigger) {
  // A key is ordered once every stage into it has been.
  const std::size_t nkeys = rows_.size() - 1;
  level_.assign(nkeys, 0);
  std::vector<std::uint32_t> rem(nkeys);
  std::vector<std::uint32_t> order;
  order.reserve(nkeys);
  for (std::size_t k = 0; k < nkeys; ++k) {
    rem[k] = rows_[k + 1] - rows_[k];
    if (rem[k] == 0) order.push_back(static_cast<std::uint32_t>(k));
  }
  for (std::size_t i = 0; i < order.size(); ++i) {
    const std::uint32_t k = order[i];
    const std::uint32_t next = level_[k] + 1;
    for (const std::uint32_t s : by_trigger[k]) {
      const std::uint32_t d = table.destination_key(s);
      level_[d] = std::max(level_[d], next);
      if (--rem[d] == 0) order.push_back(d);
    }
  }
  if (order.size() < nkeys) order_cycles(table, by_trigger, rem);
}

void LevelSchedule::order_cycles(const StageTable& table,
                                 const TriggerIndex& by_trigger,
                                 const std::vector<std::uint32_t>& rem) {
  // Tarjan's strongly connected components over the keys Kahn left:
  // each lies on a cycle or downstream of one.  Iterative, so a long
  // chain cannot exhaust the call stack.
  constexpr std::uint32_t kUnvisited = UINT32_MAX;
  const std::size_t nkeys = rem.size();
  std::vector<std::uint32_t> index(nkeys, kUnvisited);
  std::vector<std::uint32_t> low(nkeys, 0);
  std::vector<char> on_stack(nkeys, 0);
  std::vector<std::uint32_t> stack;
  std::vector<std::uint32_t> sccs;        // keys, one component after another
  std::vector<std::uint32_t> scc_begin;   // in completion order
  struct Frame {
    std::uint32_t key;
    std::uint32_t next;  // position in by_trigger[key]
  };
  std::vector<Frame> calls;
  std::uint32_t counter = 0;
  const auto visit = [&](std::uint32_t k) {
    index[k] = low[k] = counter++;
    stack.push_back(k);
    on_stack[k] = 1;
    calls.push_back({k, 0});
  };
  for (std::size_t root = 0; root < nkeys; ++root) {
    if (rem[root] == 0 || index[root] != kUnvisited) continue;
    visit(static_cast<std::uint32_t>(root));
    while (!calls.empty()) {
      const std::uint32_t k = calls.back().key;
      const std::span<const std::uint32_t> out = by_trigger[k];
      if (calls.back().next < out.size()) {
        const std::uint32_t d =
            table.destination_key(out[calls.back().next++]);
        if (rem[d] == 0) continue;  // ordered by Kahn: not on a cycle
        if (index[d] == kUnvisited) {
          visit(d);
        } else if (on_stack[d]) {
          low[k] = std::min(low[k], index[d]);
        }
        continue;
      }
      calls.pop_back();
      if (!calls.empty()) {
        const std::uint32_t parent = calls.back().key;
        low[parent] = std::min(low[parent], low[k]);
      }
      if (low[k] != index[k]) continue;
      scc_begin.push_back(static_cast<std::uint32_t>(sccs.size()));
      std::uint32_t m;
      do {
        m = stack.back();
        stack.pop_back();
        on_stack[m] = 0;
        sccs.push_back(m);
      } while (m != k);
    }
  }
  scc_begin.push_back(static_cast<std::uint32_t>(sccs.size()));

  // Tarjan completes components sinks first; level them sources first.
  // Every key driving a component from outside is ordered by then.
  cycle_of_.assign(nkeys, kNoCycle);
  std::vector<char> inside(nkeys, 0);
  for (std::size_t c = scc_begin.size() - 1; c-- > 0;) {
    const auto first = sccs.begin() + scc_begin[c];
    const auto last = sccs.begin() + scc_begin[c + 1];
    std::sort(first, last);
    for (auto it = first; it != last; ++it) inside[*it] = 1;
    std::uint32_t lvl = 1;
    bool cyclic = last - first > 1;
    for (auto it = first; it != last; ++it) {
      for (std::uint32_t s = rows_[*it]; s < rows_[*it + 1]; ++s) {
        const std::uint32_t f = by_trigger.fire_key(s);
        if (inside[f]) {
          cyclic = true;  // an inner edge (a self loop, for one key)
        } else {
          lvl = std::max(lvl, level_[f] + 1);
        }
      }
    }
    for (auto it = first; it != last; ++it) {
      inside[*it] = 0;
      level_[*it] = lvl;
    }
    if (!cyclic) continue;
    const auto id = static_cast<std::uint32_t>(cycles_.size());
    const auto begin = static_cast<std::uint32_t>(cycle_keys_.size());
    for (auto it = first; it != last; ++it) {
      cycle_keys_.push_back(*it);
      cycle_of_[*it] = id;
    }
    cycles_.push_back(
        {lvl, begin, static_cast<std::uint32_t>(cycle_keys_.size())});
  }
  std::stable_sort(cycles_.begin(), cycles_.end(),
                   [](const Cycle& a, const Cycle& b) {
                     return a.level < b.level;
                   });
  // Re-point cycle_of_ after the sort.
  for (std::size_t c = 0; c < cycles_.size(); ++c) {
    for (const std::uint32_t k : cycle_keys(cycles_[c])) {
      cycle_of_[k] = static_cast<std::uint32_t>(c);
    }
  }
}

}  // namespace sldm

#include "inputs.h"

#include <algorithm>
#include <set>

#include "common.h"
#include "timing/ccc.h"
#include "util/json.h"

namespace perfbench {

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  Rng rng(seed * 0x2545f4914f6cdd1dull + tag);
  return rng.next();
}

sldm::GeneratedCircuit make_logic(int layers, int width, std::uint64_t seed) {
  return sldm::random_logic(sldm::Style::kCmos, layers, width, seed);
}

std::vector<std::string> output_names(const sldm::Netlist& nl) {
  std::vector<std::string> names;
  for (sldm::NodeId n : nl.all_nodes()) {
    if (nl.node(n).is_output) names.push_back(nl.node(n).name.str());
  }
  return names;
}

const char* kind_name(RequestSpec::Kind kind) {
  switch (kind) {
    case RequestSpec::Kind::kTime:
      return "time";
    case RequestSpec::Kind::kExplain:
      return "explain";
    case RequestSpec::Kind::kStats:
      return "stats";
  }
  return "?";
}

std::vector<RequestSpec> reader_stream(
    std::uint64_t seed, int client, int count,
    const std::vector<std::vector<std::string>>& outputs_per_design,
    double explain_share) {
  static const char* const kModels[] = {"slope", "rc-tree", "lumped"};
  Rng rng(derive_seed(seed, 100 + static_cast<std::uint64_t>(client)));
  std::vector<RequestSpec> stream;
  stream.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    RequestSpec r;
    r.design = static_cast<int>(rng.below(outputs_per_design.size()));
    r.model = kModels[rng.below(3)];
    if (rng.unit() < explain_share) {
      r.kind = RequestSpec::Kind::kExplain;
      const auto& outs = outputs_per_design[static_cast<std::size_t>(r.design)];
      r.node = outs[rng.below(outs.size())];
    }
    stream.push_back(std::move(r));
  }
  return stream;
}

std::string request_line(const RequestSpec& spec, std::uint64_t id,
                         const std::vector<std::string>& fingerprints) {
  if (spec.kind == RequestSpec::Kind::kStats) {
    return fmt("{\"id\":%llu,\"kind\":\"stats\"}",
               static_cast<unsigned long long>(id));
  }
  std::string line = fmt(
      "{\"id\":%llu,\"kind\":\"%s\",\"design\":\"%s\",\"model\":\"%s\"",
      static_cast<unsigned long long>(id), kind_name(spec.kind),
      fingerprints[static_cast<std::size_t>(spec.design)].c_str(),
      spec.model.c_str());
  if (spec.kind == RequestSpec::Kind::kExplain) {
    line += ",\"node\":\"" + sldm::json_escape(spec.node) + "\"";
  }
  return line + "}";
}

std::vector<std::string> eco_stream(const sldm::Netlist& nl,
                                    std::uint64_t seed, int count) {
  // Candidate targets: switching nodes (not rails or inputs) with a
  // channel, visited in a seeded order and kept only when their
  // component has not been edited yet.
  const sldm::CccPartition ccc(nl);
  std::vector<sldm::NodeId> candidates;
  for (sldm::NodeId n : nl.all_nodes()) {
    const sldm::Node& node = nl.node(n);
    if (nl.is_rail(n) || node.is_input || nl.channels_at(n).empty()) continue;
    if (ccc.component_of(n) == sldm::CccPartition::kNone) continue;
    candidates.push_back(n);
  }
  Rng rng(derive_seed(seed, 7));
  for (std::size_t i = candidates.size(); i > 1; --i) {
    std::swap(candidates[i - 1], candidates[rng.below(i)]);
  }
  std::set<std::size_t> used;
  std::vector<std::string> scripts;
  for (sldm::NodeId n : candidates) {
    if (static_cast<int>(scripts.size()) == count) break;
    if (!used.insert(ccc.component_of(n)).second) continue;
    const std::string name = nl.node(n).name.str();
    if (rng.below(2) == 0) {
      scripts.push_back(fmt("addcap %s %.3f\n", name.c_str(),
                            1.0 + 9.0 * rng.unit()));
    } else {
      const auto& channels = nl.channels_at(n);
      const sldm::Transistor& t =
          nl.device(channels[rng.below(channels.size())]);
      scripts.push_back(fmt("width %s %s %s %.4f\n",
                            nl.node(t.gate).name.str().c_str(),
                            nl.node(t.source).name.str().c_str(),
                            nl.node(t.drain).name.str().c_str(),
                            t.width * 1e6 * (1.1 + 0.4 * rng.unit())));
    }
  }
  return scripts;
}

std::string eco_line(const std::string& script, std::uint64_t id,
                     const std::string& fingerprint) {
  return fmt("{\"id\":%llu,\"kind\":\"eco\",\"design\":\"%s\","
             "\"model\":\"rc-tree\",\"script\":\"",
             static_cast<unsigned long long>(id), fingerprint.c_str()) +
         sldm::json_escape(script) + "\"}";
}

std::string load_line(const std::string& path) {
  return "{\"kind\":\"load\",\"path\":\"" + sldm::json_escape(path) +
         "\",\"model\":\"slope\"}";
}

}  // namespace perfbench

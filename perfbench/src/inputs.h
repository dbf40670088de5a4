// Seeded inputs.  Everything a workload feeds the engine -- the .sim
// designs, the per-client serve request streams, and the ECO edit
// stream -- is derived from the workload seed here.  The engine only
// ever sees the files and request lines these produce.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gen/generators.h"

namespace perfbench {

/// splitmix64: small, fast, and identical on every platform (the
/// standard library's distributions are not).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n).  Precondition: n > 0.
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Mixes a workload seed with a stream tag so every client and design
/// draws from its own independent sequence.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag);

/// A CMOS random-logic design (`layers` x `width` gates).
sldm::GeneratedCircuit make_logic(int layers, int width, std::uint64_t seed);

/// Names of the output-marked nodes, in node-id order.
std::vector<std::string> output_names(const sldm::Netlist& nl);

/// One reader request before it is bound to a design fingerprint.
struct RequestSpec {
  enum class Kind { kTime, kExplain, kStats };
  Kind kind = Kind::kTime;
  std::string model;  ///< "slope", "rc-tree" or "lumped"
  int design = 0;     ///< index into the workload's design list
  std::string node;   ///< explain target (an output node)
};

const char* kind_name(RequestSpec::Kind kind);

/// The request stream of one reader client: `count` requests over the
/// designs whose output nodes are listed, `explain_share` of them
/// `explain` (the rest `time`), models uniform over the three paper
/// models.  (`stats` scrapes are not part of a stream: serve.cpp sends
/// them while every reader is paused.)
std::vector<RequestSpec> reader_stream(
    std::uint64_t seed, int client, int count,
    const std::vector<std::vector<std::string>>& outputs_per_design,
    double explain_share);

/// The serve protocol line for a request (FORMATS.md section 14).
std::string request_line(const RequestSpec& spec, std::uint64_t id,
                         const std::vector<std::string>& fingerprints);

/// `count` single-edit ECO scripts (FORMATS.md section 5) for `nl`:
/// `addcap` and `width` edits, each on a node of a different
/// channel-connected component.
std::vector<std::string> eco_stream(const sldm::Netlist& nl,
                                    std::uint64_t seed, int count);

/// The serve `eco` line applying `script` to the design `fingerprint`,
/// re-timed with the rc-tree model (see serve.cpp).
std::string eco_line(const std::string& script, std::uint64_t id,
                     const std::string& fingerprint);

/// The serve `load` line for a file.
std::string load_line(const std::string& path);

}  // namespace perfbench

// The immutable compiled-design artifact: everything about a circuit
// that is independent of input slopes, delay-model choice, and query
// state, baked once and shared by any number of analysis sessions.
//
// Ousterhout's flow has a natural one-time structural phase -- netlist
// -> channel-connected components -> per-CCC stage extraction -- whose
// output the cheap per-query delay evaluation then consumes thousands
// of times.  CompiledDesign is that phase reified as a value:
//
//   * the netlist (interned node-name table included) and technology,
//     either owned (compile(), snapshot load) or borrowed (the
//     TimingAnalyzer facade over caller-owned references);
//   * the CccPartition and the extracted stages, one flat StageTable in
//     canonical global order (timing/stage_table.h);
//   * the StageStore with every slope-independent electrical cache
//     (delay/stage_store.h), so loaded designs evaluate bit-identically
//     to freshly extracted ones;
//   * the CSR trigger index (stages grouped by firing (node,
//     direction)) and per-CCC stage counts;
//   * a technology fingerprint for snapshot compatibility checks.
//
// A CompiledDesign is shared as shared_ptr<const CompiledDesign>:
// Sessions (design/session.h) borrow it concurrently and never write
// it.  The single sanctioned mutation path is TimingAnalyzer::update()
// (ECO re-bake or re-extraction), which requires exclusive ownership
// -- see the friendship note below.  Snapshots (.sldc,
// design/snapshot.h) persist exactly the state held here.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "delay/stage_store.h"
#include "tech/tech.h"
#include "timing/ccc.h"
#include "timing/stage_extract.h"

namespace sldm {

class TimingAnalyzer;
struct SnapshotAccess;

/// Compilation parameters (the structural half of AnalyzerOptions).
struct CompileOptions {
  ExtractOptions extract;
  /// Worker threads for component-parallel stage extraction.  Purely a
  /// build-time knob: the artifact is bit-identical for any value.
  int threads = 1;
};

/// FNV-1a hash over the technology's name and every electrical
/// parameter (exact double bit patterns).  Two techs fingerprint equal
/// iff analysis over them is bit-identical, so snapshots carry this to
/// reject loads against a different process.
std::uint64_t tech_fingerprint(const Tech& tech);

/// FNV-1a hash over the whole analysis input: tech_fingerprint(tech)
/// plus every node (name, capacitance, role flags, pinned value) and
/// every device (type, terminals, dimensions, flow) in id order.  Two
/// (netlist, tech) pairs fingerprint equal iff analysis over them is
/// bit-identical, so ledger records and bench results keyed by this
/// value stay comparable across processes and versions.
std::uint64_t design_fingerprint(const Netlist& nl, const Tech& tech);

/// Throws Error, naming the device type and the technology and pointing
/// at --tech, when `tech` cannot price devices of type `type`
/// (Tech::prices).  CompiledDesign checks every type its netlist uses
/// at build; TimingAnalyzer::update() checks each device an ECO adds.
void require_priced(const Tech& tech, TransistorType type);

class CompiledDesign {
 public:
  /// Compiles an owned copy of the netlist and technology.  The
  /// returned design is self-contained: it outlives every caller-side
  /// object and is safe to share across threads.
  static std::shared_ptr<const CompiledDesign> compile(
      Netlist nl, Tech tech, const CompileOptions& options = {});

  /// compile() keeping the mutable handle: for owners (the serve-layer
  /// design cache) that hold a self-contained design yet must run
  /// single-writer ECO updates through TimingAnalyzer.  Readers still
  /// receive it as shared_ptr<const CompiledDesign>.
  static std::shared_ptr<CompiledDesign> compile_owned(
      Netlist nl, Tech tech, const CompileOptions& options = {});

  /// Compiles over borrowed references (the TimingAnalyzer facade
  /// path).  `nl` and `tech` must outlive the design.  Returned
  /// non-const so the single owner may run ECO updates through
  /// TimingAnalyzer; share it onward as shared_ptr<const ...>.
  static std::shared_ptr<CompiledDesign> build_over(
      const Netlist& nl, const Tech& tech, const CompileOptions& options = {});

  CompiledDesign(const CompiledDesign&) = delete;
  CompiledDesign& operator=(const CompiledDesign&) = delete;

  const Netlist& netlist() const { return *nl_; }
  const Tech& tech() const { return *tech_; }
  /// True when the design owns its netlist/tech storage (compile() and
  /// snapshot loads; false for build_over()).
  bool owns_netlist() const { return owned_nl_ != nullptr; }

  /// The channel-connected component partition extraction ran over.
  const CccPartition& components() const { return *ccc_; }
  /// All extracted stages in canonical global order (ascending
  /// destination node id, rise before fall).
  const StageTable& stages() const { return stages_; }
  /// Electrical SoA mirror of stages() (same index space).
  const StageStore& stage_store() const { return store_; }
  /// Stage indices grouped by firing event, indexed by
  /// arrival_key(node, dir).
  const TriggerIndex& stages_by_trigger() const { return stages_by_trigger_; }
  /// Stage count per CCC (indexed by component id).
  const std::vector<std::size_t>& stages_per_ccc() const { return per_ccc_; }

  /// The extraction options the stages were produced under (an ECO
  /// update re-extracts with the same options).
  const ExtractOptions& extract_options() const { return extract_; }
  /// Fingerprint of tech() -- see tech_fingerprint().
  std::uint64_t fingerprint() const { return fingerprint_; }
  /// Netlist revision the structure reflects; a session is in sync iff
  /// netlist().revision() == built_revision().
  std::uint64_t built_revision() const { return built_revision_; }
  /// Wall clock of the structural build (stage extraction + store
  /// bake); 0 for snapshot loads, which skip it entirely.
  Seconds extract_seconds() const { return extract_seconds_; }
  /// Worker threads the build fanned extraction over.
  int build_threads() const { return build_threads_; }

 private:
  CompiledDesign() = default;

  /// Runs partition + extraction + store bake over nl_/tech_.
  void build(int threads);
  /// Rebuilds stages_by_trigger_ from stages_ (span "trigger-index").
  void index_stages_by_trigger();
  /// Rebuilds store_ from stages_ (span "build-store"): R once per
  /// device and direction, C once per node, then a per-element gather
  /// (walk_stage) into StageStore's cache kernel.  Bit-identical to
  /// make_stage + StageStore::add per stage, which stays the reference
  /// definition.  The snapshot loader restores the store verbatim
  /// instead.
  void rebuild_store();
  /// The in-place form for edits that keep every path (ECO device
  /// sizes and node capacitances): re-bakes the store rows of the
  /// stages whose destination lies in one of `cccs`, deriving R and C
  /// only for their paths, through the same walk and cache kernel as
  /// rebuild_store().  Stage ids, the table and the trigger index stay
  /// as they are.  Returns the number of stages re-baked.
  std::size_t rebake_components(std::span<const std::size_t> cccs);
  /// Recomputes per_ccc_ from stages_ and ccc_.
  void recount_stages_per_ccc();

  /// ECO single-writer: TimingAnalyzer::update() mutates stages_,
  /// ccc_, store_, and the indexes in place, and is required to verify
  /// exclusive ownership (no outstanding share_design() copies) first.
  friend class TimingAnalyzer;
  /// Snapshot reader/writer (design/snapshot.cpp).
  friend struct SnapshotAccess;

  /// Maybe-owned storage: compile()/load own, build_over() borrows.
  std::unique_ptr<Netlist> owned_nl_;
  std::unique_ptr<Tech> owned_tech_;
  const Netlist* nl_ = nullptr;
  const Tech* tech_ = nullptr;

  ExtractOptions extract_;
  std::optional<CccPartition> ccc_;
  StageTable stages_;
  StageStore store_;
  TriggerIndex stages_by_trigger_;
  std::vector<std::size_t> per_ccc_;

  std::uint64_t fingerprint_ = 0;
  std::uint64_t built_revision_ = 0;
  Seconds extract_seconds_ = 0.0;
  int build_threads_ = 1;
};

}  // namespace sldm

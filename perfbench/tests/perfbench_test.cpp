// Unit tests of the benchmark's own logic: the percentile rule,
// failure counting, span self time, request-stream determinism, and
// host-speed scaling.
// Run with `python3 perfbench/run.py --self-test`.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <set>
#include <sstream>

#include "common.h"
#include "inputs.h"
#include "netlist/eco_io.h"
#include "timing/ccc.h"
#include "util/trace.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                    \
  do {                                                                 \
    if (!(cond)) {                                                     \
      ++failures;                                                      \
      std::cerr << __FILE__ << ":" << __LINE__ << ": CHECK(" #cond ")\n"; \
    }                                                                  \
  } while (0)

using namespace perfbench;

void percentile_rule() {
  // The highest level with at least ten samples beyond its rank.
  CHECK(!highest_supported_level(0));
  CHECK(!highest_supported_level(19));
  CHECK(highest_supported_level(20) == 0.5);
  CHECK(highest_supported_level(99) == 0.5);
  CHECK(highest_supported_level(100) == 0.9);
  CHECK(highest_supported_level(999) == 0.9);
  CHECK(highest_supported_level(1000) == 0.99);
  CHECK(highest_supported_level(10000) == 0.999);

  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  CHECK(s.median() == 50);
  CHECK(s.quantile(0.9) == 90);
  CHECK(s.quantile(0.99) == 99);
  CHECK(s.quantile(1.0) == 100);
}

void failure_counting() {
  Counts a;
  a.ok();
  a.ok();
  a.fail("unknown-design");
  Counts b;
  b.fail("unknown-design");
  b.fail("exit-1");
  a.merge(b);
  CHECK(a.attempted == 5);
  CHECK(a.failed == 3);
  CHECK(a.failures["unknown-design"] == 2);
  CHECK(a.failures["exit-1"] == 1);

  // A failed operation stays in the samples as +inf: it lands in the
  // tail instead of being dropped.
  Samples s;
  for (int i = 1; i <= 99; ++i) s.add(i);
  s.add_failure();
  CHECK(s.size() == 100);
  CHECK(s.median() == 50);
  CHECK(std::isinf(s.quantile(1.0)));
  CHECK(json_double(s.quantile(1.0)) == "1e+308");
}

void self_time() {
  // Duration minus the union of the children's intervals, clipped to the
  // parent; spans without an id (the engine's own) are left out.
  const std::string doc = R"({"traceEvents":[
{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"main"}},
{"name":"op","cat":"serve","ph":"X","pid":1,"tid":0,"ts":0,"dur":10000000,"args":{"id":1,"parent":-1,"request":0}},
{"name":"child","cat":"design","ph":"X","pid":1,"tid":0,"ts":1000000,"dur":3000000,"args":{"id":2,"parent":1,"request":0}},
{"name":"child","cat":"design","ph":"X","pid":1,"tid":0,"ts":3000000,"dur":2000000,"args":{"id":3,"parent":1,"request":0}},
{"name":"child","cat":"design","ph":"X","pid":1,"tid":0,"ts":9000000,"dur":3000000,"args":{"id":4,"parent":1,"request":0}},
{"name":"propagate","cat":"timing","ph":"X","pid":1,"tid":0,"ts":0,"dur":5000000}
]})";
  const auto self = self_seconds(doc);
  CHECK(self.at("op").size() == 1 && std::abs(self.at("op")[0] - 5.0) < 1e-9);
  CHECK(self.at("child").size() == 3);
  CHECK(self.count("propagate") == 0);

  // Spans go through the engine's tracer, which is on only while an
  // enabled Tracer lives.
  {
    Tracer t(true);
    Span outer(t, "serve.time");
    timed(t, "design.propagate", outer.id(), 7, [] {});
    outer.end();
    const auto s = self_seconds(sldm::Tracer::instance().to_json());
    CHECK(s.count("serve.time") == 1 && s.count("design.propagate") == 1);
  }
  CHECK(!sldm::Tracer::instance().enabled());
  sldm::Tracer::instance().clear();
  Tracer off(false);
  CHECK(timed(off, "serve.time", -1, 0, [] {}) >= 0.0);
  CHECK(sldm::Tracer::instance().event_count() == 0);
}

void stream_determinism() {
  const std::vector<std::vector<std::string>> outputs = {{"a", "b"}, {"c"}};
  auto same = [](const std::vector<RequestSpec>& x,
                 const std::vector<RequestSpec>& y) {
    if (x.size() != y.size()) return false;
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (x[i].kind != y[i].kind || x[i].model != y[i].model ||
          x[i].design != y[i].design || x[i].node != y[i].node) {
        return false;
      }
    }
    return true;
  };
  const auto s1 = reader_stream(42, 0, 500, outputs, 0.4);
  CHECK(same(s1, reader_stream(42, 0, 500, outputs, 0.4)));
  CHECK(!same(s1, reader_stream(43, 0, 500, outputs, 0.4)));
  CHECK(!same(s1, reader_stream(42, 1, 500, outputs, 0.4)));
  CHECK(s1.size() == 500);
  std::size_t explain = 0;
  for (const RequestSpec& r : s1) {
    CHECK(r.kind != RequestSpec::Kind::kStats);
    if (r.kind == RequestSpec::Kind::kExplain) {
      ++explain;
      const auto& outs = outputs[static_cast<std::size_t>(r.design)];
      CHECK(std::find(outs.begin(), outs.end(), r.node) != outs.end());
    }
  }
  CHECK(explain > 100 && explain < 300);

  // The ECO stream: deterministic, one edit per component, and every
  // script applies cleanly in order.
  const sldm::GeneratedCircuit g = make_logic(6, 12, 5);
  const auto e1 = eco_stream(g.netlist, 9, 20);
  CHECK(e1 == eco_stream(g.netlist, 9, 20));
  CHECK(e1 != eco_stream(g.netlist, 10, 20));
  CHECK(e1.size() == 20);
  sldm::Netlist nl = g.netlist;
  const sldm::CccPartition ccc(nl);
  std::set<std::size_t> components;
  for (const std::string& script : e1) {
    std::istringstream word(script);
    std::string verb, name;
    word >> verb >> name;
    if (verb == "addcap") components.insert(ccc.component_of(*nl.find_node(name)));
    std::istringstream in(script);
    CHECK(sldm::apply_eco(in, nl, "<test>") == 1);
  }
  CHECK(components.size() ==
        static_cast<std::size_t>(std::count_if(e1.begin(), e1.end(), [](const std::string& s) {
          return s.rfind("addcap", 0) == 0;
        })));
}

void host_probe() {
  // Scaling takes a run's timings to the reference speed: a host that
  // probes at twice the reference time halves them.
  for (HostProbe::Kind kind : {HostProbe::Kind::kSort, HostProbe::Kind::kFloat}) {
    HostProbe p(kind);
    CHECK(p.sample() > 0.0);
    p.sample();
    CHECK(p.samples() == 2);
    CHECK(p.median_ms() > 0.0);
    CHECK(std::abs(p.scale() * p.median_ms() - p.reference_ms()) < 1e-9);
  }
}

void digest() {
  Digest a, b;
  a.add("x", 0.1);
  b.add("x", 0.1);
  CHECK(a.hex() == b.hex());
  b.add("y", "1");
  CHECK(a.hex() != b.hex());
  CHECK(a.entries().front().second == "0.10000000000000001");
}

}  // namespace

int main() {
  percentile_rule();
  failure_counting();
  self_time();
  stream_determinism();
  host_probe();
  digest();
  if (failures == 0) std::cout << "perfbench_test: all checks passed\n";
  return failures == 0 ? 0 : 1;
}

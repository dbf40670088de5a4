// Tests for the service-grade telemetry layer: MetricsRegistry::merge
// semantics, the Prometheus text-exposition renderer, the TelemetryHub
// (replace-vs-aggregate, retirement into per-kind rollups, thread
// safety, zero perturbation of results),
// the run ledger, and the `sldm stats` / `ledger summarize` /
// `bench diff` CLI surfaces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cli/cli.h"
#include "delay/lumped.h"
#include "delay/rctree.h"
#include "delay/unit.h"
#include "design/compiled_design.h"
#include "netlist/sim_io.h"
#include "tech/tech.h"
#include "timing/analyzer.h"
#include "util/error.h"
#include "util/json.h"
#include "util/ledger.h"
#include "util/metrics.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/telemetry.h"
#include "util/version.h"

namespace sldm {
namespace {

const std::string kSampleSim =
    std::string(SLDM_SOURCE_DIR) + "/testdata/sample_datapath.sim";

/// Leaves the process-wide hub exactly as a fresh process would have
/// it, so tests cannot leak snapshots (or the enabled flag) into each
/// other.
class HubGuard {
 public:
  HubGuard() { reset(); }
  ~HubGuard() { reset(); }

 private:
  static void reset() {
    TelemetryHub::instance().disable();
    TelemetryHub::instance().clear();
  }
};

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "sldm_telemetry_" + name;
  std::remove(path.c_str());
  return path;
}

int run(const std::vector<std::string>& args, std::string* out_text,
        std::string* err_text = nullptr) {
  std::ostringstream out;
  std::ostringstream err;
  const int rc = run_cli(args, out, err);
  if (out_text != nullptr) *out_text = out.str();
  if (err_text != nullptr) *err_text = err.str();
  return rc;
}

// --- Histogram / MetricsRegistry merge -----------------------------------

TEST(HistogramMerge, AddsBucketsTotalAndSum) {
  Histogram a(0.0, 4.0, 2);
  a.add(1.0);
  a.add(3.0);
  Histogram b(0.0, 4.0, 2);
  b.add(1.0);
  b.add(9.0);  // clamped into the top bucket
  a.merge(b);
  EXPECT_EQ(a.count(0), 2u);
  EXPECT_EQ(a.count(1), 2u);
  EXPECT_EQ(a.total(), 4u);
  EXPECT_DOUBLE_EQ(a.sum(), 14.0);
}

TEST(HistogramMerge, LayoutMismatchThrows) {
  Histogram a(0.0, 4.0, 2);
  EXPECT_THROW(a.merge(Histogram(0.0, 4.0, 4)), Error);
  EXPECT_THROW(a.merge(Histogram(0.0, 8.0, 2)), Error);
  EXPECT_THROW(a.merge(Histogram(1.0, 4.0, 2)), Error);
  EXPECT_NO_THROW(a.merge(Histogram(0.0, 4.0, 2)));
}

TEST(RegistryMerge, EmptyOntoEmptyIsEmpty) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.merge(b);
  EXPECT_TRUE(a.empty());
}

TEST(RegistryMerge, EmptyIsIdentityOnBothSides) {
  MetricsRegistry x;
  x.counter("c").add(3);
  x.gauge("g").set(1.5);
  x.histogram("h", 0.0, 2.0, 2).add(1.0);

  MetricsRegistry empty_lhs;
  empty_lhs.merge(x);
  EXPECT_EQ(empty_lhs.find_counter("c")->value(), 3u);
  EXPECT_DOUBLE_EQ(empty_lhs.find_gauge("g")->value(), 1.5);
  EXPECT_EQ(empty_lhs.find_histogram("h")->total(), 1u);

  MetricsRegistry empty_rhs;
  x.merge(empty_rhs);
  EXPECT_EQ(x.find_counter("c")->value(), 3u);
}

TEST(RegistryMerge, PerTypeSemantics) {
  MetricsRegistry a;
  a.counter("c").add(2);
  a.gauge("g").set(1.0);
  a.histogram("h", 0.0, 4.0, 2).add(1.0);
  MetricsRegistry b;
  b.counter("c").add(5);
  b.counter("only_b").add(7);
  b.gauge("g").set(9.0);
  b.histogram("h", 0.0, 4.0, 2).add(3.0);

  a.merge(b);
  EXPECT_EQ(a.find_counter("c")->value(), 7u);        // counters sum
  EXPECT_EQ(a.find_counter("only_b")->value(), 7u);   // absent copied in
  EXPECT_DOUBLE_EQ(a.find_gauge("g")->value(), 9.0);  // last write wins
  EXPECT_EQ(a.find_histogram("h")->count(0), 1u);     // buckets sum
  EXPECT_EQ(a.find_histogram("h")->count(1), 1u);
  EXPECT_EQ(a.find_histogram("h")->total(), 2u);
}

TEST(RegistryMerge, HistogramLayoutMismatchNamesTheMetric) {
  MetricsRegistry a;
  a.histogram("propagate.batch_size", 0.0, 4.0, 2);
  MetricsRegistry b;
  b.histogram("propagate.batch_size", 0.0, 8.0, 2);
  try {
    a.merge(b);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("propagate.batch_size"),
              std::string::npos);
  }
}

TEST(Registry, HistogramReRegistrationMismatchThrows) {
  MetricsRegistry reg;
  reg.histogram("h", 0.0, 4.0, 2).add(1.0);
  // Same layout: same histogram, samples kept.
  EXPECT_EQ(reg.histogram("h", 0.0, 4.0, 2).total(), 1u);
  // Any layout change is an error, not a silent re-interpretation.
  EXPECT_THROW(reg.histogram("h", 0.0, 4.0, 4), Error);
  EXPECT_THROW(reg.histogram("h", 0.0, 8.0, 2), Error);
  try {
    reg.histogram("h", 1.0, 4.0, 2);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("'h'"), std::string::npos);
  }
}

// --- Process metrics snapshot --------------------------------------------

TEST(ProcessMetrics, SnapshotRacesConcurrentBumpsSafely) {
  const std::uint64_t before = snapshot_process_metrics()
                                   .counter("telemetry_test.bumps")
                                   .value();
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([] {
      for (int i = 0; i < 1000; ++i) {
        bump_process_counter("telemetry_test.bumps");
      }
    });
  }
  // Reads racing the bumps above: must be tear-free (tsan-checked in
  // scripts/check.sh) and monotone.
  std::uint64_t last = before;
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t now = snapshot_process_metrics()
                                  .counter("telemetry_test.bumps")
                                  .value();
    EXPECT_GE(now, last);
    last = now;
  }
  for (std::thread& w : workers) w.join();
  const std::uint64_t after = snapshot_process_metrics()
                                  .counter("telemetry_test.bumps")
                                  .value();
  EXPECT_EQ(after - before, 4000u);
}

// --- Prometheus exposition -----------------------------------------------

TEST(Prometheus, EmptyRegistryRendersNothing) {
  EXPECT_EQ(to_prometheus(MetricsRegistry()), "");
}

TEST(Prometheus, SanitizesNames) {
  EXPECT_EQ(prometheus_name("propagate.batch_size"),
            "sldm_propagate_batch_size");
  EXPECT_EQ(prometheus_name("eco.updates"), "sldm_eco_updates");
  EXPECT_EQ(prometheus_name("a-b c/d"), "sldm_a_b_c_d");
  EXPECT_EQ(prometheus_name("keep:colons_and_09"),
            "sldm_keep:colons_and_09");
}

TEST(Prometheus, RendersAllThreeFamilies) {
  MetricsRegistry reg;
  reg.counter("propagate.stage_evaluations").add(7);
  reg.gauge("propagate.seconds").set(0.5);
  Histogram& h = reg.histogram("batch", 0.0, 4.0, 2);
  h.add(1.0);
  h.add(3.0);
  h.add(9.0);  // clamps into the top bucket
  const std::string text = to_prometheus(reg);
  EXPECT_NE(text.find("# TYPE sldm_propagate_stage_evaluations_total "
                      "counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("sldm_propagate_stage_evaluations_total 7\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE sldm_propagate_seconds gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("sldm_propagate_seconds 0.5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE sldm_batch histogram\n"), std::string::npos);
  // Buckets are cumulative; +Inf equals _count.
  EXPECT_NE(text.find("sldm_batch_bucket{le=\"2\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("sldm_batch_bucket{le=\"4\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("sldm_batch_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("sldm_batch_sum 13\n"), std::string::npos);
  EXPECT_NE(text.find("sldm_batch_count 3\n"), std::string::npos);
}

TEST(Prometheus, LabelsComposeWithBucketLabels) {
  MetricsRegistry reg;
  reg.counter("c").add(1);
  reg.histogram("h", 0.0, 2.0, 1).add(1.0);
  const std::string text = to_prometheus(reg, "session=\"s1\"");
  EXPECT_NE(text.find("sldm_c_total{session=\"s1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("sldm_h_bucket{session=\"s1\",le=\"2\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("sldm_h_sum{session=\"s1\"} 1\n"),
            std::string::npos);
}

TEST(Prometheus, NonFiniteGaugesUseExpositionSpellings) {
  MetricsRegistry reg;
  reg.gauge("g").set(std::numeric_limits<double>::quiet_NaN());
  EXPECT_NE(to_prometheus(reg).find("sldm_g NaN\n"), std::string::npos);
  reg.gauge("g").set(std::numeric_limits<double>::infinity());
  EXPECT_NE(to_prometheus(reg).find("sldm_g +Inf\n"), std::string::npos);
  reg.gauge("g").set(-std::numeric_limits<double>::infinity());
  EXPECT_NE(to_prometheus(reg).find("sldm_g -Inf\n"), std::string::npos);
}

TEST(Prometheus, LabelValuesAreEscaped) {
  const TelemetryLabels labels("s\"1\\x\n", "m", 2);
  EXPECT_EQ(prometheus_labels(labels),
            "session=\"s\\\"1\\\\x\\n\",model=\"m\",threads=\"2\"");
}

// --- TelemetryHub --------------------------------------------------------

TEST(TelemetryHub, DisabledPublishIsANoOp) {
  HubGuard guard;
  MetricsRegistry reg;
  reg.counter("c").add(1);
  TelemetryHub::instance().publish({"s1", "m", 1}, reg);
  EXPECT_EQ(TelemetryHub::instance().snapshot_count(), 0u);
}

TEST(TelemetryHub, RepublishReplacesAndAggregateMergesAcrossLabels) {
  HubGuard guard;
  TelemetryHub& hub = TelemetryHub::instance();
  hub.enable();

  MetricsRegistry first;
  first.counter("n").add(5);
  hub.publish({"s1", "m", 1}, first);
  // A session's registry is cumulative: the re-publish carries the new
  // total (9), and must *replace* the stored 5, not add to it.
  MetricsRegistry second;
  second.counter("n").add(9);
  hub.publish({"s1", "m", 1}, second);
  MetricsRegistry other;
  other.counter("n").add(3);
  hub.publish({"s2", "m", 2}, other);

  EXPECT_EQ(hub.snapshot_count(), 2u);
  EXPECT_EQ(hub.aggregate().find_counter("n")->value(), 12u);

  const std::string prom = hub.to_prometheus();
  // One TYPE line for the family, one labeled sample per snapshot.
  EXPECT_EQ(prom.find("# TYPE sldm_n_total counter"),
            prom.rfind("# TYPE sldm_n_total counter"));
  EXPECT_NE(prom.find("sldm_n_total{session=\"s1\",model=\"m\","
                      "threads=\"1\"} 9\n"),
            std::string::npos);
  EXPECT_NE(prom.find("sldm_n_total{session=\"s2\",model=\"m\","
                      "threads=\"2\"} 3\n"),
            std::string::npos);
}

TEST(TelemetryHub, AggregateIsDeterministicAcrossPublishOrder) {
  // Gauges are last-write-wins under merge, so the cross-label merge
  // order must not depend on publish order (snapshot storage is
  // publish-ordered): aggregate() sorts by labels first.
  const auto aggregate_after = [](bool reversed) {
    HubGuard guard;
    TelemetryHub& hub = TelemetryHub::instance();
    hub.enable();
    MetricsRegistry a;
    a.gauge("g").set(1.0);
    a.counter("c").add(1);
    MetricsRegistry b;
    b.gauge("g").set(2.0);
    b.counter("c").add(2);
    if (reversed) {
      hub.publish({"s2", "m", 1}, b);
      hub.publish({"s1", "m", 1}, a);
    } else {
      hub.publish({"s1", "m", 1}, a);
      hub.publish({"s2", "m", 1}, b);
    }
    return hub.aggregate();
  };
  const MetricsRegistry forward = aggregate_after(false);
  const MetricsRegistry backward = aggregate_after(true);
  EXPECT_EQ(forward.to_json(), backward.to_json());
  // Sorted label order puts s2 last, so its gauge value wins.
  EXPECT_DOUBLE_EQ(forward.find_gauge("g")->value(), 2.0);
  EXPECT_EQ(forward.find_counter("c")->value(), 3u);
}

TEST(TelemetryHub, RequestLabelRendersOnlyWhenSet) {
  TelemetryLabels plain;
  plain.session = "s1";
  plain.model = "m";
  plain.threads = 2;
  EXPECT_EQ(prometheus_labels(plain),
            "session=\"s1\",model=\"m\",threads=\"2\"");
  TelemetryLabels tagged = plain;
  tagged.request = "time";
  EXPECT_EQ(prometheus_labels(tagged),
            "session=\"s1\",model=\"m\",threads=\"2\",request=\"time\"");
  EXPECT_FALSE(plain == tagged);
}

TEST(TelemetryHub, ConcurrentPublishersAndReaders) {
  HubGuard guard;
  TelemetryHub& hub = TelemetryHub::instance();
  hub.enable();
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&hub, t] {
      MetricsRegistry reg;
      reg.counter("work.items").add(10);
      reg.histogram("work.sizes", 0.0, 10.0, 5)
          .add(static_cast<double>(t));
      const TelemetryLabels labels{format("s%d", t), "test", 1};
      for (int i = 0; i < 200; ++i) hub.publish(labels, reg);
    });
  }
  // Render while the publishers run (tsan-checked in scripts/check.sh).
  for (int i = 0; i < 100; ++i) {
    (void)hub.to_prometheus();
    (void)hub.aggregate();
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(hub.snapshot_count(), 4u);
  const MetricsRegistry agg = hub.aggregate();
  EXPECT_EQ(agg.find_counter("work.items")->value(), 40u);
  EXPECT_EQ(agg.find_histogram("work.sizes")->total(), 4u);
}

TEST(TelemetryHub, SessionPublishesOnRunAndHubNeverPerturbsArrivals) {
  HubGuard guard;
  const Netlist nl = read_sim_file(kSampleSim);
  const Tech tech = nmos4();
  const LumpedRcModel model;

  using Arrivals =
      std::vector<std::pair<std::optional<double>, std::optional<double>>>;
  const auto run_once = [&](bool enabled) {
    if (enabled) {
      TelemetryHub::instance().enable();
    } else {
      TelemetryHub::instance().disable();
    }
    TimingAnalyzer analyzer(nl, tech, model);
    analyzer.add_all_input_events(1e-9);
    analyzer.run();
    Arrivals arrivals;
    for (NodeId n : nl.all_nodes()) {
      for (Transition dir : {Transition::kRise, Transition::kFall}) {
        const auto a = analyzer.arrival(n, dir);
        arrivals.emplace_back(
            a ? std::optional<double>(a->time) : std::nullopt,
            a ? std::optional<double>(a->slope) : std::nullopt);
      }
    }
    return arrivals;
  };

  const Arrivals off = run_once(false);
  EXPECT_EQ(TelemetryHub::instance().snapshot_count(), 0u);
  const Arrivals on = run_once(true);
  // run() published exactly one labeled snapshot...
  EXPECT_EQ(TelemetryHub::instance().snapshot_count(), 1u);
  const auto snaps = TelemetryHub::instance().snapshots();
  EXPECT_EQ(snaps[0].first.model, model.name());
  EXPECT_EQ(snaps[0].first.threads, 1);
  EXPECT_GT(
      snaps[0].second.find_counter("propagate.stage_evaluations")->value(),
      0u);
  // ...and the instrumented run is bit-identical to the dark one.
  EXPECT_EQ(off, on);
}

// --- Retirement: finished sessions fold into per-kind rollups ------------

std::uint64_t aggregate_counter(const std::string& name) {
  const MetricsRegistry agg = TelemetryHub::instance().aggregate();
  const Counter* c = agg.find_counter(name);
  return c == nullptr ? 0 : c->value();
}

TEST(TelemetryHub, RetireMergesIntoThePerKindRollup) {
  HubGuard guard;
  TelemetryHub& hub = TelemetryHub::instance();
  hub.enable();
  const auto registry = [](std::uint64_t n, double g, double sample) {
    MetricsRegistry reg;
    reg.counter("n").add(n);
    reg.gauge("g").set(g);
    reg.histogram("h", 0.0, 4.0, 2).add(sample);
    return reg;
  };
  const TelemetryLabels s1("s1", "m", 2, "time");
  const TelemetryLabels s2("s2", "m", 2, "time");
  const TelemetryLabels other("s3", "m", 2, "explain");
  hub.publish(s1, registry(5, 1.0, 1.0));
  hub.publish(s2, registry(7, 2.0, 3.0));
  hub.publish(other, registry(11, 3.0, 1.0));
  const MetricsRegistry before = hub.aggregate();

  // The first retiree becomes the rollup; the second merges into it.
  hub.retire(s1);
  EXPECT_EQ(hub.snapshot_count(), 3u);
  hub.retire(s2);
  ASSERT_EQ(hub.snapshot_count(), 2u);
  const auto snaps = hub.snapshots();
  const TelemetryLabels rollup(kRetiredSession, "m", 2, "time");
  const auto it = std::find_if(snaps.begin(), snaps.end(), [&](const auto& s) {
    return s.first == rollup;
  });
  ASSERT_NE(it, snaps.end());
  EXPECT_EQ(it->second.find_counter("n")->value(), 12u);
  EXPECT_EQ(it->second.find_histogram("h")->count(0), 1u);
  EXPECT_EQ(it->second.find_histogram("h")->count(1), 1u);
  // Gauges: last retired wins.
  EXPECT_DOUBLE_EQ(it->second.find_gauge("g")->value(), 2.0);

  // Counter sums and bucket counts across the hub are unchanged.
  const MetricsRegistry after = hub.aggregate();
  EXPECT_EQ(after.find_counter("n")->value(),
            before.find_counter("n")->value());
  EXPECT_EQ(after.find_histogram("h")->count(0),
            before.find_histogram("h")->count(0));
  EXPECT_EQ(after.find_histogram("h")->count(1),
            before.find_histogram("h")->count(1));
  EXPECT_NE(hub.to_prometheus().find(
                "sldm_n_total{session=\"retired\",model=\"m\",threads=\"2\","
                "request=\"time\"} 12\n"),
            std::string::npos);

  // Retiring what is not live (already retired, never published, or
  // cleared) changes nothing.
  hub.retire(s1);
  hub.retire({"s9", "m", 2, "time"});
  EXPECT_EQ(hub.snapshot_count(), 2u);
  EXPECT_EQ(hub.aggregate().find_counter("n")->value(), 23u);
  hub.clear();
  hub.retire(other);
  EXPECT_EQ(hub.snapshot_count(), 0u);
}

TEST(TelemetryHub, RetireWithMismatchedLayoutThrowsAndChangesNothing) {
  HubGuard guard;
  TelemetryHub& hub = TelemetryHub::instance();
  hub.enable();
  MetricsRegistry a;
  a.counter("n").add(1);
  a.histogram("h", 0.0, 4.0, 2).add(1.0);
  MetricsRegistry b;
  b.counter("n").add(2);
  b.histogram("h", 0.0, 8.0, 2).add(1.0);
  hub.publish({"s1", "m", 1}, a);
  hub.retire({"s1", "m", 1});
  hub.publish({"s2", "m", 1}, b);
  EXPECT_THROW(hub.retire({"s2", "m", 1}), Error);
  // The failed merge left the rollup untouched and s2 live.
  const auto snaps = hub.snapshots();
  ASSERT_EQ(snaps.size(), 2u);
  EXPECT_EQ(snaps[0].first.session, kRetiredSession);
  EXPECT_EQ(snaps[0].second.find_counter("n")->value(), 1u);
  EXPECT_EQ(snaps[1].first.session, "s2");
}

TEST(TelemetryHub, ThousandSessionsLeaveOneRollupPerKind) {
  HubGuard guard;
  TelemetryHub::instance().enable();
  const std::shared_ptr<const CompiledDesign> design =
      CompiledDesign::compile(read_sim_file(kSampleSim), nmos4());
  const LumpedRcModel lumped;
  const RcTreeModel rc_tree;
  const UnitDelayModel unit(1e-9);
  const std::vector<const DelayModel*> models = {&lumped, &rc_tree, &unit};
  const std::vector<std::string> requests = {"time", "explain"};

  std::uint64_t expected = 0;
  std::vector<std::unique_ptr<Session>> live;
  for (int i = 0; i < 1000; ++i) {
    auto session = std::make_unique<Session>(
        design, *models[static_cast<std::size_t>(i) % models.size()]);
    session->set_telemetry_request(
        requests[static_cast<std::size_t>(i / 3) % requests.size()]);
    session->add_all_input_events(1e-9);
    session->run();
    expected += session->stage_evaluations();
    // Every 250th session stays alive past the loop.
    if (i % 250 == 0) live.push_back(std::move(session));
  }
  ASSERT_GT(expected, 0u);
  EXPECT_LE(TelemetryHub::instance().snapshot_count(), 6u + live.size());
  EXPECT_EQ(aggregate_counter("propagate.stage_evaluations"), expected);

  live.clear();
  EXPECT_EQ(TelemetryHub::instance().snapshot_count(), 6u);
  EXPECT_EQ(aggregate_counter("propagate.stage_evaluations"), expected);
  for (const auto& [labels, registry] : TelemetryHub::instance().snapshots()) {
    EXPECT_EQ(labels.session, kRetiredSession);
  }
}

TEST(TelemetryHub, MovedSessionsRetireExactlyOnce) {
  HubGuard guard;
  TelemetryHub& hub = TelemetryHub::instance();
  hub.enable();
  const Netlist nl = read_sim_file(kSampleSim);
  const Tech tech = nmos4();
  const LumpedRcModel model;
  std::uint64_t expected = 0;

  // The facade moved into an optional, as fuzz.cpp's analyze() returns it,
  // and a bare session moved the same way.  The moved-from halves die
  // first: they must not retire what the moved-to halves still own.
  std::optional<TimingAnalyzer> analyzer;
  std::optional<Session> session;
  {
    TimingAnalyzer an(nl, tech, model);
    an.add_all_input_events(1e-9);
    an.run();
    expected += an.stage_evaluations();
    analyzer.emplace(std::move(an));
    Session bare(analyzer->session().share_design(), model);
    bare.add_all_input_events(1e-9);
    bare.run();
    expected += bare.stage_evaluations();
    session.emplace(std::move(bare));
  }
  ASSERT_EQ(hub.snapshot_count(), 2u);
  for (const auto& [labels, registry] : hub.snapshots()) {
    EXPECT_NE(labels.session, kRetiredSession);
  }
  // Re-publishing from the moved-to halves still replaces, not adds.
  analyzer->session().publish_telemetry();
  session->publish_telemetry();
  EXPECT_EQ(hub.snapshot_count(), 2u);
  EXPECT_EQ(aggregate_counter("propagate.stage_evaluations"), expected);

  analyzer.reset();
  session.reset();
  ASSERT_EQ(hub.snapshot_count(), 1u);
  EXPECT_EQ(hub.snapshots()[0].first.session, kRetiredSession);
  EXPECT_EQ(aggregate_counter("propagate.stage_evaluations"), expected);
}

TEST(TelemetryHub, RelabeledSessionRetiresItsEarlierSnapshot) {
  HubGuard guard;
  TelemetryHub& hub = TelemetryHub::instance();
  hub.enable();
  const std::shared_ptr<const CompiledDesign> design =
      CompiledDesign::compile(read_sim_file(kSampleSim), nmos4());
  const LumpedRcModel model;
  {
    Session session(design, model);
    session.set_telemetry_request("time");
    session.add_all_input_events(1e-9);
    session.run();
    session.set_telemetry_request("eco");
    session.publish_telemetry();
    // The "time" snapshot retired; only the "eco" one is live.
    const auto snaps = hub.snapshots();
    ASSERT_EQ(snaps.size(), 2u);
    EXPECT_EQ(snaps[0].first, TelemetryLabels(kRetiredSession,
                                              model.name(), 1, "time"));
    EXPECT_EQ(snaps[1].first.request, "eco");
    EXPECT_NE(snaps[1].first.session, kRetiredSession);
  }
  ASSERT_EQ(hub.snapshot_count(), 2u);
  for (const auto& [labels, registry] : hub.snapshots()) {
    EXPECT_EQ(labels.session, kRetiredSession);
  }
}

TEST(TelemetryHub, ConcurrentPublishRetireAndRender) {
  HubGuard guard;
  TelemetryHub::instance().enable();
  const std::shared_ptr<const CompiledDesign> design =
      CompiledDesign::compile(read_sim_file(kSampleSim), nmos4());
  const LumpedRcModel lumped;
  const RcTreeModel rc_tree;
  constexpr int kThreads = 4;
  constexpr int kSessionsPerThread = 50;
  std::vector<std::uint64_t> evaluations(kThreads, 0);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kSessionsPerThread; ++i) {
        const DelayModel& model =
            (i % 2 == 0) ? static_cast<const DelayModel&>(lumped) : rc_tree;
        Session session(design, model);
        session.set_telemetry_request(t % 2 == 0 ? "time" : "explain");
        session.add_all_input_events(1e-9);
        session.run();
        session.publish_telemetry();
        evaluations[static_cast<std::size_t>(t)] +=
            session.stage_evaluations();
      }
    });
  }
  // Render while sessions publish and retire (tsan-checked in
  // scripts/check.sh).
  for (int i = 0; i < 100; ++i) {
    (void)TelemetryHub::instance().to_prometheus();
    (void)TelemetryHub::instance().aggregate();
  }
  for (std::thread& w : workers) w.join();
  std::uint64_t expected = 0;
  for (const std::uint64_t e : evaluations) expected += e;
  EXPECT_EQ(TelemetryHub::instance().snapshot_count(), 4u);
  EXPECT_EQ(aggregate_counter("propagate.stage_evaluations"), expected);
}

// --- Run ledger ----------------------------------------------------------

TEST(Ledger, AppendReadRoundTrip) {
  const std::string path = temp_path("roundtrip.jsonl");
  LedgerRecord r;
  r.kind = "run";
  r.version = "1.2.3";
  r.fingerprint = 0xdeadbeefull;
  r.source = "a.sim";
  r.model = "slope";
  r.threads = 4;
  r.extract_seconds = 0.25;
  r.propagate_seconds = 0.5;
  r.stage_evaluations = 123;
  r.has_critical = true;
  r.critical_node = "out";
  r.critical_dir = "rise";
  r.critical_arrival_s = 9.5e-9;
  r.outcome = "ok";
  append_ledger_record(path, r);

  LedgerRecord eco;
  eco.kind = "eco";
  eco.version = "1.2.3";
  eco.fingerprint = 0xdeadbeefull;
  eco.propagate_seconds = 1.0;
  eco.outcome = "ok";
  append_ledger_record(path, eco);

  const std::vector<LedgerRecord> records = read_ledger_file(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].kind, "run");
  EXPECT_EQ(records[0].version, "1.2.3");
  EXPECT_EQ(records[0].fingerprint, 0xdeadbeefull);
  EXPECT_EQ(records[0].source, "a.sim");
  EXPECT_EQ(records[0].model, "slope");
  EXPECT_EQ(records[0].threads, 4);
  EXPECT_DOUBLE_EQ(records[0].extract_seconds, 0.25);
  EXPECT_DOUBLE_EQ(records[0].propagate_seconds, 0.5);
  EXPECT_EQ(records[0].stage_evaluations, 123u);
  ASSERT_TRUE(records[0].has_critical);
  EXPECT_EQ(records[0].critical_node, "out");
  EXPECT_EQ(records[0].critical_dir, "rise");
  EXPECT_DOUBLE_EQ(records[0].critical_arrival_s, 9.5e-9);
  EXPECT_EQ(records[0].outcome, "ok");
  EXPECT_GT(records[0].unix_ms, 0);  // stamped by append
  EXPECT_FALSE(records[1].has_critical);

  const std::string summary = summarize_ledger(records);
  EXPECT_NE(summary.find("00000000deadbeef"), std::string::npos);
  EXPECT_NE(summary.find("eco:1,run:1"), std::string::npos);
  EXPECT_NE(summary.find("2 ledger record(s)"), std::string::npos);
}

TEST(Ledger, MalformedLineReportsPathAndLine) {
  const std::string path = temp_path("malformed.jsonl");
  {
    std::ofstream out(path);
    out << "{\"kind\":\"run\",\"outcome\":\"ok\",\"threads\":1}\n"
        << "not json\n";
  }
  try {
    read_ledger_file(path);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(":2:"), std::string::npos);
  }
}

TEST(Ledger, BadFingerprintIsANamedErrorWithLocation) {
  const std::string path = temp_path("badfp.jsonl");
  {
    std::ofstream out(path);
    out << "{\"kind\":\"run\",\"outcome\":\"ok\",\"threads\":1}\n"
        << "{\"kind\":\"run\",\"fingerprint\":\"xyzw\","
           "\"outcome\":\"ok\",\"threads\":1}\n";
  }
  try {
    read_ledger_file(path);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(path + ":2:"), std::string::npos) << msg;
    EXPECT_NE(msg.find("bad fingerprint"), std::string::npos) << msg;
  }
}

TEST(Ledger, OverlongFingerprintIsRejected) {
  const std::string path = temp_path("longfp.jsonl");
  {
    std::ofstream out(path);
    // 17 hex digits: one past what a u64 can hold; the old stoull path
    // silently truncated values like this (or aborted on non-hex).
    out << "{\"kind\":\"run\",\"fingerprint\":\"00000000deadbeef0\","
           "\"outcome\":\"ok\",\"threads\":1}\n";
  }
  EXPECT_THROW(read_ledger_file(path), Error);
}

TEST(Ledger, MissingKindIsRejected) {
  const std::string path = temp_path("nokind.jsonl");
  {
    std::ofstream out(path);
    out << "{\"outcome\":\"ok\"}\n";
  }
  EXPECT_THROW(read_ledger_file(path), Error);
}

// --- CLI surfaces --------------------------------------------------------

/// Checks one line of exposition output: either a TYPE comment or
/// `name[{labels}] value`.
void expect_valid_exposition_line(const std::string& line) {
  if (starts_with(line, "# TYPE sldm_")) {
    const bool typed = line.find(" counter") != std::string::npos ||
                       line.find(" gauge") != std::string::npos ||
                       line.find(" histogram") != std::string::npos;
    EXPECT_TRUE(typed) << line;
    return;
  }
  ASSERT_TRUE(starts_with(line, "sldm_")) << line;
  const std::size_t space = line.rfind(' ');
  ASSERT_NE(space, std::string::npos) << line;
  std::string name = line.substr(0, space);
  const std::size_t brace = name.find('{');
  if (brace != std::string::npos) {
    EXPECT_EQ(name.back(), '}') << line;
    name = name.substr(0, brace);
  }
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    EXPECT_TRUE(ok) << "bad metric name char in: " << line;
  }
  const std::string value = line.substr(space + 1);
  const bool numeric = value == "NaN" || value == "+Inf" ||
                       value == "-Inf" || parse_double(value).has_value();
  EXPECT_TRUE(numeric) << line;
}

TEST(CliTelemetry, TimePromEmitsValidExposition) {
  HubGuard guard;
  std::string out;
  const int rc =
      run({"time", kSampleSim, "--model", "lumped", "--prom", "-"}, &out);
  EXPECT_EQ(rc, 0);

  // The exposition block is the tail of stdout, starting at the first
  // family TYPE line.
  const std::size_t start = out.find("# TYPE ");
  ASSERT_NE(start, std::string::npos);
  const std::string prom = out.substr(start);
  std::istringstream lines(prom);
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    expect_valid_exposition_line(line);
    ++count;
  }
  EXPECT_GT(count, 20u);

  // Every analyzer metric family is present, with session labels.
  for (const char* family :
       {"# TYPE sldm_propagate_stage_evaluations_total counter",
        "# TYPE sldm_propagate_worklist_pushes_total counter",
        "# TYPE sldm_propagate_arrival_updates_total counter",
        "# TYPE sldm_propagate_batches_total counter",
        "# TYPE sldm_eco_updates_total counter",
        "# TYPE sldm_extract_seconds gauge",
        "# TYPE sldm_propagate_seconds gauge",
        "# TYPE sldm_propagate_batch_size histogram",
        "# TYPE sldm_extract_stage_fan_in histogram",
        "# TYPE sldm_propagate_rc_path_depth histogram",
        "# TYPE sldm_propagate_eval_us histogram",
        "# TYPE sldm_propagate_queue_depth histogram",
        "# TYPE sldm_eco_frontier_size histogram"}) {
    EXPECT_NE(prom.find(family), std::string::npos) << family;
  }
  EXPECT_NE(prom.find("model=\"lumped-rc\""), std::string::npos);
  EXPECT_NE(prom.find("session=\"s"), std::string::npos);
}

TEST(CliTelemetry, StatsRendersTheHub) {
  HubGuard guard;
  std::string out;
  ASSERT_EQ(run({"stats"}, &out), 0);
  EXPECT_NE(out.find("0 snapshot(s)"), std::string::npos);

  // An in-process analysis populates the hub; stats then reads it back.
  ASSERT_EQ(run({"time", kSampleSim, "--model", "lumped"}, &out), 0);
  ASSERT_EQ(run({"stats"}, &out), 0);
  EXPECT_NE(out.find("1 snapshot(s)"), std::string::npos);
  EXPECT_NE(out.find("propagate.stage_evaluations"), std::string::npos);

  std::string json_out;
  ASSERT_EQ(run({"stats", "--json"}, &json_out), 0);
  const JsonValue parsed = parse_json(json_out);
  EXPECT_GT(parsed.at("counters").at("propagate.stage_evaluations")
                .as_number(),
            0.0);

  std::string prom_out;
  ASSERT_EQ(run({"stats", "--prom", "-"}, &prom_out), 0);
  EXPECT_NE(prom_out.find("# TYPE sldm_propagate_stage_evaluations_total"),
            std::string::npos);
}

TEST(CliTelemetry, LedgerFlagRecordsRunsAndSummarizes) {
  HubGuard guard;
  const std::string path = temp_path("cli_ledger.jsonl");
  std::string out;
  ASSERT_EQ(
      run({"time", kSampleSim, "--model", "lumped", "--ledger", path},
          &out),
      0);
  const std::vector<LedgerRecord> records = read_ledger_file(path);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].kind, "run");
  EXPECT_EQ(records[0].outcome, "ok");
  EXPECT_EQ(records[0].version, sldm_version());
  EXPECT_NE(records[0].fingerprint, 0u);
  EXPECT_TRUE(records[0].has_critical);
  EXPECT_GT(records[0].stage_evaluations, 0u);

  std::string summary;
  ASSERT_EQ(run({"ledger", "summarize", path}, &summary), 0);
  EXPECT_NE(summary.find("run:1"), std::string::npos);
  EXPECT_NE(summary.find("lumped-rc"), std::string::npos);

  std::string err;
  EXPECT_EQ(run({"ledger", "oops", path}, &out, &err), 2);
}

TEST(CliTelemetry, BenchDiffGatesOnRegression) {
  const std::string old_path = temp_path("bench_old.jsonl");
  const std::string new_path = temp_path("bench_new.jsonl");
  {
    std::ofstream old_out(old_path);
    old_out << "{\"bench\":\"a\",\"wall_seconds\":1.0}\n"
            << "{\"bench\":\"a\",\"wall_seconds\":0.9}\n"  // best: 0.9
            << "{\"bench\":\"b\",\"wall_seconds\":2.0}\n";
  }

  // Identity: the same records diff clean.
  std::string out;
  EXPECT_EQ(run({"bench", "diff", old_path, old_path}, &out), 0);
  EXPECT_NE(out.find("0 regression(s)"), std::string::npos);

  // Within the bound: +5% passes a 50% gate.
  {
    std::ofstream new_out(new_path);
    new_out << "{\"bench\":\"a\",\"wall_seconds\":0.945}\n"
            << "{\"bench\":\"b\",\"wall_seconds\":2.1}\n";
  }
  EXPECT_EQ(run({"bench", "diff", old_path, new_path, "--max-regress",
                 "50"},
                &out),
            0);

  // Injected 2x regression fails the same gate.
  {
    std::ofstream new_out(new_path, std::ios::trunc);
    new_out << "{\"bench\":\"a\",\"wall_seconds\":1.8}\n"
            << "{\"bench\":\"b\",\"wall_seconds\":2.0}\n";
  }
  EXPECT_EQ(run({"bench", "diff", old_path, new_path, "--max-regress",
                 "50"},
                &out),
            1);
  EXPECT_NE(out.find("REGRESSED"), std::string::npos);

  // Nothing in common: a gate that compared nothing must fail.
  {
    std::ofstream new_out(new_path, std::ios::trunc);
    new_out << "{\"bench\":\"zzz\",\"wall_seconds\":1.0}\n";
  }
  std::string err;
  EXPECT_EQ(run({"bench", "diff", old_path, new_path}, &out, &err), 1);
  EXPECT_NE(err.find("nothing"), std::string::npos);
}

TEST(CliTelemetry, VersionUsesSharedVersionString) {
  std::string out;
  ASSERT_EQ(run({"version"}, &out), 0);
  EXPECT_NE(out.find(sldm_version()), std::string::npos);
}

}  // namespace
}  // namespace sldm

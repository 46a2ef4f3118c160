// Tests for the introspection plane's exposition layer (src/obs/expose):
// the dotted-name -> Prometheus mapper, the text exposition renderer and
// its parser/validator, the MetricsSnapshot JSON round-trip, and the
// embedded HTTP server end-to-end over a real loopback socket.

#include "obs/expose.h"

#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "lib/json.h"
#include "lib/scrape.h"
#include "obs/metrics.h"

namespace silofuse {
namespace obs {
namespace {

class ExposeTest : public ::testing::Test {
 protected:
  void SetUp() override { MetricsRegistry::Global().Reset(); }
};

// ---------------------------------------------------------------------------
// Name mapping and the registry naming grammar.
// ---------------------------------------------------------------------------

TEST_F(ExposeTest, MapMetricNamePlain) {
  const MappedMetricName mapped = MapMetricName("serve.request_latency_ms");
  EXPECT_EQ(mapped.name, "serve_request_latency_ms");
  EXPECT_TRUE(mapped.deployment.empty());
}

TEST_F(ExposeTest, MapMetricNameLiftsServeDeployment) {
  const MappedMetricName mapped = MapMetricName("serve.deploy.demo.sample_ms");
  // The deploy literal AND the deployment segment leave the name, so the
  // per-deployment series joins the global serve_sample_ms family.
  EXPECT_EQ(mapped.name, "serve_sample_ms");
  EXPECT_EQ(mapped.deployment, "demo");
}

TEST_F(ExposeTest, MapMetricNameLiftsAuditDeployment) {
  const MappedMetricName mapped = MapMetricName("audit.demo.bad_audits");
  EXPECT_EQ(mapped.name, "audit_bad_audits");
  EXPECT_EQ(mapped.deployment, "demo");
}

TEST_F(ExposeTest, MapMetricNameOnlyDocumentedPositionsLift) {
  // "deploy" elsewhere is NOT a label position.
  EXPECT_TRUE(MapMetricName("cache.deploy.demo.rows").deployment.empty());
  // audit with too few segments: no label either.
  EXPECT_TRUE(MapMetricName("audit.rows").deployment.empty());
}

TEST_F(ExposeTest, MapMetricNameSanitizesAndGuardsLeadingDigit) {
  EXPECT_EQ(MapMetricName("quality.latentdiff.series.3.overall").name,
            "quality_latentdiff_series_3_overall");
  // A digit-leading mapped name gets an underscore so it stays in the
  // Prometheus metric-name grammar.
  EXPECT_EQ(MapMetricName("3.x").name, "_3_x");
  // Deployment charset is wider than the base grammar; the name segments
  // around it still sanitize to [a-zA-Z0-9_].
  const MappedMetricName mapped =
      MapMetricName("serve.deploy.My-Dep_0.sample_ms");
  EXPECT_EQ(mapped.name, "serve_sample_ms");
  EXPECT_EQ(mapped.deployment, "My-Dep_0");
}

TEST_F(ExposeTest, MetricNameValidGrammar) {
  EXPECT_TRUE(MetricNameValid("serve.requests"));
  EXPECT_TRUE(MetricNameValid("serve.deploy.demo.sample_ms"));
  EXPECT_TRUE(MetricNameValid("serve.deploy.My-Dep_0.sample_ms"));
  EXPECT_TRUE(MetricNameValid("audit.My-Dep_0.bad_audits"));
  EXPECT_TRUE(MetricNameValid(
      "health.ae.train.silo0.layer.encoder.0.linear.weight.grad_norm"));
  EXPECT_TRUE(MetricNameValid("quality.latentdiff.series.3.overall"));

  EXPECT_FALSE(MetricNameValid(""));
  EXPECT_FALSE(MetricNameValid("."));
  EXPECT_FALSE(MetricNameValid(".serve"));
  EXPECT_FALSE(MetricNameValid("serve."));
  EXPECT_FALSE(MetricNameValid("serve..requests"));
  EXPECT_FALSE(MetricNameValid("serve.Requests"));  // uppercase outside the
                                                    // deployment position
  EXPECT_FALSE(MetricNameValid("serve.re quests"));
  EXPECT_FALSE(MetricNameValid("serve.deploy.demo"));  // name after the
                                                       // deployment required
  // Dash is reserved for the deployment position.
  EXPECT_FALSE(MetricNameValid("serve.request-latency"));
  EXPECT_FALSE(MetricNameValid("audit.demo.bad-audits"));
}

TEST_F(ExposeTest, EveryMappedRegistryNameSurvivesValidation) {
  auto& registry = MetricsRegistry::Global();
  registry.GetCounter("serve.requests")->Increment();
  registry.GetCounter("serve.deploy.demo.requests")->Increment();
  registry.GetGauge("audit.demo.burn_short")->Set(0.5);
  registry.GetHistogram("serve.deploy.demo.sample_ms", {1, 10})->Observe(2.0);
  const std::string text = PrometheusExposition(registry.Snapshot());
  ASSERT_TRUE(ValidateExposition(text).ok()) << text;
}

// ---------------------------------------------------------------------------
// Exposition rendering.
// ---------------------------------------------------------------------------

TEST_F(ExposeTest, ExpositionRendersCounterGaugeHistogram) {
  MetricsSnapshot snapshot;
  snapshot.counters["serve.requests"] = 7;
  snapshot.gauges["serve.queue_depth"] = 3.5;
  HistogramSnapshot h;
  h.bounds = {1.0, 10.0};
  h.bucket_counts = {2, 3, 1};  // per-bucket, last = overflow
  h.count = 6;
  h.sum = 23.5;
  snapshot.histograms["serve.sample_ms"] = h;

  const std::string text = PrometheusExposition(snapshot);
  EXPECT_NE(text.find("# TYPE serve_requests_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("serve_requests_total 7\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE serve_queue_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("serve_queue_depth 3.5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE serve_sample_ms histogram\n"),
            std::string::npos);
  // Buckets are CUMULATIVE in the exposition format.
  EXPECT_NE(text.find("serve_sample_ms_bucket{le=\"1\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("serve_sample_ms_bucket{le=\"10\"} 5\n"),
            std::string::npos);
  EXPECT_NE(text.find("serve_sample_ms_bucket{le=\"+Inf\"} 6\n"),
            std::string::npos);
  EXPECT_NE(text.find("serve_sample_ms_sum 23.5\n"), std::string::npos);
  EXPECT_NE(text.find("serve_sample_ms_count 6\n"), std::string::npos);
  EXPECT_TRUE(ValidateExposition(text).ok());
}

TEST_F(ExposeTest, ExpositionSharesFamilyAcrossDeployments) {
  MetricsSnapshot snapshot;
  HistogramSnapshot h;
  h.bounds = {1.0};
  h.bucket_counts = {1, 0};
  h.count = 1;
  h.sum = 0.5;
  snapshot.histograms["serve.sample_ms"] = h;
  snapshot.histograms["serve.deploy.demo.sample_ms"] = h;
  snapshot.histograms["serve.deploy.other.sample_ms"] = h;

  const std::string text = PrometheusExposition(snapshot);
  // One family, one TYPE line, three series with/without the label.
  size_t type_lines = 0;
  for (size_t pos = text.find("# TYPE serve_sample_ms histogram");
       pos != std::string::npos;
       pos = text.find("# TYPE serve_sample_ms histogram", pos + 1)) {
    ++type_lines;
  }
  EXPECT_EQ(type_lines, 1u);
  EXPECT_NE(text.find("serve_sample_ms_count{deployment=\"demo\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("serve_sample_ms_count{deployment=\"other\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("serve_sample_ms_count 1"), std::string::npos);
  EXPECT_NE(
      text.find("serve_sample_ms_bucket{deployment=\"demo\",le=\"1\"} 1"),
      std::string::npos);
  EXPECT_TRUE(ValidateExposition(text).ok()) << text;
}

TEST_F(ExposeTest, ExpositionIsDeterministic) {
  auto& registry = MetricsRegistry::Global();
  registry.GetCounter("serve.requests")->Add(5);
  registry.GetGauge("serve.queue_depth")->Set(2);
  registry.GetHistogram("serve.sample_ms", {1, 10})->Observe(3.0);
  const std::string a = PrometheusExposition(registry.Snapshot());
  const std::string b = PrometheusExposition(registry.Snapshot());
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// Parsing and validation.
// ---------------------------------------------------------------------------

TEST_F(ExposeTest, ParseExpositionReadsLabelsAndValues) {
  const std::string text =
      "# HELP x ignored\n"
      "# TYPE serve_requests_total counter\n"
      "serve_requests_total 12\n"
      "serve_sample_ms_bucket{deployment=\"demo\",le=\"+Inf\"} 4\n"
      "weird_value{k=\"a\\\"b\\\\c\\nd\"} -2.5e-1\n";
  auto doc = ParseExposition(text);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_EQ(doc.Value().series.size(), 3u);
  EXPECT_EQ(doc.Value().types.at("serve_requests_total"), "counter");
  EXPECT_EQ(doc.Value().series[0].name, "serve_requests_total");
  EXPECT_DOUBLE_EQ(doc.Value().series[0].value, 12.0);
  EXPECT_EQ(doc.Value().series[1].Label("deployment"), "demo");
  EXPECT_EQ(doc.Value().series[1].Label("le"), "+Inf");
  EXPECT_EQ(doc.Value().series[2].Label("k"), "a\"b\\c\nd");
  EXPECT_DOUBLE_EQ(doc.Value().series[2].value, -0.25);
}

TEST_F(ExposeTest, ParseExpositionRejectsGarbage) {
  auto doc = ParseExposition("serve_requests_total 1\nnot a sample line\n");
  EXPECT_FALSE(doc.ok());
  // The error names the offending line.
  EXPECT_NE(doc.status().ToString().find("line 2"), std::string::npos)
      << doc.status().ToString();
}

TEST_F(ExposeTest, ValidateExpositionCatchesDuplicatesAndTypeConflicts) {
  EXPECT_FALSE(ValidateExposition("x 1\nx 2\n").ok());
  // Same name with distinct label sets is fine.
  EXPECT_TRUE(
      ValidateExposition("x{deployment=\"a\"} 1\nx{deployment=\"b\"} 2\n")
          .ok());
  EXPECT_FALSE(
      ValidateExposition("# TYPE x counter\n# TYPE x gauge\nx 1\n").ok());
  EXPECT_FALSE(ValidateExposition("").ok());  // an empty scrape is a failure
}

// ---------------------------------------------------------------------------
// /varz JSON round-trip (the schema sf_report consumes).
// ---------------------------------------------------------------------------

TEST_F(ExposeTest, MetricsSnapshotJsonRoundTrip) {
  auto& registry = MetricsRegistry::Global();
  registry.GetCounter("serve.requests")->Add(9);
  registry.GetGauge("serve.queue_depth")->Set(1.25);
  Histogram* h = registry.GetHistogram("serve.sample_ms", {1, 10, 100});
  h->Observe(0.5);
  h->Observe(42.0);
  h->Observe(5000.0);  // overflow bucket
  const MetricsSnapshot original = registry.Snapshot();

  auto doc = json::Parse(original.ToJson());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const MetricsSnapshot rebuilt = MetricsSnapshotFromJson(doc.Value());

  EXPECT_EQ(rebuilt.counters.at("serve.requests"), 9);
  EXPECT_DOUBLE_EQ(rebuilt.gauges.at("serve.queue_depth"), 1.25);
  const HistogramSnapshot& hs = rebuilt.histograms.at("serve.sample_ms");
  EXPECT_EQ(hs.bounds, original.histograms.at("serve.sample_ms").bounds);
  EXPECT_EQ(hs.bucket_counts,
            original.histograms.at("serve.sample_ms").bucket_counts);
  EXPECT_EQ(hs.count, 3);
  EXPECT_DOUBLE_EQ(hs.sum, 5042.5);
  // The rebuilt snapshot must render the same exposition as the original:
  // nothing (including derived members) may leak into the round trip.
  EXPECT_EQ(PrometheusExposition(original), PrometheusExposition(rebuilt));
}

// ---------------------------------------------------------------------------
// The embedded HTTP server, end-to-end over loopback.
// ---------------------------------------------------------------------------

TEST_F(ExposeTest, IntrospectionServerServesAllRoutes) {
  auto& registry = MetricsRegistry::Global();
  registry.GetCounter("serve.requests")->Add(3);

  IntrospectionServer server;  // ephemeral port
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.running());
  ASSERT_GT(server.port(), 0);
  const std::string target = "127.0.0.1:" + std::to_string(server.port());

  auto health = HttpGet(target, "/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health.Value(), "ok\n");

  auto varz = HttpGet(target, "/varz");
  ASSERT_TRUE(varz.ok());
  auto doc = json::Parse(varz.Value());
  ASSERT_TRUE(doc.ok());
  const MetricsSnapshot rebuilt = MetricsSnapshotFromJson(doc.Value());
  EXPECT_EQ(rebuilt.counters.at("serve.requests"), 3);

  auto metrics = HttpGet(target, "/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_TRUE(ValidateExposition(metrics.Value()).ok()) << metrics.Value();
  EXPECT_NE(metrics.Value().find("serve_requests_total 3\n"),
            std::string::npos);

  // /statusz is 404 until a handler is installed.
  EXPECT_FALSE(HttpGet(target, "/statusz").ok());
  server.SetStatuszHandler([] { return std::string("status body\n"); });
  auto statusz = HttpGet(target, "/statusz");
  ASSERT_TRUE(statusz.ok());
  EXPECT_EQ(statusz.Value(), "status body\n");

  EXPECT_FALSE(HttpGet(target, "/nonsense").ok());

  server.Stop();
  EXPECT_FALSE(server.running());
  EXPECT_FALSE(HttpGet(target, "/healthz", /*timeout_ms=*/200).ok());
}

TEST_F(ExposeTest, IntrospectionServerSurvivesConcurrentScrapes) {
  auto& registry = MetricsRegistry::Global();
  IntrospectionServer server;
  ASSERT_TRUE(server.Start().ok());
  const std::string target = "127.0.0.1:" + std::to_string(server.port());

  // Writers mutate the registry while scrapers read /metrics: the TSan job
  // runs this to prove the exposition path is race-free against live
  // instrumentation.
  std::vector<std::thread> workers;
  for (int w = 0; w < 2; ++w) {
    workers.emplace_back([&registry] {
      for (int i = 0; i < 500; ++i) {
        registry.GetCounter("serve.requests")->Increment();
        registry.GetHistogram("serve.sample_ms", {1, 10})
            ->Observe(static_cast<double>(i % 13));
      }
    });
  }
  for (int s = 0; s < 2; ++s) {
    workers.emplace_back([&target] {
      for (int i = 0; i < 20; ++i) {
        auto body = HttpGet(target, "/metrics");
        ASSERT_TRUE(body.ok()) << body.status().ToString();
        EXPECT_TRUE(ValidateExposition(body.Value()).ok());
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  server.Stop();
}

TEST_F(ExposeTest, HttpGetRejectsUnreachableTarget) {
  // Port 1 on loopback: nothing listens there.
  auto result = HttpGet("127.0.0.1:1", "/healthz", /*timeout_ms=*/200);
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace obs
}  // namespace silofuse

#include "lib/json.h"

#include <gtest/gtest.h>

#include <string>

namespace silofuse {
namespace json {
namespace {

TEST(JsonParse, ScalarsAndStructure) {
  auto doc = Parse(R"({"a": 1.5, "b": [1, 2, 3], "c": {"d": "x"},
                       "t": true, "f": false, "n": null})");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const Value& v = doc.Value();
  EXPECT_DOUBLE_EQ(v.NumberOr("a", 0.0), 1.5);
  const Value* b = v.Find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_TRUE(b->is_array());
  ASSERT_EQ(b->AsArray().size(), 3u);
  EXPECT_DOUBLE_EQ(b->AsArray()[1].AsNumber(), 2.0);
  const Value* c = v.Find("c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->StringOr("d", ""), "x");
  EXPECT_TRUE(v.Find("t")->AsBool());
  EXPECT_FALSE(v.Find("f")->AsBool());
  EXPECT_TRUE(v.Find("n")->is_null());
  EXPECT_EQ(v.Find("missing"), nullptr);
}

TEST(JsonParse, NumbersIncludingExponentsAndNegatives) {
  auto doc = Parse(R"([0, -1, 3.25, 1e3, -2.5e-2, 12345678901234])");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const auto& a = doc.Value().AsArray();
  EXPECT_DOUBLE_EQ(a[0].AsNumber(), 0.0);
  EXPECT_DOUBLE_EQ(a[1].AsNumber(), -1.0);
  EXPECT_DOUBLE_EQ(a[2].AsNumber(), 3.25);
  EXPECT_DOUBLE_EQ(a[3].AsNumber(), 1000.0);
  EXPECT_DOUBLE_EQ(a[4].AsNumber(), -0.025);
  EXPECT_DOUBLE_EQ(a[5].AsNumber(), 12345678901234.0);
}

TEST(JsonParse, StringEscapes) {
  auto doc = Parse(R"(["a\"b", "line\nbreak", "tab\t", "\u0041\u00e9"])");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const auto& a = doc.Value().AsArray();
  EXPECT_EQ(a[0].AsString(), "a\"b");
  EXPECT_EQ(a[1].AsString(), "line\nbreak");
  EXPECT_EQ(a[2].AsString(), "tab\t");
  EXPECT_EQ(a[3].AsString(), "A\xC3\xA9");  // é as UTF-8
}

TEST(JsonParse, RejectsMalformedInput) {
  EXPECT_FALSE(Parse("").ok());
  EXPECT_FALSE(Parse("{").ok());
  EXPECT_FALSE(Parse("[1,]").ok());
  EXPECT_FALSE(Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(Parse("{\"a\": 1} trailing").ok());
  EXPECT_FALSE(Parse("\"unterminated").ok());
  EXPECT_FALSE(Parse("01a").ok());
  EXPECT_FALSE(Parse("nul").ok());
  EXPECT_FALSE(Parse("{\"a\": \"\\q\"}").ok());
}

TEST(JsonParse, DeepNestingIsBounded) {
  std::string deep(400, '[');
  deep += std::string(400, ']');
  EXPECT_FALSE(Parse(deep).ok());
  std::string fine(50, '[');
  fine += std::string(50, ']');
  EXPECT_TRUE(Parse(fine).ok());
}

TEST(JsonParse, RoundTripsOwnTelemetryShapes) {
  // The exact shape metrics.cc exports; the tools must re-read it.
  auto doc = Parse(R"({
    "counters": {"channel.bytes": 123},
    "gauges": {"e2e.loss": -0.5},
    "histograms": {"pool.task_us": {"bounds": [10, 100], "counts": [5, 3, 1],
                    "count": 9, "sum": 420.5, "mean": 46.7,
                    "p50": 30.0, "p95": 95.0, "p99": 100.0}}
  })");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const Value* h = doc.Value().Find("histograms")->Find("pool.task_us");
  ASSERT_NE(h, nullptr);
  EXPECT_DOUBLE_EQ(h->NumberOr("count", 0), 9.0);
  EXPECT_EQ(h->Find("bounds")->AsArray().size(), 2u);
}

TEST(JsonParseFile, MissingFileNamesPath) {
  auto doc = ParseFile("/nonexistent/sf_json_test.json");
  EXPECT_FALSE(doc.ok());
  EXPECT_NE(doc.status().message().find("sf_json_test"), std::string::npos);
}

}  // namespace
}  // namespace json
}  // namespace silofuse

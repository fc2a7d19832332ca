// Tests for netbase/json — the one JSON reader and string escaper.
// The ObsBenchDiffJson cases predate the shared reader (it started as
// zsbenchdiff's) and keep their names.

#include <gtest/gtest.h>

#include <string>

#include "netbase/json.hpp"
#include "obs/benchdiff.hpp"
#include "obs/export.hpp"
#include "obs/heap.hpp"
#include "obs/prof.hpp"
#include "obs/trace.hpp"

namespace netbase = zombiescope::netbase;
namespace obs = zombiescope::obs;

namespace {

TEST(ObsBenchDiffJson, ParsesScalarsArraysObjects) {
  const auto v = netbase::parse_json(
      R"({"a": 1.5, "b": [true, false, null], "c": {"d": "x\n\"y\""}, "e": -2e3})");
  ASSERT_TRUE(v.has_value());
  ASSERT_EQ(v->kind, netbase::JsonValue::Kind::kObject);
  EXPECT_DOUBLE_EQ(v->find("a")->number, 1.5);
  ASSERT_EQ(v->find("b")->array.size(), 3u);
  EXPECT_TRUE(v->find("b")->array[0].boolean);
  EXPECT_EQ(v->find("c")->find("d")->str, "x\n\"y\"");
  EXPECT_DOUBLE_EQ(v->find("e")->number, -2000.0);
}

TEST(ObsBenchDiffJson, RejectsMalformedInput) {
  EXPECT_FALSE(netbase::parse_json("{").has_value());
  EXPECT_FALSE(netbase::parse_json("{\"a\": }").has_value());
  EXPECT_FALSE(netbase::parse_json("[1, 2,]").has_value());
  EXPECT_FALSE(netbase::parse_json("{} trailing").has_value());
  EXPECT_FALSE(netbase::parse_json("\"unterminated").has_value());
}

TEST(Json, NestingPastTheCapIsRejectedNotRecursedInto) {
  const std::string at_cap = std::string(netbase::kMaxJsonDepth + 1, '[') +
                             std::string(netbase::kMaxJsonDepth + 1, ']');
  EXPECT_TRUE(netbase::parse_json(at_cap).has_value());
  EXPECT_FALSE(netbase::parse_json("[" + at_cap + "]").has_value());
  EXPECT_FALSE(netbase::parse_json(std::string(100'000, '[')).has_value());
}

TEST(Json, NumbersThatOverflowAreRejected) {
  EXPECT_FALSE(netbase::parse_json("1e999").has_value());
  EXPECT_FALSE(netbase::parse_json("[-1e999]").has_value());
  EXPECT_TRUE(netbase::parse_json("1e300").has_value());
}

TEST(Json, IntegersStayExactBeyondDoublePrecision) {
  const auto v = netbase::parse_json("[9007199254740993, -5, 1.5, 1e3]");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->array[0].integer(), 9007199254740993);
  EXPECT_EQ(v->array[1].integer(), -5);
  EXPECT_FALSE(v->array[2].integer().has_value());
  EXPECT_FALSE(v->array[3].integer().has_value());
}

TEST(Json, UnicodeEscapesDecodeToUtf8) {
  const auto v = netbase::parse_json(R"("caf\u00e9 \u20ac")");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->str, "caf\xc3\xa9 \xe2\x82\xac");
  EXPECT_FALSE(netbase::parse_json(R"("\u00zz")").has_value());
  EXPECT_FALSE(netbase::parse_json(R"("\q")").has_value());
}

TEST(Json, MembersKeepOrderAndFindReturnsTheFirstDuplicate) {
  const auto v = netbase::parse_json(R"({"b": 1, "a": 2, "b": 3})");
  ASSERT_TRUE(v.has_value());
  ASSERT_EQ(v->object.size(), 3u);
  EXPECT_EQ(v->object[0].first, "b");
  EXPECT_EQ(v->object[1].first, "a");
  EXPECT_DOUBLE_EQ(v->find("b")->number, 1.0);
  EXPECT_EQ(v->find("missing"), nullptr);
}

TEST(Json, TrailingGarbageRejectedTrailingWhitespaceAccepted) {
  EXPECT_FALSE(netbase::parse_json("{} x").has_value());
  EXPECT_TRUE(netbase::parse_json("{} \r\n\t").has_value());
  EXPECT_TRUE(netbase::parse_json(" \n[1] ").has_value());
}

TEST(Json, EscapeUsesShortFormsAndHexForOtherControls) {
  EXPECT_EQ(netbase::json_escape("a\"b\\c\nd\te\x01\x1f"),
            "a\\\"b\\\\c\\nd\\te\\u0001\\u001f");
  EXPECT_EQ(netbase::json_escape("caf\xc3\xa9"), "caf\xc3\xa9");
}

// Every writer that pastes a name into JSON goes through the one
// escaper, so a name with quotes, backslashes and control characters
// reads back unchanged.
TEST(Json, NamesRoundTripThroughEveryWriter) {
  const std::string name = "we\"ird\\name\nwith\ttabs\x01";

  obs::SpanRecord span;
  span.id = 1;
  span.name = name;
  const std::vector<obs::SpanRecord> spans = {span};
  const auto snapshot =
      netbase::parse_json(obs::to_json(obs::Registry::global().snapshot(), spans));
  ASSERT_TRUE(snapshot.has_value());
  ASSERT_EQ(snapshot->find("spans")->array.size(), 1u);
  EXPECT_EQ(snapshot->find("spans")->array[0].find("name")->str, name);

  obs::ProfileReport profile;
  profile.valid = true;
  profile.samples = 1;
  profile.phase_samples[name] = 1;
  const auto prof = netbase::parse_json(profile.to_json());
  ASSERT_TRUE(prof.has_value());
  ASSERT_EQ(prof->find("phases")->object.size(), 1u);
  EXPECT_EQ(prof->find("phases")->object[0].first, name);

  obs::HeapReport heap;
  heap.valid = true;
  heap.span_bytes[name] = {64, 1};
  const auto heap_json = netbase::parse_json(heap.to_json());
  ASSERT_TRUE(heap_json.has_value());
  ASSERT_EQ(heap_json->find("spans")->object.size(), 1u);
  EXPECT_EQ(heap_json->find("spans")->object[0].first, name);

  obs::DiffResult diff;
  diff.benches.emplace_back();
  diff.benches.back().bench_name = name;
  const auto diff_json = netbase::parse_json(obs::render_json(diff));
  ASSERT_TRUE(diff_json.has_value());
  ASSERT_EQ(diff_json->find("benches")->array.size(), 1u);
  EXPECT_EQ(diff_json->find("benches")->array[0].find("bench")->str, name);
}

}  // namespace

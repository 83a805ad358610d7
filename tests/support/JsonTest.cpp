//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"
#include "support/JsonWriter.h"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

using namespace padx;
using namespace padx::support;

namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(parseJson("null")->isNull());
  EXPECT_TRUE(parseJson("true")->asBool());
  EXPECT_FALSE(parseJson("false")->asBool());
  EXPECT_EQ(parseJson("42")->asInt64(), 42);
  EXPECT_EQ(parseJson("-7")->asInt64(), -7);
  EXPECT_DOUBLE_EQ(parseJson("2.5e3")->asDouble(), 2500.0);
  EXPECT_EQ(parseJson("\"hi\"")->asString(), "hi");
}

TEST(Json, ParsesNestedDocument) {
  auto V = parseJson(R"({"op":"pad","cache":{"size":16384,"line":32},
                         "files":["a.pad","b.pad"],"emit":true})");
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(V->getString("op", ""), "pad");
  const JsonValue *Cache = V->find("cache");
  ASSERT_NE(Cache, nullptr);
  EXPECT_EQ(Cache->getInt("size", 0), 16384);
  EXPECT_EQ(Cache->getInt("missing", -1), -1);
  const JsonValue *Files = V->find("files");
  ASSERT_NE(Files, nullptr);
  ASSERT_EQ(Files->elements().size(), 2u);
  EXPECT_EQ(Files->elements()[1].asString(), "b.pad");
  EXPECT_TRUE(V->getBool("emit", false));
}

TEST(Json, StringEscapes) {
  auto V = parseJson(R"("a\n\t\"\\\u0041\u00e9b")");
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(V->asString(), "a\n\t\"\\A\xC3\xA9"
                           "b");
}

TEST(Json, IntegerExactness) {
  // 2^53 + 1 is not representable in double; the parser keeps int64
  // tokens exact.
  auto V = parseJson("9007199254740993");
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(V->asInt64(), 9007199254740993LL);
}

TEST(Json, IntegerAccessIsDefinedOutsideTheInt64Range) {
  // Integral doubles in range are integers; fractions and doubles past
  // int64 are not, and asInt64 saturates instead of converting out of
  // range (undefined behaviour).
  EXPECT_TRUE(parseJson("1e3")->isInt64());
  EXPECT_EQ(parseJson("1e3")->asInt64(), 1000);
  EXPECT_TRUE(parseJson("-4.0")->isInt64());
  EXPECT_FALSE(parseJson("2.5")->isInt64());
  EXPECT_FALSE(parseJson("\"7\"")->isInt64());
  EXPECT_FALSE(parseJson("1e30")->isInt64());
  EXPECT_FALSE(parseJson("9223372036854775808")->isInt64());
  EXPECT_EQ(parseJson("1e30")->asInt64(),
            std::numeric_limits<int64_t>::max());
  EXPECT_EQ(parseJson("-1e30")->asInt64(),
            std::numeric_limits<int64_t>::min());
  EXPECT_TRUE(parseJson("-9223372036854775808")->isInt64());
}

TEST(Json, RejectsMalformedInput) {
  std::string Err;
  EXPECT_FALSE(parseJson("", &Err).has_value());
  EXPECT_FALSE(parseJson("{", &Err).has_value());
  EXPECT_FALSE(parseJson("{\"a\":}", &Err).has_value());
  EXPECT_FALSE(parseJson("[1,2,]", &Err).has_value());
  EXPECT_FALSE(parseJson("{\"a\" 1}", &Err).has_value());
  EXPECT_FALSE(parseJson("tru", &Err).has_value());
  EXPECT_FALSE(parseJson("\"unterminated", &Err).has_value());
  EXPECT_FALSE(parseJson("1 2", &Err).has_value());
  EXPECT_FALSE(parseJson("{\"a\":1}x", &Err).has_value());
  EXPECT_FALSE(parseJson("\"bad \x01 control\"").has_value());
  EXPECT_FALSE(parseJson("nan").has_value());
}

TEST(Json, ErrorCarriesOffset) {
  std::string Err;
  EXPECT_FALSE(parseJson("[1, oops]", &Err).has_value());
  EXPECT_NE(Err.find("offset"), std::string::npos);
}

TEST(Json, DepthCapStopsRecursion) {
  std::string Deep(kJsonMaxDepth + 8, '[');
  Deep += std::string(kJsonMaxDepth + 8, ']');
  std::string Err;
  EXPECT_FALSE(parseJson(Deep, &Err).has_value());
  EXPECT_NE(Err.find("nesting"), std::string::npos);

  std::string Ok(kJsonMaxDepth - 1, '[');
  Ok += "1";
  Ok += std::string(kJsonMaxDepth - 1, ']');
  EXPECT_TRUE(parseJson(Ok).has_value());
}

TEST(Json, RoundTripsJsonWriterOutput) {
  std::ostringstream OS;
  JsonWriter W(OS);
  W.beginObject();
  W.field("name", std::string("padd \"quoted\"\nline"));
  W.field("count", uint64_t(123456789));
  W.field("rate", 0.125);
  W.field("ok", true);
  W.key("list");
  W.beginArray();
  W.value(int64_t(-5));
  W.value("x");
  W.endArray();
  W.endObject();

  std::string Err;
  auto V = parseJson(OS.str(), &Err);
  ASSERT_TRUE(V.has_value()) << Err;
  EXPECT_EQ(V->getString("name", ""), "padd \"quoted\"\nline");
  EXPECT_EQ(V->getInt("count", 0), 123456789);
  EXPECT_DOUBLE_EQ(V->getDouble("rate", 0), 0.125);
  EXPECT_TRUE(V->getBool("ok", false));
  ASSERT_EQ(V->find("list")->elements().size(), 2u);
  EXPECT_EQ(V->find("list")->elements()[0].asInt64(), -5);
}

TEST(Json, MemberOrderPreserved) {
  auto V = parseJson(R"({"z":1,"a":2,"m":3})");
  ASSERT_TRUE(V.has_value());
  ASSERT_EQ(V->members().size(), 3u);
  EXPECT_EQ(V->members()[0].first, "z");
  EXPECT_EQ(V->members()[1].first, "a");
  EXPECT_EQ(V->members()[2].first, "m");
}

} // namespace

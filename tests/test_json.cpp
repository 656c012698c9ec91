#include <gtest/gtest.h>

#include <string>

#include "io/json.hpp"

namespace {

using namespace lrgp::io;

TEST(Json, PrimitivesRoundTrip) {
    EXPECT_EQ(parse_json("null").isNull(), true);
    EXPECT_EQ(parse_json("true").asBool(), true);
    EXPECT_EQ(parse_json("false").asBool(), false);
    EXPECT_DOUBLE_EQ(parse_json("42").asNumber(), 42.0);
    EXPECT_DOUBLE_EQ(parse_json("-3.5e2").asNumber(), -350.0);
    EXPECT_EQ(parse_json("\"hi\"").asString(), "hi");
}

TEST(Json, DumpPrimitives) {
    EXPECT_EQ(JsonValue(nullptr).dump(), "null");
    EXPECT_EQ(JsonValue(true).dump(), "true");
    EXPECT_EQ(JsonValue(3.0).dump(), "3");
    EXPECT_EQ(JsonValue("x").dump(), "\"x\"");
}

TEST(Json, StringEscapes) {
    const JsonValue v(std::string("a\"b\\c\nd\te"));
    const std::string dumped = v.dump();
    EXPECT_EQ(parse_json(dumped).asString(), "a\"b\\c\nd\te");
}

TEST(Json, UnicodeEscapeAscii) {
    EXPECT_EQ(parse_json("\"\\u0041\"").asString(), "A");
    EXPECT_THROW((void)parse_json("\"\\u00e9\""), std::runtime_error);  // non-ASCII unsupported
}

TEST(Json, ArraysAndObjects) {
    const JsonValue v = parse_json(R"({"a": [1, 2, 3], "b": {"c": true}})");
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.at("a").asArray().size(), 3u);
    EXPECT_DOUBLE_EQ(v.at("a").asArray()[1].asNumber(), 2.0);
    EXPECT_TRUE(v.at("b").at("c").asBool());
    EXPECT_TRUE(v.has("a"));
    EXPECT_FALSE(v.has("zz"));
}

TEST(Json, EmptyContainers) {
    EXPECT_TRUE(parse_json("[]").asArray().empty());
    EXPECT_TRUE(parse_json("{}").asObject().empty());
    EXPECT_EQ(JsonValue(JsonArray{}).dump(), "[]");
    EXPECT_EQ(JsonValue(JsonObject{}).dump(), "{}");
}

TEST(Json, NestedRoundTripCompactAndPretty) {
    JsonObject inner;
    inner.emplace("x", 1.5);
    inner.emplace("y", "str,with\"stuff");
    JsonArray arr;
    arr.emplace_back(JsonValue(std::move(inner)));
    arr.emplace_back(false);
    arr.emplace_back(nullptr);
    JsonObject root;
    root.emplace("items", std::move(arr));
    const JsonValue original{std::move(root)};

    for (bool pretty : {false, true}) {
        const JsonValue reparsed = parse_json(original.dump(pretty));
        EXPECT_DOUBLE_EQ(reparsed.at("items").asArray()[0].at("x").asNumber(), 1.5);
        EXPECT_EQ(reparsed.at("items").asArray()[0].at("y").asString(), "str,with\"stuff");
        EXPECT_TRUE(reparsed.at("items").asArray()[2].isNull());
    }
}

TEST(Json, NumberPrecisionPreserved) {
    const double tricky = 0.1 + 0.2;  // 0.30000000000000004
    const JsonValue v(tricky);
    EXPECT_DOUBLE_EQ(parse_json(v.dump()).asNumber(), tricky);
}

TEST(Json, ParseErrors) {
    EXPECT_THROW((void)parse_json(""), std::runtime_error);
    EXPECT_THROW((void)parse_json("{"), std::runtime_error);
    EXPECT_THROW((void)parse_json("[1,]"), std::runtime_error);
    EXPECT_THROW((void)parse_json("tru"), std::runtime_error);
    EXPECT_THROW((void)parse_json("\"unterminated"), std::runtime_error);
    EXPECT_THROW((void)parse_json("{\"a\":1} extra"), std::runtime_error);
    EXPECT_THROW((void)parse_json("-"), std::runtime_error);
    EXPECT_THROW((void)parse_json("01x"), std::runtime_error);
}

TEST(Json, DeepNestingIsAParseError) {
    // 256 levels parse; one more, or a hostile two million, is a typed
    // parse error rather than a stack overflow.
    EXPECT_NO_THROW((void)parse_json(std::string(256, '[') + std::string(256, ']')));
    for (const std::size_t depth : {std::size_t{257}, std::size_t{2'000'000}}) {
        try {
            (void)parse_json(std::string(depth, '['));
            FAIL() << "accepted " << depth << " nested arrays";
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find("JSON parse error at byte 256"),
                      std::string::npos)
                << e.what();
        }
    }
    std::string objects;
    for (int i = 0; i < 300; ++i) objects += R"({"a":)";
    EXPECT_THROW((void)parse_json(objects), std::runtime_error);
}

TEST(Json, AsIntRejectsFractionalAndOutOfRange) {
    EXPECT_EQ(parse_json("42").asInt(), 42);
    EXPECT_EQ(parse_json("-7").asInt(), -7);
    EXPECT_EQ(parse_json("2147483647").asInt(), 2147483647);
    for (const char* bad : {"2.5", "1e300", "-1e300", "3e9", "-2147483649"})
        EXPECT_THROW((void)parse_json(bad).asInt(), std::runtime_error) << bad;
    EXPECT_THROW((void)parse_json("\"3\"").asInt(), std::runtime_error);
}

TEST(Json, TypeMismatchThrows) {
    const JsonValue v = parse_json("[1]");
    EXPECT_THROW((void)v.asObject(), std::runtime_error);
    EXPECT_THROW((void)v.asString(), std::runtime_error);
    EXPECT_THROW((void)v.at("k"), std::runtime_error);
    const JsonValue obj = parse_json("{}");
    EXPECT_THROW((void)obj.at("missing"), std::runtime_error);
}

TEST(Json, WhitespaceTolerated) {
    const JsonValue v = parse_json("  {\n\t\"a\" :\r [ 1 , 2 ]\n}  ");
    EXPECT_EQ(v.at("a").asArray().size(), 2u);
}

TEST(Json, RejectsNonFiniteOnDump) {
    EXPECT_THROW((void)JsonValue(std::numeric_limits<double>::infinity()).dump(),
                 std::runtime_error);
}

}  // namespace

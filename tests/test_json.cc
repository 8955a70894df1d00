/**
 * @file
 * Tests for the JSON value type (common/json.hh) that writes the run
 * and campaign reports and carries the service protocol: build, dump
 * and parse round trips, strict rejection of malformed documents, and
 * string escapes.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/json.hh"

using namespace r2u;


TEST(Json, BuildDumpParseRoundTrip)
{
    json::Value v = json::Value::object();
    v.set("ok", json::Value::boolean_(true));
    v.set("n", json::Value::number(int64_t{42}));
    v.set("pi", json::Value::number(3.5));
    v.set("s", json::Value::string("hi \"there\"\n"));
    json::Value arr = json::Value::array();
    arr.push(json::Value::number(int64_t{1}));
    arr.push(json::Value::null());
    v.set("a", std::move(arr));

    std::string text = v.dump();
    json::Value back;
    std::string err;
    ASSERT_TRUE(json::Value::parse(text, back, &err)) << err;
    EXPECT_TRUE(back.getBool("ok"));
    EXPECT_EQ(back.getInt("n"), 42);
    EXPECT_DOUBLE_EQ(back.getDouble("pi"), 3.5);
    EXPECT_EQ(back.getStr("s"), "hi \"there\"\n");
    ASSERT_NE(back.find("a"), nullptr);
    ASSERT_EQ(back.find("a")->arr.size(), 2u);
    EXPECT_EQ(back.find("a")->arr[0].asInt(), 1);
    EXPECT_TRUE(back.find("a")->arr[1].isNull());
    // Integral doubles must print as integers (hash strings aside,
    // counts travel as JSON numbers).
    EXPECT_NE(text.find("\"n\":42"), std::string::npos) << text;
}

TEST(Json, SetReplacesAndPreservesOrder)
{
    json::Value v = json::Value::object();
    v.set("a", json::Value::number(int64_t{1}));
    v.set("b", json::Value::number(int64_t{2}));
    v.set("a", json::Value::number(int64_t{3}));
    EXPECT_EQ(v.dump(), "{\"a\":3,\"b\":2}");
}

TEST(Json, ParseRejectsMalformedInput)
{
    json::Value out;
    std::string err;
    EXPECT_FALSE(json::Value::parse("", out, &err));
    EXPECT_FALSE(json::Value::parse("{", out, &err));
    EXPECT_FALSE(json::Value::parse("{\"a\":1,}", out, &err));
    EXPECT_FALSE(json::Value::parse("{\"a\":1} trailing", out, &err));
    EXPECT_FALSE(json::Value::parse("{\"a\":1,\"a\":2}", out, &err))
        << "duplicate keys must be rejected";
    EXPECT_FALSE(json::Value::parse("\"raw\tcontrol\"", out, &err));
    // Depth bomb: deeply nested arrays must fail, not overflow.
    std::string bomb(1000, '[');
    EXPECT_FALSE(json::Value::parse(bomb, out, &err));
}

TEST(Json, ParseHandlesEscapes)
{
    json::Value out;
    std::string err;
    ASSERT_TRUE(json::Value::parse(
        "\"a\\n\\t\\\"\\\\ \\u0041\\u00e9\"", out, &err))
        << err;
    EXPECT_EQ(out.asStr(), "a\n\t\"\\ A\xc3\xa9");
}

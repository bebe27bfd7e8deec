// Unit tests for the JSON module, including the relaxed script dialect the
// paper's Fig. 5 projection scripts use.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "json/json.hpp"

namespace dv::json {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_EQ(parse("true").as_bool(), true);
  EXPECT_EQ(parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(parse("3.25").as_number(), 3.25);
  EXPECT_DOUBLE_EQ(parse("-4e2").as_number(), -400.0);
  EXPECT_EQ(parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParsesNested) {
  const Value v = parse(R"({"a": [1, 2, {"b": "c"}], "d": {"e": null}})");
  EXPECT_EQ(v.at("a").as_array().size(), 3u);
  EXPECT_EQ(v.at("a").as_array()[2].at("b").as_string(), "c");
  EXPECT_TRUE(v.at("d").at("e").is_null());
}

TEST(Json, ObjectPreservesInsertionOrder) {
  const Value v = parse(R"({"z": 1, "a": 2, "m": 3})");
  std::vector<std::string> keys;
  for (const auto& [k, val] : v.as_object()) keys.push_back(k);
  EXPECT_EQ(keys, (std::vector<std::string>{"z", "a", "m"}));
}

TEST(Json, RelaxedDialect) {
  const Value v = parse("{ filter: { group_id : [0, 8] }, project : 'router', }");
  EXPECT_EQ(v.at("project").as_string(), "router");
  EXPECT_DOUBLE_EQ(v.at("filter").at("group_id").as_array()[1].as_number(), 8.0);
}

TEST(Json, Comments) {
  const Value v = parse("// leading\n{ a: 1 /* inline */, b: 2 }");
  EXPECT_DOUBLE_EQ(v.at("b").as_number(), 2.0);
}

TEST(Json, StringEscapes) {
  EXPECT_EQ(parse(R"("a\nb\t\"c\"\\")").as_string(), "a\nb\t\"c\"\\");
  EXPECT_EQ(parse(R"("A")").as_string(), "A");
}

TEST(Json, RoundTripDump) {
  const std::string src =
      R"({"name":"x","vals":[1,2.5,true,null],"nested":{"k":"v"}})";
  const Value v = parse(src);
  EXPECT_EQ(parse(dump(v)), v);
  EXPECT_EQ(parse(dump(v, 2)), v);  // pretty-print round trip
}

TEST(Json, Errors) {
  EXPECT_THROW(parse(""), Error);
  EXPECT_THROW(parse("{"), Error);
  EXPECT_THROW(parse("[1,"), Error);
  EXPECT_THROW(parse("{a 1}"), Error);
  EXPECT_THROW(parse("\"unterminated"), Error);
  EXPECT_THROW(parse("truex"), Error);
  EXPECT_THROW(parse("{} extra"), Error);
}

TEST(Json, ErrorHasLineInfo) {
  try {
    parse("{\n  a: 1,\n  b: }\n");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(Json, ScriptCommaSeparatedObjects) {
  // The verbatim shape of the paper's Fig. 5 scripts.
  const Value v = parse_script(R"(
    { aggregate : "group_id", maxBins : 8,
      project : "global_link",
      vmap : { color : "sat_time", size : "traffic" },
      colors : ["white", "purple"]},
    { project : "router",
      aggregate : "router_rank",
      vmap : { color : "total_sat_time", },
      colors : ["white", "steelblue"],},
    { project : "terminal",
      aggregate : ["router_port", "workload"],
      vmap: { color :"workload", size : "avg_hops", },
      colors: ["green", "orange", "brown"],}
  )");
  ASSERT_TRUE(v.is_array());
  ASSERT_EQ(v.as_array().size(), 3u);
  EXPECT_EQ(v.as_array()[0].at("project").as_string(), "global_link");
  EXPECT_EQ(v.as_array()[2].at("aggregate").as_array()[1].as_string(),
            "workload");
}

TEST(Json, ScriptSingleObject) {
  const Value v = parse_script("{a: 1}");
  ASSERT_TRUE(v.is_array());
  EXPECT_EQ(v.as_array().size(), 1u);
}

TEST(Json, AccessorsThrowOnWrongType) {
  const Value v = parse("{\"a\": 1}");
  EXPECT_THROW(v.as_array(), Error);
  EXPECT_THROW(v.at("missing"), Error);
  EXPECT_THROW(v.at("a").as_string(), Error);
  EXPECT_DOUBLE_EQ(v.get_number("a", -1), 1.0);
  EXPECT_DOUBLE_EQ(v.get_number("b", -1), -1.0);
  EXPECT_EQ(v.get_string("a", "dflt"), "dflt");  // wrong type -> default
}

TEST(Json, NonFiniteNumbersSerializeAsNull) {
  EXPECT_EQ(dump(Value(std::nan(""))), "null");
}

// ------------------------------------------------------ Reader / Writer

/// Doubles across the whole range: integers, fractions, tiny and huge
/// magnitudes, and raw bit patterns.
std::vector<double> sample_doubles() {
  std::vector<double> out = {0.0,    -0.0,   1.0,       -1.0,    0.1,
                             1e-7,   1e14,   1e15 - 1,  1e15,    -1e15,
                             1e16,   1e20,   123.456,   2.5e-310, 1e308,
                             1.0 / 3, -2.0 / 3, 9007199254740993.0};
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 4000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    double d = 0.0;
    if (i % 4 == 0) {
      std::memcpy(&d, &x, sizeof(d));
      if (!std::isfinite(d)) continue;
    } else if (i % 4 == 1) {
      d = static_cast<double>(static_cast<std::int64_t>(x >> (x % 60)));
    } else if (i % 4 == 2) {
      d = static_cast<double>(static_cast<float>(x % 100000) / 7.0f);
    } else {
      d = static_cast<double>(x % 1000000) * 1e-3;
    }
    out.push_back(d);
  }
  return out;
}

TEST(JsonWriter, NumbersFollowTheIntegerOrPercent17gRule) {
  for (const double d : sample_doubles()) {
    char ref[40];
    if (d == std::floor(d) && std::fabs(d) < 1e15) {
      std::snprintf(ref, sizeof(ref), "%lld", static_cast<long long>(d));
    } else {
      std::snprintf(ref, sizeof(ref), "%.17g", d);
    }
    Writer w;
    w.number(d);
    EXPECT_EQ(w.take(), ref) << d;
  }
  Writer w;
  w.number(std::nan("")).raw(',').number(-HUGE_VAL);
  EXPECT_EQ(w.take(), "null,null");
}

TEST(JsonWriter, StringsEscapeQuotesBackslashesAndControls) {
  Writer w;
  w.string(std::string("a\"b\\c\n\t\r\b\f\x01\x1f/\xc3\xa9", 16));
  EXPECT_EQ(w.take(),
            R"("a\"b\\c\n\t\r\b\f\u0001\u001f/)" "\xc3\xa9" R"(\u0000")");
}

TEST(JsonReader, NumbersReadAsStrtodReadsThem) {
  std::vector<std::string> tokens = {
      "0",     "-0",   "+1",     "0001",   "1.",       "-.5",    "1e-400",
      "1e400", "-1e400", "1E+05", "4e-320", "123456789012345",
      "1234567890123456789", "9007199254740993", "0.1", "+0"};
  for (const double d : sample_doubles()) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    tokens.emplace_back(buf);
    std::snprintf(buf, sizeof(buf), "%.9g", d);
    tokens.emplace_back(buf);
  }
  for (const auto& tok : tokens) {
    Reader r(tok);
    const double got = r.number();
    r.finish();
    const double want = std::strtod(tok.c_str(), nullptr);
    EXPECT_EQ(std::memcmp(&got, &want, sizeof(got)), 0)
        << tok << ": " << got << " vs " << want;
  }
  for (const char* bad : {"-", "+", "1e", "1.2.3", "--1", "1e+"}) {
    Reader r(bad);
    EXPECT_THROW(r.number(), Error) << bad;
  }
}

TEST(JsonReader, PullsContainersWithCommentsAndTrailingCommas) {
  Reader r("// rows\n{ rows: [[1, 2,], /* none */ [], [3,],],\n"
           "  'name': \"x\\ty\", extra: {a: [null, true, {}]}, }");
  std::vector<std::vector<double>> rows;
  std::string name, key;
  r.begin_object();
  for (std::size_t i = 0; r.next_key(i, key); ++i) {
    if (key == "rows") {
      r.begin_array();
      for (std::size_t j = 0; r.next_item(j); ++j) {
        auto& row = rows.emplace_back();
        r.begin_array();
        for (std::size_t k = 0; r.next_item(k); ++k) row.push_back(r.number());
      }
    } else if (key == "name") {
      name = r.string();
    } else {
      r.skip_value();
    }
  }
  r.finish();
  EXPECT_EQ(rows, (std::vector<std::vector<double>>{{1, 2}, {}, {3}}));
  EXPECT_EQ(name, "x\ty");
}

TEST(JsonReader, ErrorsNameLineAndColumn) {
  Reader r("[1,\n  2,\n  x]");
  r.begin_array();
  EXPECT_TRUE(r.next_item(0));
  r.number();
  EXPECT_TRUE(r.next_item(1));
  r.number();
  EXPECT_TRUE(r.next_item(2));
  try {
    r.number();
    FAIL() << "expected an error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3, column 3"),
              std::string::npos)
        << e.what();
  }
  // Hostile nesting fails as an error, not a stack overflow.
  const std::string deep = std::string(100000, '[') + std::string(100000, ']');
  EXPECT_THROW(parse(deep), Error);
  EXPECT_THROW(Reader(deep).skip_value(), Error);
  const std::string ok = std::string(Reader::kMaxDepth, '[') +
                         std::string(Reader::kMaxDepth, ']');
  EXPECT_NO_THROW(parse(ok));
  for (const char* bad : {"[1 2]", "{a 1}", "[1,,2]", "{\"a\":1,,}", "[tru]",
                          "/* open", "[\"\\q\"]", "{'a':[}"}) {
    Reader rb(bad);
    EXPECT_THROW(rb.skip_value(), Error) << bad;
  }
}

}  // namespace
}  // namespace dv::json

// Unit tests for the common substrate: RNG, tables, JSON.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace rats {
namespace {

// ---------------------------------------------------------------- Rng

TEST(Rng, IsDeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DiffersAcrossSeeds) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformIsInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform(-3.0, 5.5);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 5.5);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(99);
  const int draws = 100000;
  double sum = 0;
  for (int i = 0; i < draws; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / draws, 0.5, 0.01);
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto x = rng.uniform_int(2, 6);
    EXPECT_GE(x, 2);
    EXPECT_LE(x, 6);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 5u);  // all five values hit in 1000 draws
}

TEST(Rng, UniformIntSingletonRange) {
  Rng rng(11);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(4, 4), 4);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(5);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, SplitStreamsAreIndependent) {
  const Rng base(42);
  Rng a = base.split(1);
  Rng b = base.split(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, SplitIsReproducible) {
  const Rng base(42);
  Rng a = base.split(17);
  Rng b = base.split(17);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, SplitDoesNotAdvanceParent) {
  Rng a(42);
  Rng b(42);
  (void)a.split(3);
  EXPECT_EQ(a(), b());
}

// ------------------------------------------------------------- table

TEST(Table, RendersAlignedText) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "2"});
  const std::string text = t.to_text(0);
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("longer"), std::string::npos);
  EXPECT_NE(text.find("----"), std::string::npos);
}

TEST(Table, RejectsMismatchedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, CsvEscapesSpecialCharacters) {
  Table t({"a"});
  t.add_row({"hello, \"world\""});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"hello, \"\"world\"\"\""), std::string::npos);
}

TEST(Table, CsvRoundTripPlainCells) {
  Table t({"x", "y"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.to_csv(), "x,y\n1,2\n");
}

TEST(Fmt, FormatsDigits) {
  EXPECT_EQ(fmt(1.23456, 2), "1.23");
  EXPECT_EQ(fmt(1.0, 0), "1");
}

TEST(Fmt, FormatsPercent) { EXPECT_EQ(fmt_percent(0.125, 1), "12.5%"); }

// ------------------------------------------------------------- units

TEST(Units, GigabitInBytes) { EXPECT_DOUBLE_EQ(kGigabitPerSecond, 125e6); }

TEST(Units, ElementSize) { EXPECT_DOUBLE_EQ(kBytesPerElement, 8.0); }

// --------------------------------------------------------- RATS_REQUIRE

TEST(Error, RequireThrowsWithContext) {
  try {
    RATS_REQUIRE(1 == 2, "impossible arithmetic");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("impossible arithmetic"),
              std::string::npos);
  }
}

TEST(Error, RequirePassesSilently) {
  EXPECT_NO_THROW(RATS_REQUIRE(true, "fine"));
}

// ------------------------------------------------------- json \u escapes

TEST(Json, UnicodeEscapeDecodesBmpScalars) {
  EXPECT_EQ(json::parse("\"\\u0041\"").text, "A");
  EXPECT_EQ(json::parse("\"\\u00e9\"").text, "\xC3\xA9");      // é
  EXPECT_EQ(json::parse("\"\\u20AC\"").text, "\xE2\x82\xAC");  // €
}

TEST(Json, SurrogatePairDecodesToFourByteUtf8) {
  // U+1F600 as \uD83D\uDE00 must come out as one 4-byte sequence, not
  // two UTF-8-encoded surrogate code points.
  EXPECT_EQ(json::parse("\"\\uD83D\\uDE00\"").text, "\xF0\x9F\x98\x80");
  EXPECT_EQ(json::parse("\"x\\uD800\\uDC00y\"").text,
            "x\xF0\x90\x80\x80y");  // U+10000, the pair-range floor
}

TEST(Json, LoneSurrogatesAreRejected) {
  EXPECT_THROW(json::parse("\"\\uD83D\""), Error);        // high, then EOS
  EXPECT_THROW(json::parse("\"\\uD83D tail\""), Error);   // high, no pair
  EXPECT_THROW(json::parse("\"\\uD83D\\u0041\""), Error); // high + non-low
  EXPECT_THROW(json::parse("\"\\uDE00\""), Error);        // unpaired low
}

TEST(Json, DeepNestingIsRejected) {
  // One recursion per bracket: a hostile line must fail cleanly, not
  // overflow the stack.
  EXPECT_THROW(json::parse(std::string(100000, '[')), Error);
  EXPECT_THROW(json::parse(std::string(1000000, '[')), Error);
  EXPECT_THROW(json::parse(std::string(257, '[') + std::string(257, ']')),
               Error);
  EXPECT_NO_THROW(
      json::parse(std::string(256, '[') + std::string(256, ']')));
  // Report JSON nests 5 levels deep.
  const json::Value v = json::parse("{\"a\":[{\"b\":[[1]]}]}");
  EXPECT_EQ(v.get("a")->items[0].get("b")->items[0].items[0].number, 1.0);
}

}  // namespace
}  // namespace rats

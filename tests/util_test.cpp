// Unit tests for the util module: rng, hash, stats, options, table.
#include <gtest/gtest.h>

#include <sstream>

#include "sdrmpi/util/hash.hpp"
#include "sdrmpi/util/options.hpp"
#include "sdrmpi/util/rng.hpp"
#include "sdrmpi/util/stats.hpp"
#include "sdrmpi/util/table.hpp"

namespace sdrmpi::util {
namespace {

// ---------------------------------------------------------------- rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a() == b() ? 1 : 0;
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng r(123);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) sum += r.uniform();
  EXPECT_NEAR(sum / 20000, 0.5, 0.01);
}

TEST(Rng, BelowStaysBelow) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, BelowCoversAllResidues) {
  Rng r(9);
  std::array<int, 5> seen{};
  for (int i = 0; i < 500; ++i) ++seen[r.below(5)];
  for (int count : seen) EXPECT_GT(count, 0);
}

TEST(Rng, RangeInclusive) {
  Rng r(11);
  bool lo = false, hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.range(3, 6);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 6);
    lo = lo || v == 3;
    hi = hi || v == 6;
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(Rng, SplitmixKnownProgression) {
  std::uint64_t s1 = 0, s2 = 0;
  EXPECT_EQ(splitmix64(s1), splitmix64(s2));
  EXPECT_EQ(s1, s2);
  EXPECT_NE(splitmix64(s1), splitmix64(s2) + 1);
}

// ---------------------------------------------------------------- hash

TEST(Hash, Fnv1aEmptyIsOffset) {
  EXPECT_EQ(fnv1a({}), kFnvOffset);
}

TEST(Hash, Fnv1aDistinguishesContent) {
  const std::byte a[] = {std::byte{1}, std::byte{2}};
  const std::byte b[] = {std::byte{2}, std::byte{1}};
  EXPECT_NE(fnv1a(a), fnv1a(b));
}

TEST(Hash, Fnv1aResumable) {
  const std::byte data[] = {std::byte{1}, std::byte{2}, std::byte{3},
                            std::byte{4}};
  const auto whole = fnv1a(data);
  const auto part = fnv1a(std::span<const std::byte>(data).subspan(2),
                          fnv1a(std::span<const std::byte>(data).first(2)));
  EXPECT_EQ(whole, part);
}

TEST(Hash, CombineOrderDependent) {
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
}

TEST(Hash, ChecksumDeterministic) {
  Checksum a, b;
  for (int i = 0; i < 10; ++i) {
    a.add_double(i * 1.5);
    b.add_double(i * 1.5);
  }
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(Hash, ChecksumSensitiveToOrder) {
  Checksum a, b;
  a.add_u64(1);
  a.add_u64(2);
  b.add_u64(2);
  b.add_u64(1);
  EXPECT_NE(a.digest(), b.digest());
}

TEST(Hash, ChecksumDistinguishesNegativeZero) {
  Checksum a, b;
  a.add_double(0.0);
  b.add_double(-0.0);
  EXPECT_NE(a.digest(), b.digest());  // bit-level, not value-level
}

TEST(Hash, AddRangeMatchesBytes) {
  const double xs[] = {1.0, 2.0, 3.0};
  Checksum a, b;
  a.add_range(std::span<const double>(xs));
  b.add_bytes(std::as_bytes(std::span<const double>(xs)));
  EXPECT_EQ(a.digest(), b.digest());
}

// ---------------------------------------------------------------- stats

TEST(Stats, OverheadPercent) {
  EXPECT_DOUBLE_EQ(overhead_percent(100.0, 105.0), 5.0);
  EXPECT_DOUBLE_EQ(overhead_percent(100.0, 95.0), -5.0);
  EXPECT_DOUBLE_EQ(overhead_percent(0.0, 10.0), 0.0);  // guarded
}

TEST(Stats, FormatDouble) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(2.0, 0), "2");
}

// ---------------------------------------------------------------- options

TEST(Options, KeyEqualsValue) {
  const char* argv[] = {"prog", "--ranks=16", "--label=test"};
  Options o(3, argv);
  EXPECT_EQ(o.get_int("ranks", 0), 16);
  EXPECT_EQ(o.get_string("label", ""), "test");
}

TEST(Options, KeySpaceValue) {
  const char* argv[] = {"prog", "--ranks", "8"};
  Options o(3, argv);
  EXPECT_EQ(o.get_int("ranks", 0), 8);
}

TEST(Options, BareFlagIsTrue) {
  const char* argv[] = {"prog", "--verbose"};
  Options o(2, argv);
  EXPECT_TRUE(o.get_bool("verbose", false));
  EXPECT_TRUE(o.has("verbose"));
}

TEST(Options, BoolSpellings) {
  const char* argv[] = {"prog", "--a=false", "--b=0", "--c=yes", "--d=on"};
  Options o(5, argv);
  EXPECT_FALSE(o.get_bool("a", true));
  EXPECT_FALSE(o.get_bool("b", true));
  EXPECT_TRUE(o.get_bool("c", false));
  EXPECT_TRUE(o.get_bool("d", false));
}

TEST(Options, MissingUsesFallback) {
  Options o;
  EXPECT_EQ(o.get_int("nope", 7), 7);
  EXPECT_EQ(o.get_double("nope", 1.5), 1.5);
  EXPECT_EQ(o.get_string("nope", "x"), "x");
  EXPECT_FALSE(o.has("nope"));
}

TEST(Options, IntList) {
  const char* argv[] = {"prog", "--sizes=1,8,64"};
  Options o(2, argv);
  const auto v = o.get_int_list("sizes", {});
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 1);
  EXPECT_EQ(v[2], 64);
}

TEST(Options, Positional) {
  const char* argv[] = {"prog", "input.txt", "--k=v", "more"};
  Options o(4, argv);
  ASSERT_EQ(o.positional().size(), 2u);
  EXPECT_EQ(o.positional()[0], "input.txt");
  EXPECT_EQ(o.positional()[1], "more");
}

TEST(Options, SetOverrides) {
  Options o;
  o.set("k", "12");
  EXPECT_EQ(o.get_int("k", 0), 12);
}

TEST(Options, DoubleParsing) {
  const char* argv[] = {"prog", "--scale=2.5"};
  Options o(2, argv);
  EXPECT_DOUBLE_EQ(o.get_double("scale", 0.0), 2.5);
}

/// Expects `get` to throw std::invalid_argument naming --key=value.
template <class Get>
void expect_malformed(Get get, const std::string& flag) {
  try {
    (void)get();
    FAIL() << "expected std::invalid_argument for " << flag;
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(flag), std::string::npos) << msg;
  }
}

TEST(Options, IntParsesTheWholeToken) {
  Options o;
  o.set("pool", "8");
  EXPECT_EQ(o.get_int("pool", 0), 8);
  o.set("pool", "-3");
  EXPECT_EQ(o.get_int("pool", 0), -3);
  o.set("pool", "");  // --pool with no value
  EXPECT_EQ(o.get_int("pool", 5), 5);
  o.set("pool", "8x");
  expect_malformed([&] { return o.get_int("pool", 0); }, "--pool=8x");
  o.set("pool", "eight");
  expect_malformed([&] { return o.get_int("pool", 0); }, "--pool=eight");
  o.set("pool", "2.5");
  expect_malformed([&] { return o.get_int("pool", 0); }, "--pool=2.5");
  o.set("pool", "99999999999999999999");  // out of int64 range
  expect_malformed([&] { return o.get_int("pool", 0); },
                   "--pool=99999999999999999999");
}

TEST(Options, DoubleParsesTheWholeToken) {
  Options o;
  o.set("scale", "1e-3");
  EXPECT_DOUBLE_EQ(o.get_double("scale", 0.0), 1e-3);
  o.set("scale", "");
  EXPECT_EQ(o.get_double("scale", 1.5), 1.5);
  o.set("scale", "2.5s");
  expect_malformed([&] { return o.get_double("scale", 0.0); },
                   "--scale=2.5s");
  o.set("scale", "half");
  expect_malformed([&] { return o.get_double("scale", 0.0); },
                   "--scale=half");
}

TEST(Options, UnknownBoolSpellingIsRejected) {
  Options o;
  o.set("check", "true");
  EXPECT_TRUE(o.get_bool("check", false));
  o.set("check", "");  // bare --check
  EXPECT_TRUE(o.get_bool("check", false));
  o.set("check", "ture");
  expect_malformed([&] { return o.get_bool("check", false); },
                   "--check=ture");
  o.set("check", "TRUE");
  expect_malformed([&] { return o.get_bool("check", false); },
                   "--check=TRUE");
  o.set("check", "1 ");
  expect_malformed([&] { return o.get_bool("check", false); },
                   "--check=1 ");
}

TEST(Options, IntListParsesEveryToken) {
  Options o;
  o.set("sizes", "1,-8,64");
  EXPECT_EQ(o.get_int_list("sizes", {}),
            (std::vector<std::int64_t>{1, -8, 64}));
  o.set("sizes", "");
  EXPECT_EQ(o.get_int_list("sizes", {7}), std::vector<std::int64_t>{7});
  o.set("sizes", "1,8k,64");
  expect_malformed([&] { return o.get_int_list("sizes", {}); },
                   "--sizes=1,8k,64");
  o.set("sizes", "1,,64");
  expect_malformed([&] { return o.get_int_list("sizes", {}); },
                   "--sizes=1,,64");
  o.set("sizes", "1,8,");
  expect_malformed([&] { return o.get_int_list("sizes", {}); },
                   "--sizes=1,8,");
}

TEST(Options, ExpectAcceptsKnownFlags) {
  const char* argv[] = {"prog", "--ranks=4", "--json", "positional"};
  Options o(4, argv);
  EXPECT_NO_THROW(o.expect({"ranks", "json", "pool"}));
}

TEST(Options, ExpectRejectsUnknownFlagWithAcceptedList) {
  const char* argv[] = {"prog", "--pol=8"};  // typo'd --pool
  Options o(2, argv);
  try {
    o.expect({"pool", "json"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--pol"), std::string::npos) << msg;
    EXPECT_NE(msg.find("--pool"), std::string::npos) << msg;
    EXPECT_NE(msg.find("--json"), std::string::npos) << msg;
  }
}

TEST(Options, ExpectWithEmptyAcceptedRejectsAnyFlag) {
  const char* argv[] = {"prog", "--anything"};
  Options o(2, argv);
  EXPECT_THROW(o.expect({}), std::invalid_argument);
  EXPECT_NO_THROW(Options(1, argv).expect({}));
}

// ---------------------------------------------------------------- table

TEST(Table, RendersAligned) {
  Table t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"long-name", "12345"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("| long-name"), std::string::npos);
  EXPECT_NE(out.find("12345"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsArityMismatch) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

}  // namespace
}  // namespace sdrmpi::util

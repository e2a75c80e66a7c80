#include "common/config.hpp"

#include <gtest/gtest.h>

#include <string>

namespace sst {
namespace {

TEST(ConfigParse, FromArgsBasic) {
  auto cfg = Config::from_args({"a=1", "b=hello", "c=3.5"});
  ASSERT_TRUE(cfg.ok());
  ConfigReader in(cfg.value());
  EXPECT_EQ(in.get_int("a", 0), 1);
  EXPECT_EQ(cfg.value().get_string("b", ""), "hello");
  EXPECT_DOUBLE_EQ(in.get_double("c", 0.0), 3.5);
  EXPECT_TRUE(in.status().ok());
}

TEST(ConfigParse, FromArgsRejectsMissingEquals) {
  EXPECT_FALSE(Config::from_args({"novalue"}).ok());
}

TEST(ConfigParse, FromArgsRejectsEmptyKey) {
  EXPECT_FALSE(Config::from_args({"=5"}).ok());
}

TEST(ConfigParse, LaterValueWins) {
  auto cfg = Config::from_args({"a=1", "a=2"});
  ASSERT_TRUE(cfg.ok());
  EXPECT_EQ(ConfigReader(cfg.value()).get_int("a", 0), 2);
}

TEST(ConfigParse, FromTextWithCommentsAndBlanks) {
  auto cfg = Config::from_text("# header\n a = 1 \n\nb=two # trailing\n");
  ASSERT_TRUE(cfg.ok());
  EXPECT_EQ(ConfigReader(cfg.value()).get_int("a", 0), 1);
  EXPECT_EQ(cfg.value().get_string("b", ""), "two");
}

TEST(ConfigParse, FromTextRejectsGarbage) {
  EXPECT_FALSE(Config::from_text("justaword\n").ok());
}

TEST(ConfigGetters, MissingKeyReturnsFallback) {
  Config cfg;
  ConfigReader in(cfg);
  EXPECT_EQ(in.get_int("missing", 42), 42);
  EXPECT_EQ(cfg.get_string("missing", "x"), "x");
  EXPECT_TRUE(in.get_bool("missing", true));
  EXPECT_EQ(in.get_bytes("missing", 7), 7u);
  EXPECT_EQ(in.get_duration("missing", 9), 9u);
  EXPECT_TRUE(in.status().ok());
}

std::string error_of(const ConfigReader& in) {
  return in.status().ok() ? std::string("<ok>") : in.status().error().message;
}

TEST(ConfigGetters, MalformedValueIsErrorNamingKeyAndValue) {
  Config cfg;
  cfg.set("i", "12x");
  cfg.set("d", "abc");
  cfg.set("b", "maybe");
  cfg.set("size", "5Q");
  cfg.set("t", "5h");
  ConfigReader ints(cfg);
  EXPECT_EQ(ints.get_int("i", -1), -1);
  EXPECT_EQ(error_of(ints), "i=12x: not an integer");
  ConfigReader doubles(cfg);
  EXPECT_EQ(doubles.get_double("d", 0.5), 0.5);
  EXPECT_EQ(error_of(doubles), "d=abc: not a number");
  ConfigReader bools(cfg);
  EXPECT_TRUE(bools.get_bool("b", true));
  EXPECT_EQ(error_of(bools), "b=maybe: not a boolean: 'maybe'");
  ConfigReader sizes(cfg);
  EXPECT_EQ(sizes.get_bytes("size", 3), 3u);
  EXPECT_EQ(error_of(sizes), "size=5Q: unknown size suffix: 'Q'");
  ConfigReader times(cfg);
  EXPECT_EQ(times.get_duration("t", 4), 4u);
  EXPECT_EQ(error_of(times), "t=5h: unknown duration suffix: 'h'");
}

TEST(ConfigGetters, ReaderKeepsFirstMalformedValue) {
  Config cfg;
  cfg.set("good", "4");
  cfg.set("bad", "x1");
  cfg.set("worse", "y2");
  ConfigReader in(cfg);
  EXPECT_EQ(in.get_int("good", 0), 4);
  EXPECT_TRUE(in.status().ok());
  EXPECT_EQ(in.get_int("bad", 7), 7);
  EXPECT_EQ(in.get_int("worse", 8), 8);
  EXPECT_EQ(error_of(in), "bad=x1: not an integer");
}

TEST(ConfigGetters, Contains) {
  Config cfg;
  cfg.set("k", "v");
  EXPECT_TRUE(cfg.contains("k"));
  EXPECT_FALSE(cfg.contains("nope"));
}

TEST(ConfigBytes, PlainNumber) {
  EXPECT_EQ(Config::parse_bytes("4096").value(), 4096u);
}

TEST(ConfigBytes, KiloMegaGiga) {
  EXPECT_EQ(Config::parse_bytes("64K").value(), 64 * KiB);
  EXPECT_EQ(Config::parse_bytes("8M").value(), 8 * MiB);
  EXPECT_EQ(Config::parse_bytes("2G").value(), 2 * GiB);
}

TEST(ConfigBytes, SuffixVariantsAndCase) {
  EXPECT_EQ(Config::parse_bytes("1kb").value(), KiB);
  EXPECT_EQ(Config::parse_bytes("1KiB").value(), KiB);
  EXPECT_EQ(Config::parse_bytes("3mb").value(), 3 * MiB);
}

TEST(ConfigBytes, FractionalValue) {
  EXPECT_EQ(Config::parse_bytes("0.5M").value(), 512 * KiB);
}

TEST(ConfigBytes, RejectsNegative) { EXPECT_FALSE(Config::parse_bytes("-5K").ok()); }

TEST(ConfigBytes, RejectsUnknownSuffix) { EXPECT_FALSE(Config::parse_bytes("5Q").ok()); }

TEST(ConfigBytes, RejectsEmpty) { EXPECT_FALSE(Config::parse_bytes("").ok()); }

TEST(ConfigDuration, Units) {
  EXPECT_EQ(Config::parse_duration("5").value(), 5u);
  EXPECT_EQ(Config::parse_duration("5ns").value(), 5u);
  EXPECT_EQ(Config::parse_duration("3us").value(), usec(3));
  EXPECT_EQ(Config::parse_duration("7ms").value(), msec(7));
  EXPECT_EQ(Config::parse_duration("2s").value(), sec(2));
}

TEST(ConfigDuration, Fractional) {
  EXPECT_EQ(Config::parse_duration("1.5ms").value(), usec(1500));
}

TEST(ConfigDuration, RejectsUnknownSuffix) {
  EXPECT_FALSE(Config::parse_duration("5h").ok());
}

TEST(ConfigBool, Truthy) {
  for (const char* v : {"1", "true", "yes", "on", "TRUE", "Yes"}) {
    EXPECT_TRUE(Config::parse_bool(v).value()) << v;
  }
}

TEST(ConfigBool, Falsy) {
  for (const char* v : {"0", "false", "no", "off", "FALSE"}) {
    EXPECT_FALSE(Config::parse_bool(v).value()) << v;
  }
}

TEST(ConfigBool, RejectsOther) { EXPECT_FALSE(Config::parse_bool("maybe").ok()); }

TEST(ConfigChecked, PresentKeyParses) {
  Config cfg;
  cfg.set("size", "16M");
  cfg.set("t", "10ms");
  ConfigReader in(cfg);
  EXPECT_EQ(in.get_bytes("size", 0), 16 * MiB);
  EXPECT_EQ(in.get_duration("t", 0), msec(10));
  EXPECT_TRUE(in.status().ok());
}

}  // namespace
}  // namespace sst

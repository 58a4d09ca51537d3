#include "util/flags.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace cpa {
namespace {

Flags MustParse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "binary");
  auto result =
      Flags::Parse(static_cast<int>(argv.size()), const_cast<char**>(argv.data()));
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.value();
}

TEST(FlagsTest, EqualsSyntax) {
  const Flags flags = MustParse({"--items=200", "--rate=0.5", "--name=image"});
  EXPECT_EQ(flags.GetInt("items", 0), 200);
  EXPECT_DOUBLE_EQ(flags.GetDouble("rate", 0.0), 0.5);
  EXPECT_EQ(flags.GetString("name", ""), "image");
}

TEST(FlagsTest, SpaceSyntax) {
  const Flags flags = MustParse({"--items", "77", "--name", "topic"});
  EXPECT_EQ(flags.GetInt("items", 0), 77);
  EXPECT_EQ(flags.GetString("name", ""), "topic");
}

TEST(FlagsTest, BareBooleanFlag) {
  const Flags flags = MustParse({"--verbose", "--quick"});
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_TRUE(flags.GetBool("quick", false));
  EXPECT_FALSE(flags.GetBool("absent", false));
}

TEST(FlagsTest, ExplicitBooleanValues) {
  const Flags flags = MustParse({"--a=true", "--b=false", "--c=1", "--d=no"});
  EXPECT_TRUE(flags.GetBool("a", false));
  EXPECT_FALSE(flags.GetBool("b", true));
  EXPECT_TRUE(flags.GetBool("c", false));
  EXPECT_FALSE(flags.GetBool("d", true));
}

TEST(FlagsTest, FallbacksWhenAbsentOrMalformed) {
  const Flags flags = MustParse({"--items=notanumber", "--rate=fast", "--quick=maybe"});
  EXPECT_EQ(flags.GetInt("items", 9), 9);
  EXPECT_EQ(flags.GetInt("missing", 5), 5);
  EXPECT_DOUBLE_EQ(flags.GetDouble("missing", 2.5), 2.5);
  EXPECT_DOUBLE_EQ(flags.GetDouble("rate", 0.5), 0.5);
  EXPECT_TRUE(flags.GetBool("quick", true));
  // `CheckAllRead` turns each malformed value into a failure that names it.
  const Status bad = flags.CheckAllRead();
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
  for (const char* named : {"--items=notanumber", "--rate=fast", "--quick=maybe"}) {
    EXPECT_NE(bad.message().find(named), std::string::npos) << bad.ToString();
  }
}

TEST(FlagsTest, HasReflectsPresence) {
  const Flags flags = MustParse({"--x=1"});
  EXPECT_TRUE(flags.Has("x"));
  EXPECT_FALSE(flags.Has("y"));
}

TEST(FlagsTest, PositionalArgumentIsError) {
  std::vector<const char*> argv = {"binary", "positional"};
  const auto result =
      Flags::Parse(static_cast<int>(argv.size()), const_cast<char**>(argv.data()));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(FlagsTest, CheckAllReadNamesEveryUnreadFlag) {
  const Flags flags =
      MustParse({"--scale=0.08", "--batches", "3", "--forgetting-rate=0.9", "--quick"});
  EXPECT_DOUBLE_EQ(flags.GetDouble("scale", 1.0), 0.08);
  EXPECT_EQ(flags.GetInt("batches", 1), 3);
  const Status unread = flags.CheckAllRead();
  EXPECT_EQ(unread.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(unread.message().find("--forgetting-rate"), std::string::npos)
      << unread.ToString();
  EXPECT_NE(unread.message().find("--quick"), std::string::npos) << unread.ToString();
  EXPECT_EQ(unread.message().find("--scale"), std::string::npos) << unread.ToString();
  // Every accessor counts as a read, `Has` included.
  EXPECT_TRUE(flags.Has("forgetting-rate"));
  EXPECT_FALSE(flags.GetBool("quick", false) && flags.GetBool("absent", false));
  EXPECT_TRUE(flags.CheckAllRead().ok());
}

TEST(FlagsTest, CheckAllReadNamesUnknownFlagsAndBadValuesTogether) {
  const Flags flags =
      MustParse({"--methods", "--num-threads", "two", "--transport", "json"});
  EXPECT_TRUE(flags.GetBool("methods", false));
  EXPECT_EQ(flags.GetInt("num-threads", 1), 1);
  const Status bad = flags.CheckAllRead();
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.message().find("--transport"), std::string::npos) << bad.ToString();
  EXPECT_NE(bad.message().find("--num-threads=two"), std::string::npos) << bad.ToString();
  EXPECT_EQ(bad.message().find("--methods"), std::string::npos) << bad.ToString();
}

TEST(FlagsTest, GetIntInRangeRefusesValuesOutside) {
  // The bounds `cpa_server` reads --num-threads and --port with: a negative
  // value must not wrap through an unsigned cast, and 70000 must not wrap
  // into a 16-bit port.
  struct Case {
    const char* value;
    long long min;
    long long max;
    bool accepted;
  };
  const Case cases[] = {
      {"-1", 1, 1024, false},
      {"0", 1, 1024, false},
      {"70000", 1, 1024, false},
      {"-1", 0, 65535, false},
      {"0", 0, 65535, true},
      {"70000", 0, 65535, false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.value);
    const Flags flags = MustParse({"--n", c.value});
    EXPECT_EQ(flags.GetIntInRange("n", 7, c.min, c.max), c.accepted ? 0 : 7);
    const Status status = flags.CheckAllRead();
    EXPECT_EQ(status.ok(), c.accepted) << status.ToString();
    if (!c.accepted) {
      EXPECT_NE(status.message().find(std::string("--n=") + c.value), std::string::npos)
          << status.ToString();
    }
  }
  const Flags absent = MustParse({});
  EXPECT_EQ(absent.GetIntInRange("n", 7, 1, 1024), 7);
  EXPECT_TRUE(absent.CheckAllRead().ok());
}

TEST(FlagsTest, CheckAllReadPassesWithNoFlags) {
  EXPECT_TRUE(MustParse({}).CheckAllRead().ok());
}

TEST(FlagsTest, NoArgumentsIsEmptyAndOk) {
  std::vector<const char*> argv = {"binary"};
  const auto result =
      Flags::Parse(static_cast<int>(argv.size()), const_cast<char**>(argv.data()));
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().Has("anything"));
}

}  // namespace
}  // namespace cpa

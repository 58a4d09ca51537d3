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
  const Flags flags = MustParse({"--items=notanumber"});
  EXPECT_EQ(flags.GetInt("items", 9), 9);
  EXPECT_EQ(flags.GetInt("missing", 5), 5);
  EXPECT_DOUBLE_EQ(flags.GetDouble("missing", 2.5), 2.5);
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

#include "util/flags.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

namespace hars {
namespace flags {
namespace {

/// Parses `args` (argv[0] is supplied) with captured output streams.
struct Parsed {
  Status status;
  std::string out;
  std::string err;
};

Parsed parse(Parser& cli, std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"tool"};
  argv.insert(argv.end(), args);
  std::ostringstream out;
  std::ostringstream err;
  const Status status =
      cli.parse(static_cast<int>(argv.size()), argv.data(), out, err);
  return {status, out.str(), err.str()};
}

struct Values {
  bool on = false;
  int count = 0;
  double ratio = 0.0;
  std::uint64_t seed = 0;
  std::string name;
  std::vector<int> ints;
  std::vector<double> doubles;
  std::vector<std::uint64_t> seeds;
  std::vector<std::string> names;
};

Parser declare(Values* v) {
  Parser cli("tool", "[options]");
  cli.flag("--on", &v->on, "a switch")
      .flag("--count N", &v->count, "an int")
      .flag("--ratio X", &v->ratio, "a double")
      .flag("--seed N", &v->seed, "an unsigned 64-bit integer")
      .flag("--name S", &v->name, "a string")
      .flag("--int N", &v->ints, "repeatable int")
      .flag("--double X", &v->doubles, "repeatable double")
      .flag("--useed N", &v->seeds, "repeatable unsigned")
      .flag("--str S", &v->names, "repeatable string");
  return cli;
}

TEST(Flags, EveryTypeAsSeparateValue) {
  Values v;
  Parser cli = declare(&v);
  const Parsed run =
      parse(cli, {"--on", "--count", "-3", "--ratio", "0.25", "--seed",
                  "18446744073709551615", "--name", "swaptions"});
  ASSERT_EQ(run.status, Status::kOk) << run.err;
  EXPECT_TRUE(v.on);
  EXPECT_EQ(v.count, -3);
  EXPECT_DOUBLE_EQ(v.ratio, 0.25);
  EXPECT_EQ(v.seed, UINT64_C(18446744073709551615));
  EXPECT_EQ(v.name, "swaptions");
  EXPECT_TRUE(run.out.empty());
  EXPECT_TRUE(run.err.empty());
}

TEST(Flags, EveryTypeWithEquals) {
  Values v;
  Parser cli = declare(&v);
  const Parsed run =
      parse(cli, {"--count=7", "--ratio=1e-3", "--seed=42", "--name=a=b",
                  "--name=", "--int=1", "--double=2.5", "--useed=3",
                  "--str=x"});
  ASSERT_EQ(run.status, Status::kOk) << run.err;
  EXPECT_EQ(v.count, 7);
  EXPECT_DOUBLE_EQ(v.ratio, 1e-3);
  EXPECT_EQ(v.seed, 42u);
  EXPECT_EQ(v.name, "");  // The last value wins, and may be empty.
  EXPECT_EQ(v.ints, std::vector<int>{1});
  EXPECT_EQ(v.doubles, std::vector<double>{2.5});
  EXPECT_EQ(v.seeds, std::vector<std::uint64_t>{3});
  EXPECT_EQ(v.names, std::vector<std::string>{"x"});
}

TEST(Flags, EqualsValueMayContainEquals) {
  Values v;
  Parser cli = declare(&v);
  ASSERT_EQ(parse(cli, {"--name=a=b"}).status, Status::kOk);
  EXPECT_EQ(v.name, "a=b");
}

TEST(Flags, VectorsAppendInOrder) {
  Values v;
  Parser cli = declare(&v);
  const Parsed run =
      parse(cli, {"--int", "3", "--int=1", "--int", "2", "--str", "SW",
                  "--str", "BO", "--double", "0.85", "--double=0.95",
                  "--useed", "0x10"});
  ASSERT_EQ(run.status, Status::kOk) << run.err;
  EXPECT_EQ(v.ints, (std::vector<int>{3, 1, 2}));
  EXPECT_EQ(v.names, (std::vector<std::string>{"SW", "BO"}));
  EXPECT_EQ(v.doubles, (std::vector<double>{0.85, 0.95}));
  EXPECT_EQ(v.seeds, std::vector<std::uint64_t>{16});
}

TEST(Flags, ScalarKeepsTheLastValue) {
  Values v;
  Parser cli = declare(&v);
  ASSERT_EQ(parse(cli, {"--count", "1", "--count", "2"}).status, Status::kOk);
  EXPECT_EQ(v.count, 2);
}

TEST(Flags, ValueMayLookLikeAFlag) {
  Values v;
  Parser cli = declare(&v);
  ASSERT_EQ(parse(cli, {"--name", "--on"}).status, Status::kOk);
  EXPECT_EQ(v.name, "--on");
  EXPECT_FALSE(v.on);
}

TEST(Flags, UnsignedAcceptsHex) {
  Values v;
  Parser cli = declare(&v);
  ASSERT_EQ(parse(cli, {"--seed", "0x10"}).status, Status::kOk);
  EXPECT_EQ(v.seed, 16u);
  ASSERT_EQ(parse(cli, {"--seed=0XfF"}).status, Status::kOk);
  EXPECT_EQ(v.seed, 255u);
}

TEST(Flags, GivenTracksFlagsSeen) {
  Values v;
  Parser cli = declare(&v);
  ASSERT_EQ(parse(cli, {"--seed", "0", "--on"}).status, Status::kOk);
  EXPECT_TRUE(cli.given("--seed"));
  EXPECT_TRUE(cli.given("--on"));
  EXPECT_FALSE(cli.given("--count"));
  EXPECT_FALSE(cli.given("--no-such-flag"));
}

TEST(Flags, PositionalsFillInOrderAndMayInterleave) {
  std::string verb = "sweep";
  std::uint64_t id = 0;
  bool quiet = false;
  Parser cli("tool", "[VERB] [ID] [options]");
  cli.positional("VERB", &verb, "what to do")
      .positional("ID", &id, "campaign id")
      .flag("--quiet", &quiet, "less output");
  ASSERT_EQ(parse(cli, {"cancel", "--quiet", "12"}).status, Status::kOk);
  EXPECT_EQ(verb, "cancel");
  EXPECT_EQ(id, 12u);
  EXPECT_TRUE(quiet);
  EXPECT_TRUE(cli.given("VERB"));
  EXPECT_TRUE(cli.given("ID"));
}

TEST(Flags, OptionalPositionalsKeepDefaults) {
  std::string verb = "sweep";
  std::uint64_t id = 0;
  Parser cli("tool");
  cli.positional("VERB", &verb, "what to do").positional("ID", &id, "id");
  ASSERT_EQ(parse(cli, {}).status, Status::kOk);
  EXPECT_EQ(verb, "sweep");
  EXPECT_EQ(id, 0u);
  EXPECT_FALSE(cli.given("VERB"));
  EXPECT_FALSE(cli.given("ID"));
}

TEST(Flags, VectorPositionalTakesTheRest) {
  std::vector<std::string> files;
  std::string out;
  Parser cli("tool");
  cli.flag("--out FILE", &out, "output").positional("FILE", &files, "inputs");
  ASSERT_EQ(parse(cli, {"a.json", "--out", "o.txt", "b.json", "-"}).status,
            Status::kOk);
  EXPECT_EQ(files, (std::vector<std::string>{"a.json", "b.json", "-"}));
  EXPECT_EQ(out, "o.txt");
}

TEST(Flags, ExtraPositionalIsAnError) {
  std::string verb;
  Parser cli("tool");
  cli.positional("VERB", &verb, "what to do");
  const Parsed run = parse(cli, {"ping", "pong"});
  EXPECT_EQ(run.status, Status::kError);
  EXPECT_EQ(run.err, "tool: 'pong': unexpected argument\n");
}

TEST(Flags, MalformedPositionalNamesTheSlot) {
  std::uint64_t id = 0;
  Parser cli("tool");
  cli.positional("ID", &id, "campaign id");
  const Parsed run = parse(cli, {"12abc"});
  EXPECT_EQ(run.status, Status::kError);
  EXPECT_EQ(run.err, "tool: ID: '12abc' is not an unsigned integer\n");
}

TEST(Flags, UnknownFlagIsOneLine) {
  Values v;
  Parser cli = declare(&v);
  const Parsed run = parse(cli, {"--no-such-flag"});
  EXPECT_EQ(run.status, Status::kError);
  EXPECT_EQ(run.err, "tool: --no-such-flag: unknown flag\n");
  EXPECT_TRUE(run.out.empty());
}

TEST(Flags, UnknownFlagWithEqualsNamesOnlyTheFlag) {
  Values v;
  Parser cli = declare(&v);
  EXPECT_EQ(parse(cli, {"--job=4"}).err, "tool: --job: unknown flag\n");
}

TEST(Flags, MissingValueAtTheEndOfArgv) {
  Values v;
  Parser cli = declare(&v);
  const Parsed run = parse(cli, {"--on", "--count"});
  EXPECT_EQ(run.status, Status::kError);
  EXPECT_EQ(run.err, "tool: --count: missing value\n");
}

TEST(Flags, SwitchRejectsAValue) {
  Values v;
  Parser cli = declare(&v);
  const Parsed run = parse(cli, {"--on=yes"});
  EXPECT_EQ(run.status, Status::kError);
  EXPECT_EQ(run.err, "tool: --on: takes no value\n");
}

TEST(Flags, IntegerMustConsumeTheWholeToken) {
  Values v;
  Parser cli = declare(&v);
  const Parsed run = parse(cli, {"--count", "4x"});
  EXPECT_EQ(run.status, Status::kError);
  EXPECT_EQ(run.err, "tool: --count: '4x' is not an integer\n");
  EXPECT_EQ(v.count, 0);  // A rejected value leaves the destination alone.
}

TEST(Flags, IntegerRejectsExponentAndOverflow) {
  Values v;
  Parser cli = declare(&v);
  EXPECT_EQ(parse(cli, {"--count", "1e999"}).err,
            "tool: --count: '1e999' is not an integer\n");
  EXPECT_EQ(parse(cli, {"--count", "99999999999"}).err,
            "tool: --count: '99999999999' is out of range\n");
  EXPECT_EQ(parse(cli, {"--count", ""}).err,
            "tool: --count: '' is not an integer\n");
  EXPECT_EQ(parse(cli, {"--count", " 4"}).status, Status::kError);
}

TEST(Flags, DoubleRejectsTrailingJunkAndOverflow) {
  Values v;
  Parser cli = declare(&v);
  EXPECT_EQ(parse(cli, {"--ratio", "5x"}).err,
            "tool: --ratio: '5x' is not a number\n");
  EXPECT_EQ(parse(cli, {"--ratio", "1e999"}).err,
            "tool: --ratio: '1e999' is out of range\n");
  EXPECT_EQ(parse(cli, {"--double", "0.5,0.6"}).status, Status::kError);
  EXPECT_TRUE(v.doubles.empty());
}

TEST(Flags, UnsignedRejectsNegativeAndJunk) {
  Values v;
  Parser cli = declare(&v);
  EXPECT_EQ(parse(cli, {"--seed", "-1"}).err,
            "tool: --seed: '-1' is not an unsigned integer\n");
  EXPECT_EQ(parse(cli, {"--seed", "12abc"}).err,
            "tool: --seed: '12abc' is not an unsigned integer\n");
  EXPECT_EQ(parse(cli, {"--seed", "0x"}).status, Status::kError);
  EXPECT_EQ(parse(cli, {"--seed", "0x1g"}).status, Status::kError);
  EXPECT_EQ(parse(cli, {"--seed", "18446744073709551616"}).err,
            "tool: --seed: '18446744073709551616' is out of range\n");
  EXPECT_EQ(v.seed, 0u);
}

TEST(Flags, HelpListsEveryDeclaredFlag) {
  Values v;
  Parser cli = declare(&v);
  const std::string text = cli.usage();
  EXPECT_EQ(text.rfind("usage: tool [options]\n", 0), 0u) << text;
  for (const char* line :
       {"--on", "--count N", "--ratio X", "--seed N", "--name S", "--int N",
        "--double X", "--useed N", "--str S", "--help"}) {
    EXPECT_NE(text.find(std::string("  ") + line + " "), std::string::npos)
        << line << " missing from:\n"
        << text;
  }
  EXPECT_NE(text.find("an unsigned 64-bit integer"), std::string::npos);
}

TEST(Flags, HelpAlignsColumnsAndIndentsContinuationLines) {
  std::string path;
  int n = 0;
  Parser cli("tool", "[FILE]");
  cli.positional("FILE", &path, "input")
      .flag("--a X", &path, "first line\nsecond line")
      .flag("--count N", &n, "a count");
  EXPECT_EQ(cli.usage(),
            "usage: tool [FILE]\n"
            "  FILE       input\n"
            "  --a X      first line\n"
            "             second line\n"
            "  --count N  a count\n"
            "  --help     print this help and exit\n");
}

TEST(Flags, HelpPrintsUsageAndReportsHelp) {
  Values v;
  Parser cli = declare(&v);
  const Parsed run = parse(cli, {"--count", "3", "--help", "--no-such-flag"});
  EXPECT_EQ(run.status, Status::kHelp);
  EXPECT_EQ(run.out, cli.usage());
  EXPECT_TRUE(run.err.empty());
  EXPECT_EQ(exit_code(run.status), 0);
}

TEST(Flags, HelpAlias) {
  Values v;
  Parser cli = declare(&v);
  EXPECT_EQ(parse(cli, {"-h"}).status, Status::kError);
  cli.help_alias("-h");
  EXPECT_EQ(parse(cli, {"-h"}).status, Status::kHelp);
}

TEST(Flags, UsageErrorReturnsInsteadOfExiting) {
  // Reaching the assertions at all is the point: parse() never exits.
  Values v;
  Parser cli = declare(&v);
  const Status status = parse(cli, {"--count"}).status;
  EXPECT_EQ(status, Status::kError);
  EXPECT_EQ(exit_code(status), 2);
  EXPECT_EQ(exit_code(status, 1), 1);
  // The same parser parses again after an error.
  EXPECT_EQ(parse(cli, {"--count", "5"}).status, Status::kOk);
  EXPECT_EQ(v.count, 5);
}

}  // namespace
}  // namespace flags
}  // namespace hars

// Typed command-line flags: the one argv parser of every tool and bench
// binary. A binary declares each flag once, bound to a typed
// destination, and parses argv through Parser.
//
//   int jobs = 1;
//   std::vector<std::string> benches;
//   flags::Parser cli("hars_sim", "[sweep] [options]");
//   cli.flag("--jobs N", &jobs, "pool workers")
//       .flag("--bench NAME", &benches, "benchmark; repeatable");
//   if (const flags::Status s = cli.parse(argc, argv); s != flags::Status::kOk)
//     return flags::exit_code(s);
//
// Spelling: `--name value` or `--name=value`. A number must consume its
// whole token and fit its type; unsigned integers also accept `0x` hex.
// Every rejection is one line, `TOOL: --flag: reason`, and `--help`
// prints usage generated from the declarations. The parser never exits:
// parse() reports ok, help or error, and each binary maps that onto its
// own exit codes.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace hars {
namespace flags {

enum class Status { kOk, kHelp, kError };

/// The exit code for a parse that did not return kOk: 0 after --help,
/// `usage_code` after a usage error.
inline int exit_code(Status status, int usage_code = 2) {
  return status == Status::kHelp ? 0 : usage_code;
}

/// A flag's destination. A bool is a switch that takes no value; a
/// vector appends one value per occurrence; any other type keeps the
/// last value given.
using Target =
    std::variant<bool*, int*, double*, std::uint64_t*, std::string*,
                 std::vector<int>*, std::vector<double>*,
                 std::vector<std::uint64_t>*, std::vector<std::string>*>;

class Parser {
 public:
  /// `tool` prefixes every diagnostic; `synopsis` follows the tool name
  /// on the help text's usage line.
  explicit Parser(std::string tool, std::string synopsis = "[options]");

  /// Declares a flag. `spec` is the name, optionally followed by a space
  /// and the value's placeholder for the help text ("--bench NAME").
  Parser& flag(std::string_view spec, Target out, std::string help);

  /// Declares the next optional positional argument. A vector target
  /// takes every remaining positional.
  Parser& positional(std::string name, Target out, std::string help);

  /// Adds another spelling of --help (e.g. "-h").
  Parser& help_alias(std::string name);

  /// Parses argv[1..argc). Usage goes to `out` on --help, the one-line
  /// diagnostic to `err` on an error.
  Status parse(int argc, const char* const* argv, std::ostream& out,
               std::ostream& err);
  /// Same, on std::cout / std::cerr.
  Status parse(int argc, const char* const* argv);

  /// Whether flag or positional `name` appeared on the parsed command
  /// line.
  bool given(std::string_view name) const;

  /// The generated help text.
  std::string usage() const;

 private:
  struct Flag {
    std::string name;
    std::string placeholder;
    Target target;
    std::string help;
    bool given = false;
  };
  struct Positional {
    std::string name;
    Target target;
    std::string help;
    bool given = false;
  };

  std::string tool_;
  std::string synopsis_;
  std::vector<Flag> flags_;
  std::vector<Positional> positionals_;
  std::vector<std::string> help_names_{"--help"};
};

}  // namespace flags
}  // namespace hars

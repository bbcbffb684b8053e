#include "util/flags.hpp"

#include <algorithm>
#include <charconv>
#include <iostream>
#include <system_error>
#include <type_traits>

namespace hars {
namespace flags {

namespace {

template <typename T>
struct IsVector : std::false_type {};
template <typename T>
struct IsVector<std::vector<T>> : std::true_type {};

/// `text` in single quotes, for diagnostics.
std::string quoted(std::string_view text) {
  std::string out(1, '\'');
  out += text;
  out += '\'';
  return out;
}

/// Parses `text` as T into `*out`; returns the rejection reason, or
/// empty on success.
template <typename T>
std::string parse_value(std::string_view text, T* out) {
  if constexpr (std::is_same_v<T, std::string>) {
    *out = std::string(text);
    return {};
  } else {
    const char* first = text.data();
    const char* last = first + text.size();
    std::from_chars_result result{};
    if constexpr (std::is_same_v<T, std::uint64_t>) {
      const bool hex = text.size() > 2 && text[0] == '0' &&
                       (text[1] == 'x' || text[1] == 'X');
      result =
          std::from_chars(first + (hex ? 2 : 0), last, *out, hex ? 16 : 10);
    } else {
      result = std::from_chars(first, last, *out);
    }
    if (result.ec == std::errc::result_out_of_range) {
      return quoted(text) + " is out of range";
    }
    if (result.ec != std::errc() || result.ptr != last) {
      const char* kind = std::is_same_v<T, double> ? "a number"
                         : std::is_same_v<T, std::uint64_t>
                             ? "an unsigned integer"
                             : "an integer";
      return quoted(text) + " is not " + kind;
    }
    return {};
  }
}

/// Stores `text` into a non-switch target: appends to a vector, else
/// overwrites.
std::string assign(const Target& target, std::string_view text) {
  return std::visit(
      [text](auto* out) -> std::string {
        using T = std::remove_pointer_t<decltype(out)>;
        if constexpr (std::is_same_v<T, bool>) {
          return "takes no value";
        } else if constexpr (IsVector<T>::value) {
          typename T::value_type value{};
          std::string reason = parse_value(text, &value);
          if (reason.empty()) out->push_back(std::move(value));
          return reason;
        } else {
          T value{};
          std::string reason = parse_value(text, &value);
          if (reason.empty()) *out = std::move(value);
          return reason;
        }
      },
      target);
}

bool is_vector(const Target& target) {
  return std::visit(
      [](auto* out) {
        return IsVector<std::remove_pointer_t<decltype(out)>>::value;
      },
      target);
}

}  // namespace

Parser::Parser(std::string tool, std::string synopsis)
    : tool_(std::move(tool)), synopsis_(std::move(synopsis)) {}

Parser& Parser::flag(std::string_view spec, Target out, std::string help) {
  const std::size_t space = spec.find(' ');
  const std::string_view placeholder =
      space == std::string_view::npos ? "" : spec.substr(space + 1);
  flags_.push_back({std::string(spec.substr(0, space)),
                    std::string(placeholder), out, std::move(help)});
  return *this;
}

Parser& Parser::positional(std::string name, Target out, std::string help) {
  positionals_.push_back({std::move(name), out, std::move(help)});
  return *this;
}

Parser& Parser::help_alias(std::string name) {
  help_names_.push_back(std::move(name));
  return *this;
}

Status Parser::parse(int argc, const char* const* argv, std::ostream& out,
                     std::ostream& err) {
  std::size_t next_positional = 0;
  const auto fail = [&](std::string_view what, const std::string& reason) {
    err << tool_ << ": " << what << ": " << reason << '\n';
    return Status::kError;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (std::find(help_names_.begin(), help_names_.end(), arg) !=
        help_names_.end()) {
      out << usage();
      return Status::kHelp;
    }
    if (arg.size() < 2 || arg[0] != '-') {
      if (next_positional >= positionals_.size()) {
        return fail(quoted(arg), "unexpected argument");
      }
      Positional& slot = positionals_[next_positional];
      slot.given = true;
      if (!is_vector(slot.target)) ++next_positional;
      if (std::string reason = assign(slot.target, arg); !reason.empty()) {
        return fail(slot.name, reason);
      }
      continue;
    }
    const std::size_t eq = arg.find('=');
    const std::string_view name = arg.substr(0, eq);
    const auto entry = std::find_if(
        flags_.begin(), flags_.end(),
        [name](const Flag& declared) { return declared.name == name; });
    if (entry == flags_.end()) return fail(name, "unknown flag");
    entry->given = true;
    if (std::holds_alternative<bool*>(entry->target)) {
      if (eq != std::string_view::npos) return fail(name, "takes no value");
      *std::get<bool*>(entry->target) = true;
      continue;
    }
    std::string_view value;
    if (eq != std::string_view::npos) {
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return fail(name, "missing value");
    }
    if (std::string reason = assign(entry->target, value); !reason.empty()) {
      return fail(name, reason);
    }
  }
  return Status::kOk;
}

Status Parser::parse(int argc, const char* const* argv) {
  return parse(argc, argv, std::cout, std::cerr);
}

bool Parser::given(std::string_view name) const {
  for (const Flag& entry : flags_) {
    if (entry.name == name) return entry.given;
  }
  for (const Positional& slot : positionals_) {
    if (slot.name == name) return slot.given;
  }
  return false;
}

std::string Parser::usage() const {
  struct Row {
    std::string label;
    const std::string* help;
  };
  const std::string help_text = "print this help and exit";
  std::vector<Row> rows;
  for (const Positional& slot : positionals_) {
    rows.push_back({slot.name, &slot.help});
  }
  for (const Flag& entry : flags_) {
    rows.push_back({entry.placeholder.empty()
                        ? entry.name
                        : entry.name + ' ' + entry.placeholder,
                    &entry.help});
  }
  rows.push_back({help_names_.front(), &help_text});

  std::size_t width = 0;
  for (const Row& row : rows) width = std::max(width, row.label.size());
  const std::string indent(width + 4, ' ');

  std::string text = "usage: " + tool_ + ' ' + synopsis_ + '\n';
  for (const Row& row : rows) {
    text += "  " + row.label + std::string(width - row.label.size() + 2, ' ');
    for (char c : *row.help) {
      text += c;
      if (c == '\n') text += indent;
    }
    text += '\n';
  }
  return text;
}

}  // namespace flags
}  // namespace hars

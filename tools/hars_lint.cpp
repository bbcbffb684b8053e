// hars_lint: hot-path contract scanner for the HARS source tree.
//
// Scans src/ for HARS_HOT-annotated function bodies (see
// src/util/hot_path.hpp) and rejects constructs that break the hot
// tick path's determinism and allocation-free contracts:
//
//   no-alloc            new / malloc-family calls / make_unique|shared /
//                       container growth calls (.push_back, .resize, ...)
//   no-container-local  owning std:: container locals or temporaries
//   no-wallclock-rand   rand()/time()/clock()/std::random_device and the
//                       <chrono> wall clocks
//   no-unordered        unordered_map / unordered_set (iteration order
//                       differs across standard libraries)
//   no-obs-cold         cold telemetry entry points (obs registration,
//                       snapshotting, thread attach) — only the write
//                       fast path (counter_add / hist_observe /
//                       span push) is hot-safe
//
// and one whole-file rule that keeps the hars library free of the
// differential oracle (src/oracle/, built as hars_oracle):
//
//   oracle-boundary     a file under src/ but outside src/oracle/ that
//                       #includes an oracle/ header
//
// Exemptions (same line): // hars-lint: allow(<rule>): <reason>
// Exemption blocks:       // hars-lint: allow-begin(<rule>): <reason>
//                         ...
//                         // hars-lint: allow-end
//
// This is a token-level scanner, not a compiler plugin: it strips
// comments and literals, brace-matches each HARS_HOT body, and applies
// word-boundary token rules. That is deliberately simple enough to have
// no dependencies and fast enough to run as a ctest entry; anything it
// cannot see (allocation behind a helper call) is covered at runtime by
// util/alloc_guard.hpp instead.
//
// Usage:
//   hars_lint --root <repo-root>   scan <repo-root>/src, exit 1 on findings
//   hars_lint --self-test          run the embedded fixture checks
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

namespace {

struct Finding {
  std::string file;
  int line = 0;            // 1-based line of the offending token.
  std::string rule;
  std::string message;
  int region_line = 0;     // 1-based line where the HARS_HOT body opens
                           // (0 for the whole-file oracle-boundary rule).
};

bool is_ident(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

/// Blanks comments, string literals and char literals with spaces,
/// preserving every newline and column so offsets keep their meaning.
std::string strip_comments_and_literals(const std::string& src) {
  std::string out = src;
  enum class State { kCode, kLine, kBlock, kStr, kChar, kRaw };
  State state = State::kCode;
  std::string raw_delim;  // For R"delim( ... )delim".
  for (std::size_t i = 0; i < src.size(); ++i) {
    const char c = src[i];
    const char next = i + 1 < src.size() ? src[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLine;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlock;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || !is_ident(src[i - 1]))) {
          // Raw string: R"delim( ... )delim"
          std::size_t p = i + 2;
          while (p < src.size() && src[p] != '(') ++p;
          // Built in place: a `")" + substr + "\""` concat chain trips
          // GCC 12's spurious -Wrestrict on sanitized -O2 builds.
          raw_delim.assign(1, ')');
          raw_delim.append(src, i + 2, p - (i + 2));
          raw_delim.push_back('"');
          for (std::size_t j = i; j <= p && j < src.size(); ++j) out[j] = ' ';
          i = p;
          state = State::kRaw;
        } else if (c == '"') {
          state = State::kStr;
          out[i] = ' ';
        } else if (c == '\'' && !(i > 0 && is_ident(src[i - 1]))) {
          // Skip digit separators (1'000'000) via the ident-prev check.
          state = State::kChar;
          out[i] = ' ';
        }
        break;
      case State::kLine:
        if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlock:
        if (c == '*' && next == '/') {
          out[i] = out[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kStr:
        if (c == '\\') {
          out[i] = ' ';
          if (next != '\n') {
            if (i + 1 < src.size()) out[i + 1] = ' ';
            ++i;
          }
        } else if (c == '"') {
          out[i] = ' ';
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          out[i] = ' ';
          if (i + 1 < src.size() && next != '\n') {
            out[i + 1] = ' ';
            ++i;
          }
        } else if (c == '\'') {
          out[i] = ' ';
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kRaw:
        if (src.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (std::size_t j = 0; j < raw_delim.size(); ++j) {
            if (src[i + j] != '\n') out[i + j] = ' ';
          }
          i += raw_delim.size() - 1;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

/// Offsets of the first character of every line (1-based access via
/// line_of).
std::vector<std::size_t> line_starts(const std::string& text) {
  std::vector<std::size_t> starts{0};
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') starts.push_back(i + 1);
  }
  return starts;
}

int line_of(const std::vector<std::size_t>& starts, std::size_t offset) {
  const auto it = std::upper_bound(starts.begin(), starts.end(), offset);
  return static_cast<int>(it - starts.begin());
}

/// Per-line rule suppressions parsed from the ORIGINAL text (the
/// markers live in comments, which the stripped text blanks out).
struct Suppressions {
  // suppressed[line - 1] holds the rules exempt on that line.
  std::vector<std::vector<std::string>> suppressed;

  bool allows(int line, const std::string& rule) const {
    const auto& rules = suppressed[static_cast<std::size_t>(line - 1)];
    return std::find(rules.begin(), rules.end(), rule) != rules.end();
  }
};

Suppressions parse_suppressions(const std::string& src,
                                const std::vector<std::size_t>& starts) {
  Suppressions out;
  out.suppressed.resize(starts.size());
  std::vector<std::string> block_stack;
  for (std::size_t li = 0; li < starts.size(); ++li) {
    const std::size_t begin = starts[li];
    const std::size_t end =
        li + 1 < starts.size() ? starts[li + 1] : src.size();
    const std::string_view line(src.data() + begin, end - begin);

    // Opens first, so an allow-begin line is itself exempt.
    std::size_t pos = 0;
    bool saw_end = false;
    while ((pos = line.find("hars-lint:", pos)) != std::string_view::npos) {
      const std::string_view rest = line.substr(pos);
      const auto parse_rule = [&](std::string_view marker) -> std::string {
        const std::size_t m = rest.find(marker);
        if (m == std::string_view::npos) return {};
        const std::size_t open = m + marker.size();
        const std::size_t close = rest.find(')', open);
        if (close == std::string_view::npos) return {};
        return std::string(rest.substr(open, close - open));
      };
      if (rest.find("allow-begin(") != std::string_view::npos) {
        block_stack.push_back(parse_rule("allow-begin("));
      } else if (rest.find("allow-end") != std::string_view::npos) {
        saw_end = true;
      } else if (rest.find("allow(") != std::string_view::npos) {
        out.suppressed[li].push_back(parse_rule("allow("));
      }
      pos += 10;
    }
    for (const std::string& rule : block_stack) {
      out.suppressed[li].push_back(rule);
    }
    // Ends last, so the allow-end line is still covered by its block.
    if (saw_end && !block_stack.empty()) block_stack.pop_back();
  }
  return out;
}

struct HotRegion {
  std::size_t begin = 0;  // Offset just past the opening '{'.
  std::size_t end = 0;    // Offset of the closing '}'.
  int open_line = 0;
};

/// Finds every HARS_HOT annotation in the stripped text and
/// brace-matches the body it precedes. Annotations on declarations
/// (';' before any '{') and on preprocessor lines are skipped.
std::vector<HotRegion> find_hot_regions(const std::string& code,
                                        const std::vector<std::size_t>& starts) {
  std::vector<HotRegion> regions;
  static constexpr std::string_view kTag = "HARS_HOT";
  std::size_t pos = 0;
  while ((pos = code.find(kTag, pos)) != std::string::npos) {
    const std::size_t tag = pos;
    pos += kTag.size();
    if (tag > 0 && is_ident(code[tag - 1])) continue;
    if (pos < code.size() && is_ident(code[pos])) continue;
    // Skip `#define HARS_HOT ...` and friends.
    const int line = line_of(starts, tag);
    const std::size_t ls = starts[static_cast<std::size_t>(line - 1)];
    std::size_t first = ls;
    while (first < code.size() && (code[first] == ' ' || code[first] == '\t')) {
      ++first;
    }
    if (first < code.size() && code[first] == '#') continue;

    // Declaration check: a ';' before the first '{' means no body here.
    std::size_t scan = pos;
    while (scan < code.size() && code[scan] != ';' && code[scan] != '{') {
      ++scan;
    }
    if (scan >= code.size() || code[scan] == ';') continue;

    // Brace-match the body.
    int depth = 1;
    std::size_t body_end = scan + 1;
    while (body_end < code.size() && depth > 0) {
      if (code[body_end] == '{') ++depth;
      if (code[body_end] == '}') --depth;
      ++body_end;
    }
    regions.push_back(HotRegion{scan + 1, body_end > 0 ? body_end - 1 : 0,
                                line_of(starts, scan)});
    pos = scan + 1;  // Nested HARS_HOT inside a body is still found.
  }
  return regions;
}

// --- Token rules ------------------------------------------------------

bool boundary_before(const std::string& code, std::size_t pos) {
  return pos == 0 || !is_ident(code[pos - 1]);
}

bool boundary_after(const std::string& code, std::size_t end) {
  return end >= code.size() || !is_ident(code[end]);
}

char next_nonspace(const std::string& code, std::size_t pos) {
  while (pos < code.size() &&
         (code[pos] == ' ' || code[pos] == '\t' || code[pos] == '\n')) {
    ++pos;
  }
  return pos < code.size() ? code[pos] : '\0';
}

/// Emits one finding per match of `token` inside [begin, end) that
/// passes `accept(match_offset)`.
template <typename AcceptFn>
void scan_token(const std::string& code, const HotRegion& region,
                const std::vector<std::size_t>& starts,
                const Suppressions& supp, std::string_view token,
                const std::string& rule, const std::string& message,
                const std::string& file, std::vector<Finding>& findings,
                AcceptFn&& accept) {
  std::size_t pos = region.begin;
  while (pos < region.end &&
         (pos = code.find(token, pos)) != std::string::npos) {
    if (pos >= region.end) break;
    const std::size_t hit = pos;
    pos += token.size();
    if (!accept(hit)) continue;
    const int line = line_of(starts, hit);
    if (supp.allows(line, rule)) continue;
    findings.push_back(Finding{file, line, rule, message, region.open_line});
  }
}

void check_region(const std::string& code, const HotRegion& region,
                  const std::vector<std::size_t>& starts,
                  const Suppressions& supp, const std::string& file,
                  std::vector<Finding>& findings) {
  const auto word = [&](std::size_t hit, std::size_t len) {
    return boundary_before(code, hit) && boundary_after(code, hit + len);
  };
  const auto call = [&](std::size_t hit, std::size_t len) {
    // `foo(` with a word boundary before: std::time( matches (':' is a
    // boundary) while unit_time( does not ('_' is an identifier char).
    return boundary_before(code, hit) && code[hit + len] == '(';
  };
  const auto method = [&](std::size_t hit) {
    // `.foo(` or `->foo(`: container growth is always a member call.
    return hit > 0 && (code[hit - 1] == '.' ||
                       (hit > 1 && code[hit - 1] == '>' && code[hit - 2] == '-'));
  };

  // no-alloc -----------------------------------------------------------
  scan_token(code, region, starts, supp, "new", "no-alloc",
             "operator new in hot path", file, findings,
             [&](std::size_t hit) { return word(hit, 3); });
  for (std::string_view fn : {"malloc(", "calloc(", "realloc(", "strdup(",
                              "aligned_alloc("}) {
    scan_token(code, region, starts, supp, fn, "no-alloc",
               std::string(fn.substr(0, fn.size() - 1)) + "() in hot path",
               file, findings,
               [&](std::size_t hit) { return call(hit, fn.size() - 1); });
  }
  for (std::string_view fn : {"make_unique", "make_shared"}) {
    scan_token(code, region, starts, supp, fn, "no-alloc",
               std::string(fn) + " in hot path", file, findings,
               [&](std::size_t hit) {
                 const char after = code[hit + fn.size()];
                 return boundary_before(code, hit) &&
                        (after == '<' || after == '(');
               });
  }
  for (std::string_view fn :
       {"push_back(", "emplace_back(", "emplace(", "push_front(", "resize(",
        "reserve(", "insert(", "append("}) {
    scan_token(code, region, starts, supp, fn, "no-alloc",
               "container growth ." + std::string(fn.substr(0, fn.size() - 1)) +
                   "() in hot path",
               file, findings, [&](std::size_t hit) { return method(hit); });
  }

  // no-container-local -------------------------------------------------
  for (std::string_view ct : {"vector", "deque", "list", "map", "set",
                              "multimap", "multiset", "queue", "stack",
                              "priority_queue", "basic_string"}) {
    const std::string token = "std::" + std::string(ct);
    scan_token(code, region, starts, supp, token, "no-container-local",
               "owning " + token + " local/temporary in hot path", file,
               findings, [&](std::size_t hit) {
                 if (!boundary_before(code, hit)) return false;
                 std::size_t p = hit + token.size();
                 if (p >= code.size() || code[p] != '<') return false;
                 // Match the template argument list ('>>' closes two).
                 int depth = 0;
                 while (p < code.size()) {
                   if (code[p] == '<') ++depth;
                   if (code[p] == '>') {
                     --depth;
                     if (depth == 0) break;
                   }
                   ++p;
                 }
                 const char after = next_nonspace(code, p + 1);
                 // A reference/pointer does not own; anything that then
                 // names or constructs an object does.
                 return after != '&' && after != '*' &&
                        (is_ident(after) || after == '(' || after == '{');
               });
  }
  scan_token(code, region, starts, supp, "std::string", "no-container-local",
             "owning std::string local/temporary in hot path", file, findings,
             [&](std::size_t hit) {
               if (!boundary_before(code, hit)) return false;
               const std::size_t end = hit + 11;
               if (end < code.size() && is_ident(code[end])) return false;
               const char after = next_nonspace(code, end);
               return after != '&' && after != '*' && after != ':' &&
                      (is_ident(after) || after == '(' || after == '{');
             });

  // no-wallclock-rand --------------------------------------------------
  for (std::string_view fn : {"rand(", "srand(", "time(", "clock("}) {
    scan_token(code, region, starts, supp, fn, "no-wallclock-rand",
               std::string(fn.substr(0, fn.size() - 1)) +
                   "() in hot path (unseeded/wall-clock)",
               file, findings,
               [&](std::size_t hit) { return call(hit, fn.size() - 1); });
  }
  for (std::string_view id : {"random_device", "steady_clock", "system_clock",
                              "high_resolution_clock"}) {
    scan_token(code, region, starts, supp, id, "no-wallclock-rand",
               std::string(id) + " in hot path", file, findings,
               [&](std::size_t hit) { return word(hit, id.size()); });
  }

  // no-unordered -------------------------------------------------------
  for (std::string_view id : {"unordered_map", "unordered_set",
                              "unordered_multimap", "unordered_multiset"}) {
    scan_token(code, region, starts, supp, id, "no-unordered",
               std::string(id) +
                   " in hot path (iteration order is not portable)",
               file, findings,
               [&](std::size_t hit) { return word(hit, id.size()); });
  }

  // no-obs-cold --------------------------------------------------------
  // Cold telemetry entry points lock, allocate, or walk every shard;
  // only the obs write fast path belongs inside a HARS_HOT body.
  for (std::string_view fn :
       {"register_counter(", "register_gauge(", "register_histogram(",
        "take_snapshot(", "ensure_thread_registered("}) {
    scan_token(code, region, starts, supp, fn, "no-obs-cold",
               "cold telemetry call " +
                   std::string(fn.substr(0, fn.size() - 1)) +
                   "() in hot path (locks/allocates; hot-safe writes are "
                   "counter_add/hist_observe/span push)",
               file, findings,
               [&](std::size_t hit) { return call(hit, fn.size() - 1); });
  }
}

/// oracle-boundary: `file` (repo-relative) lies under src/ but outside
/// src/oracle/, and a live (not commented-out) #include names an oracle/
/// header. The path sits in a literal, which the stripped `code` blanks,
/// so the directive is recognized on `code` and the path read from `src`.
void check_oracle_boundary(const std::string& src, const std::string& code,
                           const std::vector<std::size_t>& starts,
                           const Suppressions& supp, const std::string& file,
                           std::vector<Finding>& findings) {
  if (file.rfind("src/", 0) != 0 || file.rfind("src/oracle/", 0) == 0) return;
  static constexpr std::string_view kRule = "oracle-boundary";
  for (std::size_t li = 0; li < starts.size(); ++li) {
    const std::size_t begin = starts[li];
    const std::size_t end =
        li + 1 < starts.size() ? starts[li + 1] : src.size();
    const std::size_t hash = code.find_first_not_of(" \t", begin);
    if (hash >= end || code[hash] != '#') continue;
    const std::size_t directive = code.find_first_not_of(" \t", hash + 1);
    if (directive >= end || code.compare(directive, 7, "include") != 0) {
      continue;
    }
    const std::string_view line(src.data() + begin, end - begin);
    if (line.find("\"oracle/") == std::string_view::npos &&
        line.find("<oracle/") == std::string_view::npos) {
      continue;
    }
    const int line_no = static_cast<int>(li) + 1;
    if (supp.allows(line_no, std::string(kRule))) continue;
    findings.push_back(Finding{file, line_no, std::string(kRule),
                               "includes an oracle/ header outside "
                               "src/oracle/ (hars must not depend on "
                               "hars_oracle)",
                               0});
  }
}

std::vector<Finding> analyze(const std::string& src, const std::string& file) {
  std::vector<Finding> findings;
  const std::string code = strip_comments_and_literals(src);
  const std::vector<std::size_t> starts = line_starts(src);
  const Suppressions supp = parse_suppressions(src, starts);
  for (const HotRegion& region : find_hot_regions(code, starts)) {
    check_region(code, region, starts, supp, file, findings);
  }
  check_oracle_boundary(src, code, starts, supp, file, findings);
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  return findings;
}

void print_findings(const std::vector<Finding>& findings) {
  for (const Finding& f : findings) {
    if (f.region_line == 0) {
      std::fprintf(stderr, "%s:%d: error: [%s] %s\n", f.file.c_str(), f.line,
                   f.rule.c_str(), f.message.c_str());
      continue;
    }
    std::fprintf(stderr,
                 "%s:%d: error: [%s] %s (HARS_HOT body opens at line %d)\n",
                 f.file.c_str(), f.line, f.rule.c_str(), f.message.c_str(),
                 f.region_line);
  }
}

// --- Directory scan ---------------------------------------------------

int scan_tree(const std::filesystem::path& root) {
  namespace fs = std::filesystem;
  const fs::path src_dir = root / "src";
  if (!fs::is_directory(src_dir)) {
    std::fprintf(stderr, "hars_lint: no src/ directory under %s\n",
                 root.string().c_str());
    return 2;
  }
  std::vector<fs::path> files;
  for (const auto& entry : fs::recursive_directory_iterator(src_dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());

  std::vector<Finding> all;
  int hot_files = 0;
  for (const fs::path& path : files) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "hars_lint: cannot read %s\n",
                   path.string().c_str());
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string src = buf.str();
    if (src.find("HARS_HOT") != std::string::npos) ++hot_files;
    const std::string rel =
        fs::relative(path, root).generic_string();
    const std::vector<Finding> findings = analyze(src, rel);
    all.insert(all.end(), findings.begin(), findings.end());
  }
  print_findings(all);
  std::printf("hars_lint: %zu files scanned, %d with HARS_HOT regions, "
              "%zu violation(s)\n",
              files.size(), hot_files, all.size());
  return all.empty() ? 0 : 1;
}

// --- Self-test --------------------------------------------------------

/// A fixture with one deliberate violation per rule (plus a declaration
/// and a suppressed line that must NOT be flagged), scanned as a file
/// of hars proper (src/core/), where an oracle/ include is a finding.
const char kBadFixture[] = R"fixture(
#include <vector>
#include "oracle/reference_run.hpp"
HARS_HOT void declared_only();
HARS_HOT int hot_bad(std::vector<int>& out) {
  std::vector<int> tmp;
  tmp.push_back(1);
  int* p = new int(3);
  out.resize(9);
  long t = time(nullptr);
  std::unordered_map<int, int> order;
  auto snap = registry.take_snapshot();
  obs::ensure_thread_registered();
  (void)p; (void)t; (void)order; (void)snap;
  return rand();
}
)fixture";

/// Everything here is exempt, out of a hot region, or a near-miss the
/// boundary rules must not trip on. Scanned as an oracle file, which may
/// include oracle/ headers; the commented-out include is no directive.
const char kCleanFixture[] = R"fixture(
#include <vector>
#include "oracle/reference_run.hpp"
// #include "oracle/repro.hpp"
HARS_HOT double hot_ok(std::vector<int>& v, double unit) {
  v.reserve(8);  // hars-lint: allow(no-alloc): retained capacity
  // hars-lint: allow-begin(no-alloc): one-time growth
  v.push_back(1);
  v.push_back(2);
  // hars-lint: allow-end
  const char* words = "new malloc( time( take_snapshot( std::vector<int> x";
  const double t = unit_time(unit);  // '_' blocks the time( token.
  const std::vector<int>& ref = v;   // Reference: owns nothing.
  obs::counter_add(cat.ticks, 2);    // The obs write path is hot-safe.
  obs::ensure_thread_registered();   // hars-lint: allow(no-obs-cold): pre-guard attach point
  (void)words; (void)ref;
  return t + v.size();
}
int cold() { return rand(); }
double unit_time(double u) { return u * 2.0; }
)fixture";

int self_test() {
  struct Expected {
    int line;
    const char* rule;
  };
  // Lines are 1-based within the fixture (leading newline = line 1).
  const std::vector<Expected> expected = {
      {3, "oracle-boundary"},     // #include "oracle/reference_run.hpp"
      {6, "no-container-local"},  // std::vector<int> tmp;
      {7, "no-alloc"},            // tmp.push_back(1)
      {8, "no-alloc"},            // new int(3)
      {9, "no-alloc"},            // out.resize(9)
      {10, "no-wallclock-rand"},  // time(nullptr)
      {11, "no-unordered"},       // std::unordered_map
      {12, "no-obs-cold"},        // .take_snapshot()
      {13, "no-obs-cold"},        // ensure_thread_registered()
      {15, "no-wallclock-rand"},  // rand()
  };
  const std::vector<Finding> bad =
      analyze(kBadFixture, "src/core/fixture_bad.cpp");
  bool ok = bad.size() == expected.size();
  if (ok) {
    for (std::size_t i = 0; i < expected.size(); ++i) {
      if (bad[i].line != expected[i].line || bad[i].rule != expected[i].rule) {
        ok = false;
        break;
      }
    }
  }
  if (!ok) {
    std::fprintf(stderr,
                 "self-test FAILED: bad fixture produced %zu finding(s), "
                 "expected %zu:\n",
                 bad.size(), expected.size());
    print_findings(bad);
    return 1;
  }

  const std::vector<Finding> clean =
      analyze(kCleanFixture, "src/oracle/fixture_clean.cpp");
  if (!clean.empty()) {
    std::fprintf(stderr,
                 "self-test FAILED: clean fixture produced %zu finding(s):\n",
                 clean.size());
    print_findings(clean);
    return 1;
  }
  std::printf("hars_lint self-test: PASS (%zu expected findings flagged, "
              "clean fixture clean)\n",
              expected.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() == 1 && args[0] == "--self-test") {
    return self_test();
  }
  if (args.size() == 2 && args[0] == "--root") {
    return scan_tree(args[1]);
  }
  std::fprintf(stderr,
               "usage: hars_lint --root <repo-root> | hars_lint --self-test\n");
  return 2;
}

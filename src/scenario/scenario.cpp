#include "scenario/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <utility>

#include "sweep/result_sink.hpp"  // format_number

namespace hars {

const char* scenario_event_name(ScenarioEventKind kind) {
  switch (kind) {
    case ScenarioEventKind::kSpawn: return "spawn";
    case ScenarioEventKind::kKill: return "kill";
    case ScenarioEventKind::kSetTarget: return "set_target";
    case ScenarioEventKind::kSetPhase: return "set_phase";
    case ScenarioEventKind::kOfflineCores: return "offline_cores";
    case ScenarioEventKind::kOnlineCores: return "online_cores";
  }
  return "?";
}

namespace {

[[noreturn]] void fail(const std::string& message) {
  throw ScenarioError("scenario: " + message);
}

bool needs_app(ScenarioEventKind kind) {
  return kind != ScenarioEventKind::kOfflineCores &&
         kind != ScenarioEventKind::kOnlineCores;
}

/// Shared validation walk. `lines` (parallel to events, nullable) carries
/// the DSL source line of each event so from_stream / from_file reject
/// with "line N" instead of the event's index — every rejection path
/// then points at the offending file:line.
void validate_events(const Scenario& scenario,
                     const std::vector<int>* lines) {
  const std::vector<ScenarioEvent>& events = scenario.events;
  if (scenario.name.empty()) fail("missing name");
  TimeUs prev = 0;
  // App lifecycle per id: unseen -> alive -> killed.
  enum class Life { kUnseen, kAlive, kKilled };
  std::map<std::string, Life> apps;
  bool initial_spawn = false;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const ScenarioEvent& e = events[i];
    const std::string where =
        (lines != nullptr ? "line " + std::to_string((*lines)[i])
                          : "event " + std::to_string(i)) +
        " (" + std::string(scenario_event_name(e.kind)) + ")";
    if (e.time < 0) fail(where + ": negative time");
    if (e.time < prev) {
      fail(where + ": out of order (t=" + std::to_string(e.time) +
           " after t=" + std::to_string(prev) + ")");
    }
    prev = e.time;
    if (needs_app(e.kind) && e.app.empty()) fail(where + ": missing app id");
    switch (e.kind) {
      case ScenarioEventKind::kSpawn: {
        if (apps.count(e.app)) fail(where + ": duplicate app id \"" + e.app + "\"");
        if (!e.spawn.bench) fail(where + ": spawn of \"" + e.app + "\" has no workload");
        if (e.spawn.threads < 0) fail(where + ": negative thread count");
        if (e.spawn.fraction &&
            (!(*e.spawn.fraction > 0.0) || *e.spawn.fraction > 1.0)) {
          fail(where + ": fraction must be in (0, 1]");
        }
        if (e.spawn.target && !e.spawn.target->is_valid_window()) {
          fail(where + ": empty or non-positive target window");
        }
        apps[e.app] = Life::kAlive;
        if (e.time == 0) initial_spawn = true;
        break;
      }
      case ScenarioEventKind::kKill:
      case ScenarioEventKind::kSetTarget:
      case ScenarioEventKind::kSetPhase: {
        if (e.time == 0) fail(where + ": t=0 is reserved for spawns");
        const auto it = apps.find(e.app);
        if (it == apps.end()) fail(where + ": unknown app \"" + e.app + "\"");
        if (it->second == Life::kKilled) {
          fail(where + ": app \"" + e.app + "\" already killed");
        }
        if (e.kind == ScenarioEventKind::kKill) it->second = Life::kKilled;
        if (e.kind == ScenarioEventKind::kSetTarget &&
            !e.target.is_valid_window()) {
          fail(where + ": empty or non-positive target window");
        }
        if (e.kind == ScenarioEventKind::kSetPhase && !(e.phase_scale > 0.0)) {
          fail(where + ": phase scale must be > 0");
        }
        break;
      }
      case ScenarioEventKind::kOfflineCores:
      case ScenarioEventKind::kOnlineCores:
        if (e.time == 0) fail(where + ": t=0 is reserved for spawns");
        if (e.cores.empty()) fail(where + ": empty core set");
        if (e.kind == ScenarioEventKind::kOfflineCores && e.cores.test(0)) {
          fail(where + ": cpu0 (the manager core) cannot go offline");
        }
        break;
    }
  }
  if (!initial_spawn) fail("no spawn at t=0 (the run needs an initial app)");
}

}  // namespace

void Scenario::validate() const { validate_events(*this, nullptr); }

std::vector<const ScenarioEvent*> Scenario::spawns() const {
  std::vector<const ScenarioEvent*> out;
  for (const ScenarioEvent& e : events) {
    if (e.kind == ScenarioEventKind::kSpawn) out.push_back(&e);
  }
  return out;
}

TimeUs Scenario::last_event_time() const {
  return events.empty() ? 0 : events.back().time;
}

bool operator==(const ScenarioSpawn& a, const ScenarioSpawn& b) {
  const auto target_eq = [](const std::optional<PerfTarget>& x,
                            const std::optional<PerfTarget>& y) {
    if (x.has_value() != y.has_value()) return false;
    return !x || (x->min == y->min && x->max == y->max);
  };
  return a.bench == b.bench && a.threads == b.threads &&
         a.fraction == b.fraction && target_eq(a.target, b.target);
}

bool operator==(const ScenarioEvent& a, const ScenarioEvent& b) {
  return a.time == b.time && a.kind == b.kind && a.app == b.app &&
         a.spawn == b.spawn && a.target.min == b.target.min &&
         a.target.max == b.target.max && a.phase_scale == b.phase_scale &&
         a.cores == b.cores;
}

bool operator==(const Scenario& a, const Scenario& b) {
  return a.name == b.name && a.events == b.events;
}

CpuMask parse_core_set(const std::string& spec) {
  CpuMask mask;
  std::stringstream ss(spec);
  std::string part;
  while (std::getline(ss, part, ';')) {
    if (part.empty()) fail("empty core range in \"" + spec + "\"");
    char* end = nullptr;
    const long lo = std::strtol(part.c_str(), &end, 10);
    long hi = lo;
    if (*end == '-') {
      hi = std::strtol(end + 1, &end, 10);
    }
    if (*end != '\0' || lo < 0 || hi < lo || hi >= CpuMask::kMaxCpus) {
      fail("malformed core set \"" + spec + "\"");
    }
    for (long c = lo; c <= hi; ++c) mask.set(static_cast<CoreId>(c));
  }
  if (mask.empty()) fail("empty core set \"" + spec + "\"");
  return mask;
}

std::string format_core_set(CpuMask mask) {
  std::string out;
  CoreId c = mask.first();
  while (c >= 0) {
    CoreId end = c;
    while (end + 1 < CpuMask::kMaxCpus && mask.test(end + 1)) ++end;
    if (!out.empty()) out += ';';
    out += std::to_string(c);
    if (end > c) {
      out += '-';
      out += std::to_string(end);
    }
    c = mask.next(end);
  }
  return out;
}

namespace {

/// Splits "key=value" cells of one DSL line into an ordered map; rejects
/// duplicate and malformed cells.
std::map<std::string, std::string> parse_fields(
    const std::vector<std::string>& cells, std::size_t from, int line_no) {
  std::map<std::string, std::string> fields;
  for (std::size_t i = from; i < cells.size(); ++i) {
    const std::string& cell = cells[i];
    const std::size_t eq = cell.find('=');
    if (eq == std::string::npos || eq == 0) {
      fail("line " + std::to_string(line_no) + ": expected key=value, got \"" +
           cell + "\"");
    }
    const std::string key = cell.substr(0, eq);
    if (!fields.emplace(key, cell.substr(eq + 1)).second) {
      fail("line " + std::to_string(line_no) + ": duplicate field \"" + key +
           "\"");
    }
  }
  return fields;
}

double parse_double(const std::string& value, const char* key, int line_no) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0') {
    fail("line " + std::to_string(line_no) + ": malformed " + key + " \"" +
         value + "\"");
  }
  return v;
}

}  // namespace

Scenario Scenario::from_stream(std::istream& in) {
  Scenario scenario;
  std::vector<int> event_lines;  // Source line of each event, for errors.
  std::string line;
  int line_no = 0;
  bool have_header = false;
  TimeUs prev_time = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line.front() == '#') continue;

    std::vector<std::string> cells;
    std::stringstream ss(line);
    std::string cell;
    while (std::getline(ss, cell, ',')) cells.push_back(cell);

    if (!have_header) {
      if (cells.size() != 2 || cells[0] != "scenario" || cells[1].empty()) {
        fail("line " + std::to_string(line_no) +
             ": expected header \"scenario,NAME\"");
      }
      scenario.name = cells[1];
      have_header = true;
      continue;
    }

    if (cells.size() < 2) {
      fail("line " + std::to_string(line_no) + ": expected TIME_MS,event,...");
    }
    ScenarioEvent event;
    // Round, don't truncate: to_stream writes time as a ms double whose
    // product with 1000 can land just below the integral us value
    // (1.001 * 1000 = 1000.999...), and the round-trip must be exact.
    event.time = static_cast<TimeUs>(
        std::llround(parse_double(cells[0], "time", line_no) * kUsPerMs));
    if (event.time < prev_time) {
      fail("line " + std::to_string(line_no) + ": out-of-order event (t=" +
           cells[0] + " ms after a later one)");
    }
    prev_time = event.time;
    const std::string& kind = cells[1];
    const auto fields = parse_fields(cells, 2, line_no);
    const auto field = [&](const char* key) -> const std::string& {
      const auto it = fields.find(key);
      if (it == fields.end()) {
        fail("line " + std::to_string(line_no) + ": " + kind + " needs " +
             key + "=");
      }
      return it->second;
    };
    const auto has = [&](const char* key) { return fields.count(key) != 0; };
    // parse_core_set is public API and knows nothing about source
    // positions; anchor its rejections on the line like everything else.
    const auto core_set = [&](const std::string& value) {
      try {
        return parse_core_set(value);
      } catch (const ScenarioError& error) {
        std::string inner = error.what();
        const std::string prefix = "scenario: ";
        if (inner.rfind(prefix, 0) == 0) inner = inner.substr(prefix.size());
        fail("line " + std::to_string(line_no) + ": " + inner);
      }
    };

    if (kind == "spawn") {
      event.kind = ScenarioEventKind::kSpawn;
      event.app = field("app");
      const std::string& bench = field("bench");
      event.spawn.bench = parse_parsec_benchmark(bench);
      if (!event.spawn.bench) {
        fail("line " + std::to_string(line_no) + ": unknown bench \"" + bench +
             "\"");
      }
      if (has("threads")) {
        event.spawn.threads =
            static_cast<int>(parse_double(field("threads"), "threads", line_no));
      }
      if (has("fraction")) {
        event.spawn.fraction = parse_double(field("fraction"), "fraction", line_no);
      }
      if (has("min") || has("max")) {
        event.spawn.target =
            PerfTarget{parse_double(field("min"), "min", line_no),
                       parse_double(field("max"), "max", line_no)};
      }
    } else if (kind == "kill") {
      event.kind = ScenarioEventKind::kKill;
      event.app = field("app");
    } else if (kind == "set_target") {
      event.kind = ScenarioEventKind::kSetTarget;
      event.app = field("app");
      event.target = PerfTarget{parse_double(field("min"), "min", line_no),
                                parse_double(field("max"), "max", line_no)};
    } else if (kind == "set_phase") {
      event.kind = ScenarioEventKind::kSetPhase;
      event.app = field("app");
      event.phase_scale = parse_double(field("scale"), "scale", line_no);
    } else if (kind == "offline_cores") {
      event.kind = ScenarioEventKind::kOfflineCores;
      event.cores = core_set(field("cores"));
    } else if (kind == "online_cores") {
      event.kind = ScenarioEventKind::kOnlineCores;
      event.cores = core_set(field("cores"));
    } else {
      fail("line " + std::to_string(line_no) + ": unknown event \"" + kind +
           "\"");
    }
    scenario.events.push_back(std::move(event));
    event_lines.push_back(line_no);
  }
  if (!have_header) fail("missing \"scenario,NAME\" header");
  validate_events(scenario, &event_lines);
  return scenario;
}

Scenario Scenario::from_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail("cannot read " + path);
  try {
    return from_stream(in);
  } catch (const ScenarioError& error) {
    throw ScenarioError(std::string(error.what()) + " [" + path + "]");
  }
}

void Scenario::to_stream(std::ostream& out) const {
  out << "scenario," << name << '\n';
  for (const ScenarioEvent& e : events) {
    out << format_number(static_cast<double>(e.time) / kUsPerMs) << ','
        << scenario_event_name(e.kind);
    switch (e.kind) {
      case ScenarioEventKind::kSpawn:
        out << ",app=" << e.app << ",bench=" << parsec_code(*e.spawn.bench);
        if (e.spawn.threads > 0) out << ",threads=" << e.spawn.threads;
        if (e.spawn.fraction) {
          out << ",fraction=" << format_number(*e.spawn.fraction);
        }
        if (e.spawn.target) {
          out << ",min=" << format_number(e.spawn.target->min)
              << ",max=" << format_number(e.spawn.target->max);
        }
        break;
      case ScenarioEventKind::kKill:
        out << ",app=" << e.app;
        break;
      case ScenarioEventKind::kSetTarget:
        out << ",app=" << e.app << ",min=" << format_number(e.target.min)
            << ",max=" << format_number(e.target.max);
        break;
      case ScenarioEventKind::kSetPhase:
        out << ",app=" << e.app
            << ",scale=" << format_number(e.phase_scale);
        break;
      case ScenarioEventKind::kOfflineCores:
      case ScenarioEventKind::kOnlineCores:
        out << ",cores=" << format_core_set(e.cores);
        break;
    }
    out << '\n';
  }
}

std::string Scenario::to_dsl() const {
  std::ostringstream out;
  to_stream(out);
  return out.str();
}

ScenarioBuilder::ScenarioBuilder(std::string name) {
  scenario_.name = std::move(name);
}

ScenarioEvent& ScenarioBuilder::last_spawn() {
  for (auto it = scenario_.events.rbegin(); it != scenario_.events.rend(); ++it) {
    if (it->kind == ScenarioEventKind::kSpawn) return *it;
  }
  fail("builder: spawn() must come before per-spawn setters");
}

ScenarioBuilder& ScenarioBuilder::spawn(TimeUs t, std::string app,
                                        ParsecBenchmark bench) {
  ScenarioEvent e;
  e.time = t;
  e.kind = ScenarioEventKind::kSpawn;
  e.app = std::move(app);
  e.spawn.bench = bench;
  scenario_.events.push_back(std::move(e));
  return *this;
}

ScenarioBuilder& ScenarioBuilder::threads(int n) {
  last_spawn().spawn.threads = n;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::fraction(double f) {
  last_spawn().spawn.fraction = f;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::target(PerfTarget t) {
  last_spawn().spawn.target = t;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::kill(TimeUs t, std::string app) {
  ScenarioEvent e;
  e.time = t;
  e.kind = ScenarioEventKind::kKill;
  e.app = std::move(app);
  scenario_.events.push_back(std::move(e));
  return *this;
}

ScenarioBuilder& ScenarioBuilder::set_target(TimeUs t, std::string app,
                                             PerfTarget target) {
  ScenarioEvent e;
  e.time = t;
  e.kind = ScenarioEventKind::kSetTarget;
  e.app = std::move(app);
  e.target = target;
  scenario_.events.push_back(std::move(e));
  return *this;
}

ScenarioBuilder& ScenarioBuilder::set_phase(TimeUs t, std::string app,
                                            double scale) {
  ScenarioEvent e;
  e.time = t;
  e.kind = ScenarioEventKind::kSetPhase;
  e.app = std::move(app);
  e.phase_scale = scale;
  scenario_.events.push_back(std::move(e));
  return *this;
}

ScenarioBuilder& ScenarioBuilder::offline_cores(TimeUs t, CpuMask cores) {
  ScenarioEvent e;
  e.time = t;
  e.kind = ScenarioEventKind::kOfflineCores;
  e.cores = cores;
  scenario_.events.push_back(std::move(e));
  return *this;
}

ScenarioBuilder& ScenarioBuilder::online_cores(TimeUs t, CpuMask cores) {
  ScenarioEvent e;
  e.time = t;
  e.kind = ScenarioEventKind::kOnlineCores;
  e.cores = cores;
  scenario_.events.push_back(std::move(e));
  return *this;
}

Scenario ScenarioBuilder::build() const {
  Scenario out = scenario_;
  std::stable_sort(out.events.begin(), out.events.end(),
                   [](const ScenarioEvent& a, const ScenarioEvent& b) {
                     return a.time < b.time;
                   });
  out.validate();
  return out;
}

}  // namespace hars

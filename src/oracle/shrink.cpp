#include "oracle/shrink.hpp"

#include <algorithm>
#include <string>
#include <vector>

namespace hars {

namespace {

bool is_valid(const Scenario& s) {
  try {
    s.validate();
    return true;
  } catch (const ScenarioError&) {
    return false;
  }
}

/// Indices of events that can be dropped individually without orphaning
/// anything: every non-spawn event. Spawns only leave via whole-app
/// drops, which also remove their kills / retargets / phase flips.
std::vector<std::size_t> droppable_indices(const Scenario& s) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < s.events.size(); ++i) {
    if (s.events[i].kind != ScenarioEventKind::kSpawn) out.push_back(i);
  }
  return out;
}

std::vector<std::string> app_ids(const Scenario& s) {
  std::vector<std::string> out;
  for (const ScenarioEvent& e : s.events) {
    if (e.kind == ScenarioEventKind::kSpawn) out.push_back(e.app);
  }
  return out;
}

}  // namespace

Scenario shrink_scenario(
    const Scenario& failing,
    const std::function<bool(const Scenario&)>& still_fails,
    const ShrinkOptions& options, ShrinkStats* stats) {
  Scenario current = failing;
  ShrinkStats local;
  ShrinkStats& st = stats != nullptr ? *stats : local;
  st = ShrinkStats{};

  // Accepts `candidate` as the new current scenario when it is a real
  // reduction, still a valid scenario, and still failing.
  const auto try_accept = [&](Scenario candidate) {
    if (st.attempts >= options.max_attempts) return false;
    if (candidate == current || !is_valid(candidate)) return false;
    ++st.attempts;
    if (!still_fails(candidate)) return false;
    ++st.accepted;
    current = std::move(candidate);
    return true;
  };

  const auto budget_left = [&] { return st.attempts < options.max_attempts; };

  bool improved = true;
  while (improved && budget_left()) {
    improved = false;
    ++st.rounds;

    // 1. Drop whole apps (spawn + every dependent event).
    for (const std::string& id : app_ids(current)) {
      if (!budget_left()) break;
      Scenario candidate = current;
      candidate.events.erase(
          std::remove_if(candidate.events.begin(), candidate.events.end(),
                         [&](const ScenarioEvent& e) { return e.app == id; }),
          candidate.events.end());
      if (try_accept(std::move(candidate))) improved = true;
    }

    // 2. Drop chunks of non-spawn events, ddmin-style: halves first,
    // then quarters, down to single events.
    std::size_t chunk = std::max<std::size_t>(
        droppable_indices(current).size() / 2, 1);
    while (chunk >= 1 && budget_left()) {
      std::size_t start = 0;
      while (budget_left()) {
        const std::vector<std::size_t> droppable = droppable_indices(current);
        if (start >= droppable.size()) break;
        const std::size_t end = std::min(start + chunk, droppable.size());
        Scenario candidate;
        candidate.name = current.name;
        for (std::size_t i = 0; i < current.events.size(); ++i) {
          const bool dropped =
              std::find(droppable.begin() + static_cast<std::ptrdiff_t>(start),
                        droppable.begin() + static_cast<std::ptrdiff_t>(end),
                        i) != droppable.begin() + static_cast<std::ptrdiff_t>(end);
          if (!dropped) candidate.events.push_back(current.events[i]);
        }
        if (try_accept(std::move(candidate))) {
          improved = true;  // Indices shifted; retry from the same start.
        } else {
          start += chunk;
        }
      }
      if (chunk == 1) break;
      chunk /= 2;
    }

    // 3. Halve every event time (shorter repro horizon). Times stay
    // strictly positive for non-initial events so t=0 keeps its
    // reserved meaning and the initial-app count is unchanged.
    {
      Scenario candidate = current;
      for (ScenarioEvent& e : candidate.events) {
        if (e.time > 0) e.time = std::max<TimeUs>(e.time / 2, 1);
      }
      if (try_accept(std::move(candidate))) improved = true;
    }

    // 4. Simplify payloads event by event: default thread counts and
    // targets, nominal phase scales, single-core hotplug masks.
    for (std::size_t i = 0; i < current.events.size() && budget_left(); ++i) {
      const ScenarioEvent& e = current.events[i];
      std::vector<ScenarioEvent> simpler;
      if (e.kind == ScenarioEventKind::kSpawn) {
        if (e.spawn.threads != 0) {
          simpler.push_back(e);
          simpler.back().spawn.threads = 0;
        }
        if (e.spawn.fraction) {
          simpler.push_back(e);
          simpler.back().spawn.fraction.reset();
        }
        if (e.spawn.target) {
          simpler.push_back(e);
          simpler.back().spawn.target.reset();
        }
      } else if (e.kind == ScenarioEventKind::kSetPhase &&
                 e.phase_scale != 1.0) {
        simpler.push_back(e);
        simpler.back().phase_scale = 1.0;
      } else if ((e.kind == ScenarioEventKind::kOfflineCores ||
                  e.kind == ScenarioEventKind::kOnlineCores) &&
                 e.cores.count() > 1) {
        simpler.push_back(e);
        CpuMask single;
        single.set(e.cores.first());
        simpler.back().cores = single;
      }
      for (ScenarioEvent& variant_event : simpler) {
        if (!budget_left()) break;
        Scenario candidate = current;
        candidate.events[i] = variant_event;
        if (try_accept(std::move(candidate))) {
          improved = true;
          break;  // `e` is dangling relative to the new current.
        }
      }
    }
  }
  return current;
}

}  // namespace hars

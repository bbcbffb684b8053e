#include "scenario/scenario_runtime.hpp"

#include <algorithm>

#include "exp/calibration.hpp"
#include "hmp/sim_engine.hpp"

namespace hars {

void spawn_app(AppSlot& slot, Backend& backend, TimeUs now) {
  if (SimEngine* engine = backend.sim_engine()) {
    slot.app = slot.factory(slot.threads, slot.seed);
    slot.id = engine->add_app(slot.app.get());
  } else {
    WorkloadDesc desc;
    desc.label = slot.label;
    desc.threads = slot.threads;
    slot.id = backend.add_workload(desc);
  }
  slot.spawn_time = now;
  slot.spawned = true;
  slot.alive = true;
}

HeartbeatMonitor& slot_heartbeats(const AppSlot& slot, Backend& backend) {
  return slot.app ? slot.app->heartbeats() : backend.heartbeats(slot.id);
}

std::vector<PerfTarget> resolve_scenario_targets(const ExperimentSpec& spec,
                                                 const Scenario& scenario) {
  const auto spawns = scenario.spawns();
  std::vector<CalibrationRequest> requests;
  for (std::size_t i = 0; i < spawns.size(); ++i) {
    const ScenarioSpawn& spawn = spawns[i]->spawn;
    if (spawn.target) continue;
    requests.push_back({*spawn.bench,
                        spawn.threads > 0 ? spawn.threads : spec.threads,
                        spec.seed + i});
  }
  const std::vector<Calibration> cals =
      calibrate_benchmarks(spec.platform, requests);

  std::vector<PerfTarget> targets;
  targets.reserve(spawns.size());
  auto cal = cals.begin();
  for (const ScenarioEvent* event : spawns) {
    const ScenarioSpawn& spawn = event->spawn;
    if (spawn.target) {
      targets.push_back(*spawn.target);
      continue;
    }
    const double fraction =
        spawn.fraction ? *spawn.fraction : spec.target_fraction;
    targets.push_back((cal++)->target_for_fraction(fraction));
  }
  return targets;
}

std::vector<AppSlot> scenario_slots(const ExperimentSpec& spec,
                                    const Scenario& scenario) {
  const auto spawns = scenario.spawns();
  std::vector<AppSlot> slots(spawns.size());
  for (std::size_t i = 0; i < spawns.size(); ++i) {
    AppSlot& slot = slots[i];
    const ParsecBenchmark bench = *spawns[i]->spawn.bench;
    slot.label = spawns[i]->app;
    slot.factory = [bench](int threads, std::uint64_t seed) {
      return make_parsec_app(bench, threads, seed);
    };
    slot.threads = spawns[i]->spawn.threads > 0 ? spawns[i]->spawn.threads
                                                : spec.threads;
    slot.seed = spec.seed + i;
    slot.spawn_event = spawns[i];
  }
  return slots;
}

ScenarioRuntime::ScenarioRuntime(const Scenario& scenario, Backend& backend,
                                 std::vector<AppSlot>& slots)
    : scenario_(scenario),
      backend_(backend),
      engine_(*backend.sim_engine()),
      slots_(slots) {
  // validate() guarantees every t = 0 event is a spawn; the pipeline has
  // spawned those already.
  while (next_event_ < scenario_.events.size() &&
         scenario_.events[next_event_].time <= 0) {
    ++next_event_;
  }
}

void ScenarioRuntime::attach_capture(TraceSink& sink,
                                     const ExperimentSpec& spec) {
  TraceMeta meta;
  meta.scenario_dsl = scenario_.to_dsl();
  meta.platform = spec.platform.name;
  meta.variant = spec.variant;
  meta.seed = spec.seed;
  meta.threads = spec.threads;
  meta.duration_us = spec.duration;
  meta.fraction = spec.target_fraction;
  meta.sample_ticks = sink.sample_every_ticks();
  sink.write_meta(meta);
  capture_ = &sink;
  next_sample_ = engine_.now();  // The first hook call samples.
}

TimeUs ScenarioRuntime::next_due() const {
  TimeUs due = next_event_ < scenario_.events.size()
                   ? scenario_.events[next_event_].time
                   : SimEngine::kNeverDue;
  if (capture_ != nullptr) due = std::min(due, next_sample_);
  return due;
}

AppSlot& ScenarioRuntime::slot_of(const std::string& label) {
  for (AppSlot& slot : slots_) {
    if (slot.label == label) return slot;
  }
  throw ScenarioError("runtime: unknown app \"" + label + "\"");
}

void ScenarioRuntime::dispatch(const ScenarioEvent& event, TimeUs now) {
  switch (event.kind) {
    case ScenarioEventKind::kSpawn: {
      // Slot index = position among spawns (validate() forbids dup ids).
      for (AppSlot& slot : slots_) {
        if (slot.spawn_event != &event) continue;
        spawn_app(slot, backend_, now);
        backend_.heartbeats(slot.id).set_target(slot.target);
        if (variant_ != nullptr) variant_->on_app_spawn(slot.id, slot.target);
        return;
      }
      throw ScenarioError("runtime: spawn event without slot");
    }
    case ScenarioEventKind::kKill: {
      AppSlot& slot = slot_of(event.app);
      if (!slot.alive) return;
      if (variant_ != nullptr) variant_->on_app_kill(slot.id);
      engine_.remove_app(slot.id);
      slot.alive = false;
      slot.depart_time = now;
      return;
    }
    case ScenarioEventKind::kSetTarget: {
      AppSlot& slot = slot_of(event.app);
      if (!slot.alive) return;
      slot.target = event.target;
      slot.app->heartbeats().set_target(event.target);
      if (variant_ != nullptr) variant_->on_app_target(slot.id, event.target);
      return;
    }
    case ScenarioEventKind::kSetPhase: {
      AppSlot& slot = slot_of(event.app);
      if (!slot.alive) return;
      slot.app->set_phase_scale(event.phase_scale);
      return;
    }
    case ScenarioEventKind::kOfflineCores: {
      const Machine& m = backend_.topology();
      backend_.set_online_mask(m.online_mask() & ~event.cores);
      return;
    }
    case ScenarioEventKind::kOnlineCores: {
      const Machine& m = backend_.topology();
      backend_.set_online_mask(m.online_mask() | event.cores);
      return;
    }
  }
}

void ScenarioRuntime::on_tick(TimeUs now) {
  bool dispatched = false;
  while (next_event_ < scenario_.events.size() &&
         scenario_.events[next_event_].time <= now) {
    dispatch(scenario_.events[next_event_], now);
    ++next_event_;
    dispatched = true;
  }
  // Spawn/kill/hotplug events mutate engine tables mid-run; re-check the
  // tick-boundary-safe conservation invariants right after dispatching.
  if (dispatched && engine_.audit_enabled()) engine_.audit_now();
  // Quiet spans stop short of next_due(), so the hook is called at every
  // sample's tick: one sample per sample_every_ticks() ticks, from the
  // first call on.
  if (capture_ != nullptr && now >= next_sample_) {
    sample(now);
    next_sample_ = now + capture_->sample_every_ticks() * engine_.tick_us();
  }
}

void ScenarioRuntime::finish(TimeUs now) {
  if (capture_ != nullptr) sample(now);
}

void ScenarioRuntime::sample(TimeUs now) {
  const Machine& m = engine_.machine();
  const CpuMask online = m.online_mask();
  for (const AppSlot& slot : slots_) {
    if (!slot.alive) continue;
    // The app's allocated cores: the union of its threads' affinities,
    // intersected with the online mask, split by the managed pools.
    CpuMask allowed;
    for (const SimThread& t : engine_.threads()) {
      if (t.app == slot.id) allowed = allowed | t.affinity;
    }
    allowed = allowed & online;
    const HeartbeatMonitor& hb = slot.app->heartbeats();
    Record r;
    r.set("kind", "sample");
    r.set("t_us", static_cast<std::int64_t>(now));
    r.set("app", slot.label);
    r.set("beats", hb.count());
    r.set("hps", hb.rate());
    r.set("target_min", slot.target.min);
    r.set("target_max", slot.target.max);
    r.set("big_cores", (allowed & m.fastest_mask()).count());
    r.set("little_cores", (allowed & m.slowest_mask()).count());
    r.set("big_freq_ghz", m.freq_ghz(m.fastest_cluster()));
    r.set("little_freq_ghz", m.freq_ghz(m.slowest_cluster()));
    r.set("online", online.count());
    r.set("power_w", engine_.sensor().instantaneous_power_w());
    capture_->write(r);
  }
}

}  // namespace hars

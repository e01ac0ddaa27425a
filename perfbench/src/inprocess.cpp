// The in-process workloads, paper and city.
//
// The untraced phase drives the library's SlotStepper (generate, decide,
// validate, score, observe) and times each step(). The traced phase
// makes the same calls by hand — SlotSource::generate_slot,
// LfscPolicy::select, validate_assignment, evaluate_slot, make_feedback,
// LfscPolicy::observe — with a span around each, and must reproduce the
// untraced reward bit for bit.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "harness/paper_setup.h"
#include "harness/step_runner.h"
#include "lfsc/lfsc_policy.h"
#include "metrics/metrics.h"
#include "metrics/recorder.h"
#include "quality.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using lfsc::PaperSetup;

/// World + policy + stepper constructions timed before each episode;
/// setup_s is the median of each such round, averaged over the rounds.
constexpr int kSetupRound = 11;

/// What distinguishes paper from city.
struct Shape {
  int scns = 30;
  bool parallel = false;
  int episode_len = 0;     ///< slots per episode; 0 = one open-ended episode
  int reward_window = 0;   ///< slots the reward metrics average over
  int tail_cap = 99;       ///< highest tail percentile reported
  std::size_t min_timed = 0;  ///< timed slots the tail percentile needs
  int warmup = 0;          ///< untimed slots at the start of a phase
  std::size_t p50_block = 100;  ///< slots per block of slot_ms_p50
  /// Slots between set-up rounds once the reward window has closed
  /// (0 = rounds only before each episode).
  int setup_every = 0;
};

Shape shape_of(const Options& opt) {
  Shape s;
  if (opt.workload == "paper") {
    s.episode_len = opt.tiny ? 300 : 10000;
    s.reward_window = s.episode_len;
    s.tail_cap = 99;
    s.min_timed = opt.tiny ? 0 : 1000;
  } else {
    s.scns = opt.tiny ? 64 : 2000;
    s.parallel = true;
    s.reward_window = opt.tiny ? 20 : 100;
    s.tail_cap = 90;
    s.min_timed = opt.tiny ? 0 : 100;
    s.warmup = 2;
    s.p50_block = 10;
    s.setup_every = 25;
  }
  return s;
}

struct World {
  explicit World(const PaperSetup& setup)
      : sim(setup.make_simulator()), policy(setup.net, setup.lfsc) {}
  lfsc::Simulator sim;
  lfsc::LfscPolicy policy;
};

Quality totals_of(const lfsc::SeriesRecorder& rec) {
  return {rec.total_reward(), rec.total_qos_violation(),
          rec.total_resource_violation()};
}

/// Forwards to the world and remembers the slot it filled last, so the
/// reference can be scored after the step, outside the timed call. The
/// stepper keeps that slot untouched until its next step().
class ObservedSource final : public lfsc::SlotSource {
 public:
  explicit ObservedSource(lfsc::SlotSource& inner) : inner_(inner) {}
  lfsc::Slot generate_slot(int t) override {
    return inner_.generate_slot(t);
  }
  void generate_slot(int t, lfsc::Slot& out) override {
    inner_.generate_slot(t, out);
    last_ = &out;
  }
  const lfsc::NetworkConfig& network() const noexcept override {
    return inner_.network();
  }
  const lfsc::Slot& last() const { return *last_; }

 private:
  lfsc::SlotSource& inner_;
  const lfsc::Slot* last_ = nullptr;
};

/// Policy-internal timers, summed over the phase's episodes.
struct PolicyTotals {
  double alg2_s = 0.0;
  double alg4_s = 0.0;
  double alg3_s = 0.0;
  double improve_moves = 0.0;
  std::vector<double> shard_busy_s;

  void add(const lfsc::LfscPolicy& policy) {
    for (const auto& snap : policy.telemetry().snapshot()) {
      if (snap.name == "lfsc.alg2.calculating") alg2_s += snap.sum;
      if (snap.name == "lfsc.alg4.greedy_select") alg4_s += snap.sum;
      if (snap.name == "lfsc.alg3.updating") alg3_s += snap.sum;
      if (snap.name == "lfsc.improve.moves") {
        improve_moves += static_cast<double>(snap.count);
      }
      if (snap.name == "lfsc.shard.busy") {
        shard_busy_s.resize(
            std::max(shard_busy_s.size(), snap.stream_values.size()), 0.0);
        for (std::size_t i = 0; i < snap.stream_values.size(); ++i) {
          shard_busy_s[i] += snap.stream_values[i];
        }
      }
    }
  }

};

struct Phase {
  std::vector<double> slot_ms;  ///< timed slots
  double wall_s = 0.0;          ///< summed wall time of the timed slots
  std::int64_t slots = 0;       ///< every slot stepped, warmup included
  std::optional<Quality> window;  ///< totals at the reward window, episode 1
  double peak_rss_mb = 0.0;  ///< peak RSS when the reward window closed
  Quality reference;  ///< reference selection over the reward window
  double assigned = 0.0;        ///< tasks assigned (traced phase only)
  PolicyTotals policy;

  double slots_per_s() const {
    return wall_s > 0.0 ? static_cast<double>(slot_ms.size()) / wall_s : 0.0;
  }
};

/// Span layers of the traced phase, in slot order.
struct Layers {
  explicit Layers(Tracer& t)
      : slot(t.layer("slot")),
        generate(t.layer("sim.generate")),
        select(t.layer("lfsc.select")),
        validate(t.layer("metrics.validate")),
        evaluate(t.layer("metrics.evaluate")),
        feedback(t.layer("metrics.feedback")),
        observe(t.layer("lfsc.observe")) {}
  int slot, generate, select, validate, evaluate, feedback, observe;
};

/// Steps one episode's slots: the SlotStepper (untraced) or the same
/// calls made by hand with a span around each (traced). step() returns
/// false when the slot's assignment failed validation.
class EpisodeRunner {
 public:
  EpisodeRunner(World& world, const PaperSetup& setup, Tracer* tracer)
      : world_(world), tracer_(tracer), net_(world.sim.network()) {
    if (tracer_ == nullptr) {
      lfsc::StepConfig config;
      config.horizon = static_cast<int>(setup.lfsc.horizon);
      config.validate = true;
      stepper_ = std::make_unique<lfsc::SlotStepper>(observed_, roster_,
                                                     config);
    } else {
      layers_.emplace(*tracer_);
    }
  }

  bool step(int t, std::int64_t id, std::string& error, double& assigned) {
    if (stepper_ != nullptr) {
      try {
        stepper_->step();
      } catch (const std::logic_error& e) {
        error = e.what();
        return false;
      }
      return true;
    }
    Tracer& tr = *tracer_;
    const Layers& l = *layers_;
    const std::size_t root = tr.begin(l.slot, id);
    {
      const Tracer::Scope span(tr, l.generate, id);
      world_.sim.generate_slot(t, slot_);
    }
    {
      const Tracer::Scope span(tr, l.select, id);
      world_.policy.select(slot_.info, assignment_);
    }
    std::optional<std::string> invalid;
    {
      const Tracer::Scope span(tr, l.validate, id);
      invalid = lfsc::validate_assignment(slot_.info, assignment_, net_);
    }
    if (invalid) {
      tr.end(root);
      error = *invalid;
      return false;
    }
    {
      const Tracer::Scope span(tr, l.evaluate, id);
      series_.add(lfsc::evaluate_slot(slot_, assignment_, net_));
    }
    {
      const Tracer::Scope span(tr, l.feedback, id);
      feedback_ = lfsc::make_feedback(slot_, assignment_);
    }
    {
      const Tracer::Scope span(tr, l.observe, id);
      world_.policy.observe(slot_.info, assignment_, feedback_);
    }
    tr.end(root);
    std::size_t edges = 0;
    for (const auto& cov : slot_.info.coverage) edges += cov.size();
    tr.count("sim.tasks", static_cast<double>(slot_.info.tasks.size()));
    tr.count("sim.edges", static_cast<double>(edges));
    assigned += static_cast<double>(assignment_.total_selected());
    return true;
  }

  Quality totals() const {
    return totals_of(stepper_ != nullptr ? stepper_->series()[0] : series_);
  }

  /// The slot the last step() ran on.
  const lfsc::Slot& last_slot() const {
    return stepper_ != nullptr ? observed_.last() : slot_;
  }

 private:
  World& world_;
  Tracer* tracer_;
  lfsc::NetworkConfig net_;
  ObservedSource observed_{world_.sim};
  std::array<lfsc::Policy*, 1> roster_{&world_.policy};
  std::unique_ptr<lfsc::SlotStepper> stepper_;
  std::optional<Layers> layers_;
  lfsc::SeriesRecorder series_{"LFSC"};
  lfsc::Slot slot_;
  lfsc::Assignment assignment_;
  lfsc::SlotFeedback feedback_;
};

/// Appends the durations of `reps` world + policy + stepper
/// constructions to `samples`.
void time_setup(const PaperSetup& setup, int reps,
                std::vector<double>& samples) {
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    World world(setup);
    std::array<lfsc::Policy*, 1> roster{&world.policy};
    lfsc::StepConfig config;
    config.horizon = static_cast<int>(setup.lfsc.horizon);
    const lfsc::SlotStepper stepper(world.sim, roster, config);
    samples.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
  }
}

/// Runs whole episodes (paper) or one open-ended episode (city) until
/// `budget_s` has passed and the phase holds `min_timed` timed slots.
/// With `setup_samples`, a round of set-up timings precedes each
/// episode, and one follows every `setup_every` slots once the reward
/// window (and with it the peak RSS reading) is behind.
Phase run_phase(const Options& opt, const Shape& shape,
                const PaperSetup& setup, double budget_s, Tracer* tracer,
                std::vector<double>* setup_samples, Report& report) {
  Phase phase;
  std::vector<std::size_t> scratch;
  const auto begin = Clock::now();
  for (int episode = 0;; ++episode) {
    if (setup_samples != nullptr) {
      time_setup(setup, kSetupRound, *setup_samples);
    }
    World world(setup);
    EpisodeRunner runner(world, setup, tracer);
    bool done = false;
    for (int t = 1;; ++t) {
      const auto t0 = Clock::now();
      std::string error;
      ++report.attempted;
      const bool ok = runner.step(t, phase.slots + 1, error, phase.assigned);
      const auto t1 = Clock::now();
      ++phase.slots;
      if (!ok) {
        ++report.failed;
        report.fail("slot " + std::to_string(t) + ": " + error);
        return phase;
      }
      if (phase.slots > shape.warmup) {
        phase.wall_s += std::chrono::duration<double>(t1 - t0).count();
        phase.slot_ms.push_back(ms_between(t0, t1));
      }
      if (episode == 0 && t <= shape.reward_window) {
        phase.reference +=
            reference_quality(runner.last_slot(), setup.net, scratch);
      }
      if (t == shape.reward_window) {
        const Quality totals = runner.totals();
        if (!phase.window) {
          phase.window = totals;
          phase.peak_rss_mb = self_peak_rss_mb();
        } else {
          check_identical(opt, report, "episode replay reward",
                          phase.window->reward, totals.reward);
        }
      }
      if (setup_samples != nullptr && shape.setup_every > 0 &&
          t > shape.reward_window && t % shape.setup_every == 0) {
        time_setup(setup, kSetupRound, *setup_samples);
      }
      const double elapsed =
          std::chrono::duration<double>(Clock::now() - begin).count();
      done = phase.slot_ms.size() >= shape.min_timed && elapsed >= budget_s;
      if (shape.episode_len > 0 ? t == shape.episode_len
                                : t >= shape.reward_window && done) {
        break;
      }
    }
    phase.policy.add(world.policy);
    if (shape.episode_len == 0 || done) break;
  }
  return phase;
}

void report_end_to_end(const Shape& shape, const Phase& phase,
                       double setup_s, Report& report) {
  const int pct = tail_percentile(phase.slot_ms.size(), shape.tail_cap);
  if (pct == 0) throw std::runtime_error("too few timed slots for a tail");
  report.set("slots_per_s", phase.slots_per_s());
  report.set("slot_ms_p50", blocked_median(phase.slot_ms, shape.p50_block));
  report.set("slot_ms_tail", percentile(phase.slot_ms, pct));
  report.set("setup_s", setup_s);
  report.set("peak_rss_mb", phase.peak_rss_mb);
  if (phase.window) {
    report.set("reward_ratio", phase.window->reward / phase.reference.reward);
  }
  std::printf("timed slots %zu, tail percentile p%d, reward window %d slots\n",
              phase.slot_ms.size(), pct, shape.reward_window);
}

void report_layers(const Shape& shape, const PaperSetup& setup,
                   const Phase& untraced, const Phase& traced,
                   const Tracer& tracer, Report& report) {
  const int pct = std::max(tail_percentile(traced.slots, shape.tail_cap), 50);
  const auto summaries = tracer.summarize();
  const auto find = [&](const std::string& name) {
    return Tracer::find(summaries, name);
  };
  const auto slots = static_cast<double>(traced.slots);
  const double slot_ms = find("slot").total_ms;
  for (const std::string name : {"sim.generate", "lfsc.select",
                                 "lfsc.observe"}) {
    const auto s = find(name);
    report.set(name + ".ms_p50", percentile(s.durations_ms, 50));
    report.set(name + ".ms_tail", percentile(s.durations_ms, pct));
    report.set(name + ".share", s.self_ms / slot_ms);
  }
  for (const std::string name :
       {"metrics.validate", "metrics.evaluate", "metrics.feedback"}) {
    report.set(name + ".ms_per_slot", find(name).total_ms / slots);
  }
  report.set("sim.tasks_per_slot", tracer.count_total("sim.tasks") / slots);
  report.set("sim.edges_per_slot", tracer.count_total("sim.edges") / slots);
  report.set("lfsc.alg2.calculating.ms_per_slot",
             1e3 * traced.policy.alg2_s / slots);
  report.set("lfsc.alg4.greedy_select.ms_per_slot",
             1e3 * traced.policy.alg4_s / slots);
  report.set("lfsc.alg3.updating.ms_per_slot",
             1e3 * traced.policy.alg3_s / slots);
  report.set("lfsc.improve.moves", traced.policy.improve_moves);
  report.set("lfsc.shard.busy.imbalance",
             busy_imbalance(traced.policy.shard_busy_s));
  report.set("lfsc.fill_ratio",
             traced.assigned / (slots * setup.net.capacity_c * shape.scns));
  report.set("trace.overhead",
             untraced.slots_per_s() / traced.slots_per_s());
  report.set("trace.residual.share", find("slot").self_ms / slot_ms);
  report.set("trace.slots", slots);
  if (traced.window) {
    report_quality(*traced.window, traced.reference, shape.reward_window,
                   report);
  }
  print_layer_table(tracer, "slot");
}

}  // namespace

void run_in_process(const Options& opt, Report& report) {
  const Shape shape = shape_of(opt);
  PaperSetup setup;
  setup.set_seed(opt.seed);
  setup.set_num_scns(shape.scns);
  setup.set_horizon(10000);

  // Thread budget: the main thread blocks while the pool runs a
  // sharded phase, so main thread + workers <= usable CPUs.
  std::unique_ptr<lfsc::ThreadPool> pool;
  int threads = 1;
  if (shape.parallel) {
    const int workers = std::max(1, usable_cpus() - 1);
    pool = std::make_unique<lfsc::ThreadPool>(
        static_cast<std::size_t>(workers));
    setup.lfsc.parallel_scns = true;
    setup.lfsc.pool = pool.get();
    threads = 1 + workers;
  }
  std::printf("workload %s: %d SCNs, seed %llu, threads %d (main + %d "
              "pool workers), peers 0\n",
              opt.workload.c_str(), shape.scns,
              static_cast<unsigned long long>(opt.seed), threads,
              threads - 1);

  if (!opt.trace) {
    std::vector<double> setups;
    const Phase phase =
        run_phase(opt, shape, setup, opt.seconds, nullptr, &setups, report);
    report_end_to_end(shape, phase, blocked_median(setups, kSetupRound),
                      report);
    return;
  }
  const double half = opt.seconds / 2.0;
  const Phase untraced =
      run_phase(opt, shape, setup, half, nullptr, nullptr, report);
  Tracer tracer;
  const Phase traced =
      run_phase(opt, shape, setup, half, &tracer, nullptr, report);
  if (untraced.window && traced.window) {
    check_identical(opt, report, "traced vs untraced reward",
                    untraced.window->reward, traced.window->reward);
  } else {
    report.fail("a phase ended before its reward window");
  }
  report_layers(shape, setup, untraced, traced, tracer, report);
  report.set("run.threads", threads);
  report.set("run.peers", 0);
  if (!opt.trace_out.empty() && !tracer.write_chrome_trace(opt.trace_out)) {
    throw std::runtime_error("cannot write " + opt.trace_out);
  }
}

}  // namespace perfbench

#include "core/experiment.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>
#include <utility>

#include "mpi/world.h"
#include "runner/sweep.h"
#include "sim/machine.h"
#include "trace/recorder.h"
#include "util/error.h"
#include "util/log.h"

namespace psk::core {

namespace {
/// Sizes and Ks are cached by a fixed-point key (microsecond resolution).
long long size_key(double value) {
  return static_cast<long long>(std::llround(value * 1e6));
}

/// Scaling factor K that shrinks `trace` to a skeleton of `size_seconds`.
double k_for(const trace::Trace& trace, double size_seconds) {
  return std::max(1.0, trace.elapsed() / size_seconds);
}

/// Seed offsets of the measurement runs: a distinct stream per repetition
/// and, for skeletons, per size.
std::uint64_t app_seed(int repetition) {
  return static_cast<std::uint64_t>(repetition) * 13;
}
std::uint64_t skeleton_seed(double size_seconds, int repetition) {
  return 1 +
         static_cast<std::uint64_t>(std::llabs(size_key(size_seconds)) % 97) +
         static_cast<std::uint64_t>(repetition) * 31;
}

/// Looks `key` up in `times` under `mutex`; on a miss computes the value
/// unlocked and installs it.  Racing misses compute the same value twice:
/// the simulations are deterministic.
template <typename Times, typename Key, typename Compute>
double cached_time(std::mutex& mutex, Times& times, const Key& key,
                   const Compute& compute) {
  {
    std::lock_guard<std::mutex> lock(mutex);
    const auto it = times.find(key);
    if (it != times.end()) return it->second;
  }
  const double elapsed = compute();
  std::lock_guard<std::mutex> lock(mutex);
  return times.try_emplace(key, elapsed).first->second;
}

/// Injects the driver's profiler unless the caller supplied one; returns
/// the options for the framework member initializer.
core::FrameworkOptions& ensure_profiler(core::FrameworkOptions& options,
                                        obs::PhaseProfiler* phases) {
  if (options.profiler == nullptr) options.profiler = phases;
  return options;
}
}  // namespace

ExperimentDriver::ExperimentDriver(ExperimentConfig config)
    : config_(std::move(config)),
      framework_(ensure_profiler(config_.framework, &phases_)) {}

mpi::RankMain ExperimentDriver::program(const std::string& app,
                                        apps::NasClass cls) const {
  return apps::find_benchmark(app).make(cls);
}

const trace::Trace& ExperimentDriver::app_trace(const std::string& app) {
  auto it = traces_.find(app);
  if (it == traces_.end()) {
    util::log_info() << "tracing " << app << " (class "
                     << apps::class_name(config_.app_class) << ")";
    it = traces_
             .emplace(app,
                      framework_.record(program(app, config_.app_class), app))
             .first;
  }
  return it->second;
}

double ExperimentDriver::compute_app_time(const std::string& app,
                                          apps::NasClass cls,
                                          const scenario::Scenario& scenario,
                                          std::uint64_t seed_offset) const {
  obs::PhaseProfiler::Scope scope(framework_.options().profiler, "measure");
  const auto execute = [&] {
    return framework_.run_app(program(app, cls), scenario, seed_offset);
  };
  cache::ResultCache* cache = framework_.options().result_cache.get();
  if (cache == nullptr) return execute();
  // The (benchmark, NAS class) pair identifies the workload: app programs
  // are deterministic generators of their inputs.
  const cache::CacheKey key =
      cache::app_run_key(app, apps::class_name(cls), scenario,
                         framework_.run_context(seed_offset));
  return cache::memoize_scalar(cache, key, execute);
}

double ExperimentDriver::app_time(const std::string& app,
                                  const scenario::Scenario& scenario,
                                  int repetition) {
  return cached_time(
      time_mutex_, app_times_,
      std::make_tuple(app, std::string(scenario.name), repetition), [&] {
        return compute_app_time(app, config_.app_class, scenario,
                                app_seed(repetition));
      });
}

double ExperimentDriver::class_s_time(const std::string& app,
                                      const scenario::Scenario& scenario) {
  return cached_time(
      time_mutex_, class_s_times_,
      std::make_pair(app, std::string(scenario.name)), [&] {
        return compute_app_time(app, apps::NasClass::kS, scenario,
                                /*seed_offset=*/7);
      });
}

const sig::Signature& ExperimentDriver::signature(const std::string& app,
                                                  double k) {
  const auto key = std::make_pair(app, size_key(k));
  auto it = signatures_.find(key);
  if (it == signatures_.end()) {
    util::log_info() << "compressing " << app << " for K=" << k;
    it = signatures_.emplace(key, framework_.make_signature(app_trace(app), k))
             .first;
  }
  return it->second;
}

const skeleton::Skeleton& ExperimentDriver::skeleton_for_size(
    const std::string& app, double size_seconds) {
  const auto key = std::make_pair(app, size_key(size_seconds));
  auto it = skeletons_.find(key);
  if (it == skeletons_.end()) {
    const trace::Trace& trace = app_trace(app);
    it = skeletons_
             .emplace(key, framework_.make_consistent_skeleton(
                               trace, k_for(trace, size_seconds)))
             .first;
  }
  return it->second;
}

double ExperimentDriver::compute_skeleton_time(
    const skeleton::Skeleton& skeleton, double size_seconds,
    const scenario::Scenario& scenario, int repetition) const {
  obs::PhaseProfiler::Scope scope(framework_.options().profiler, "measure");
  return framework_.run_skeleton(skeleton, scenario,
                                 skeleton_seed(size_seconds, repetition));
}

double ExperimentDriver::observe_app(const std::string& app,
                                     const scenario::Scenario& scenario,
                                     obs::Recorder& recorder) {
  recorder.metrics().set_info("app", app);
  recorder.metrics().set_info("class", apps::class_name(config_.app_class));
  return framework_.run_app(program(app, config_.app_class), scenario,
                            /*seed_offset=*/0, &recorder);
}

double ExperimentDriver::observe_skeleton(const std::string& app,
                                          double size_seconds,
                                          const scenario::Scenario& scenario,
                                          obs::Recorder& recorder) {
  const skeleton::Skeleton& skel = skeleton_for_size(app, size_seconds);
  recorder.metrics().set_info("app", app + "-skeleton");
  recorder.metrics().set_info("class", apps::class_name(config_.app_class));
  // The first repetition's seed, so the instrumented timeline matches the
  // first measured cell exactly.
  return framework_.run_skeleton(skel, scenario, skeleton_seed(size_seconds, 0),
                                 {}, &recorder);
}

double ExperimentDriver::skeleton_time(const std::string& app,
                                       double size_seconds,
                                       const scenario::Scenario& scenario,
                                       int repetition) {
  return cached_time(time_mutex_, skeleton_times_,
                     std::make_tuple(app, size_key(size_seconds),
                                     std::string(scenario.name), repetition),
                     [&] {
                       return compute_skeleton_time(
                           skeleton_for_size(app, size_seconds), size_seconds,
                           scenario, repetition);
                     });
}

double ExperimentDriver::reference_size() const {
  // At least as deep as the smallest configured skeleton (and never
  // shallower than a 0.5 s one), so the dominant loop structure is visible
  // regardless of which sizes the caller requested.
  double size = 0.5;
  for (double configured : config_.skeleton_sizes) {
    size = std::min(size, configured);
  }
  return size;
}

const skeleton::GoodSkeletonEstimate& ExperimentDriver::good_estimate(
    const std::string& app) {
  auto it = good_estimates_.find(app);
  if (it == good_estimates_.end()) {
    const double k = k_for(app_trace(app), reference_size());
    it = good_estimates_
             .emplace(app, skeleton::estimate_good_skeleton(signature(app, k)))
             .first;
  }
  return it->second;
}

PredictionRecord ExperimentDriver::predict(
    const std::string& app, double size_seconds,
    const scenario::Scenario& scenario) {
  const skeleton::Skeleton& skel = skeleton_for_size(app, size_seconds);

  PredictionRecord record;
  record.app = app;
  record.target_size = size_seconds;
  record.scenario = scenario.name;
  record.scaling_factor = skel.scaling_factor;
  const skeleton::GoodSkeletonEstimate& estimate = good_estimate(app);
  record.min_good_time = estimate.min_good_time;
  record.good = skel.intended_time >= estimate.min_good_time;
  record.app_dedicated = app_trace(app).elapsed();
  record.skeleton_dedicated =
      skeleton_time(app, size_seconds, scenario::dedicated());

  skeleton::Calibration calibration;
  calibration.app_dedicated_time = record.app_dedicated;
  calibration.skeleton_dedicated_time = record.skeleton_dedicated;

  // Average the prediction error over independent measurement pairs; the
  // reported times are the first pair's (representative sample).
  const int repetitions = std::max(1, config_.repetitions);
  double error_sum = 0;
  for (int repetition = 0; repetition < repetitions; ++repetition) {
    const double skeleton_scenario =
        skeleton_time(app, size_seconds, scenario, repetition);
    const double app_scenario = app_time(app, scenario, repetition);
    const double predicted =
        skeleton::predict_app_time(calibration, skeleton_scenario);
    error_sum +=
        skeleton::prediction_error_percent(predicted, app_scenario);
    if (repetition == 0) {
      record.skeleton_scenario = skeleton_scenario;
      record.app_scenario = app_scenario;
      record.predicted = predicted;
    }
  }
  record.error_percent = error_sum / repetitions;
  return record;
}

std::vector<GridCell> ExperimentDriver::grid_cells() const {
  std::vector<GridCell> cells;
  cells.reserve(config_.benchmarks.size() * config_.skeleton_sizes.size() *
                scenario::paper_scenarios().size());
  for (const std::string& app : config_.benchmarks) {
    for (double size : config_.skeleton_sizes) {
      for (const scenario::Scenario& scenario : scenario::paper_scenarios()) {
        cells.push_back(GridCell{app, size, &scenario});
      }
    }
  }
  return cells;
}

void ExperimentDriver::warm(const std::vector<GridCell>& cells) {
  sweep_plan(cells, /*measure=*/false);
}

void ExperimentDriver::sweep_plan(const std::vector<GridCell>& cells,
                                  bool measure) {
  // One unit per still-uncached product the cells need, listed in
  // dependency order -- traces, constructions, skeleton runs, app runs --
  // so the sweep's lowest-index-first scheduler hands idle workers
  // construction before runs; app runs need nothing and start at once.
  // Each unit writes its own slot, a node of a map private to the plan.
  // The maps are merged into the driver's caches after the sweep, on this
  // thread, because those caches hand out long-lived references.
  std::vector<std::function<void()>> units;
  std::vector<std::vector<std::size_t>> successors;
  using Input = std::optional<std::size_t>;  // the unit producing an input
  const auto add = [&](Input input, std::function<void()> body) -> Input {
    if (input) successors[*input].push_back(units.size());
    units.push_back(std::move(body));
    successors.emplace_back();
    return units.size() - 1;
  };

  decltype(traces_) traced;
  std::map<std::string, std::pair<const trace::Trace*, Input>> trace_of;
  for (const GridCell& cell : cells) {
    const std::string& app = cell.app;
    if (trace_of.count(app) != 0) continue;
    if (const auto it = traces_.find(app); it != traces_.end()) {
      trace_of[app] = {&it->second, std::nullopt};
      continue;
    }
    util::log_info() << "tracing " << app << " (class "
                     << apps::class_name(config_.app_class) << ")";
    trace::Trace& slot = traced[app];
    trace_of[app] = {&slot, add(std::nullopt, [this, &slot, &app] {
                       slot = framework_.record(
                           program(app, config_.app_class), app);
                     })};
  }

  // Constructions: one consistent skeleton per (benchmark, size) and the
  // reference signature behind each benchmark's good-skeleton estimate.
  // K depends on the traced time, so the units derive it themselves.
  decltype(skeletons_) built;
  std::map<std::string, sig::Signature> references;
  std::map<std::pair<std::string, long long>,
           std::pair<const skeleton::Skeleton*, Input>>
      skeleton_of;
  for (const GridCell& cell : cells) {
    const auto [trace, traced_by] = trace_of.at(cell.app);
    const auto key = std::make_pair(cell.app, size_key(cell.size_seconds));
    if (const auto it = skeletons_.find(key); it != skeletons_.end()) {
      skeleton_of.try_emplace(key, &it->second, std::nullopt);
    } else if (skeleton_of.count(key) == 0) {
      skeleton::Skeleton& slot = built[key];
      skeleton_of[key] = {
          &slot, add(traced_by, [this, &slot, trace = trace,
                                 size = cell.size_seconds] {
            slot = framework_.make_consistent_skeleton(*trace,
                                                       k_for(*trace, size));
          })};
    }
    if (good_estimates_.count(cell.app) == 0 &&
        references.count(cell.app) == 0) {
      add(traced_by, [this, &slot = references[cell.app], trace = trace] {
        slot = framework_.make_signature(*trace,
                                         k_for(*trace, reference_size()));
      });
    }
  }

  // Measurement runs, each once: the dedicated calibration run every cell
  // shares and the skeleton runs of each (size, scenario, repetition), then
  // the app runs of each (scenario, repetition), shared by every size.
  decltype(skeleton_times_) skeleton_runs;
  decltype(app_times_) app_runs;
  const auto run_skeleton = [&](const GridCell& cell,
                                const scenario::Scenario& scenario,
                                int repetition) {
    const auto key = std::make_tuple(cell.app, size_key(cell.size_seconds),
                                     std::string(scenario.name), repetition);
    if (skeleton_times_.count(key) != 0 || skeleton_runs.count(key) != 0) {
      return;
    }
    const auto [skel, built_by] =
        skeleton_of.at({cell.app, size_key(cell.size_seconds)});
    add(built_by, [this, &slot = skeleton_runs[key], skel = skel,
                   size = cell.size_seconds, &scenario, repetition] {
      slot = compute_skeleton_time(*skel, size, scenario, repetition);
    });
  };
  const auto run_app = [&](const GridCell& cell, int repetition) {
    const auto key = std::make_tuple(
        cell.app, std::string(cell.scenario->name), repetition);
    if (app_times_.count(key) != 0 || app_runs.count(key) != 0) return;
    add(std::nullopt, [this, &slot = app_runs[key], &cell, repetition] {
      slot = compute_app_time(cell.app, config_.app_class, *cell.scenario,
                              app_seed(repetition));
    });
  };
  if (measure) {
    const int repetitions = std::max(1, config_.repetitions);
    for (const GridCell& cell : cells) {
      run_skeleton(cell, scenario::dedicated(), 0);
      for (int repetition = 0; repetition < repetitions; ++repetition) {
        run_skeleton(cell, *cell.scenario, repetition);
      }
    }
    for (const GridCell& cell : cells) {
      for (int repetition = 0; repetition < repetitions; ++repetition) {
        run_app(cell, repetition);
      }
    }
  }

  runner::SweepOptions sweep_options;
  sweep_options.jobs = config_.jobs;
  sweep_options.profiler = &phases_;
  runner::sweep(
      units.size(), successors, [&](std::size_t i) { units[i](); },
      sweep_options);
  traces_.merge(traced);
  skeletons_.merge(built);
  for (auto& [app, reference] : references) {
    const double k = k_for(traces_.at(app), reference_size());
    const auto it = signatures_
                        .emplace(std::make_pair(app, size_key(k)),
                                 std::move(reference))
                        .first;
    good_estimates_.emplace(app,
                            skeleton::estimate_good_skeleton(it->second));
  }
  std::lock_guard<std::mutex> lock(time_mutex_);
  skeleton_times_.merge(skeleton_runs);
  app_times_.merge(app_runs);
}

std::vector<PredictionRecord> ExperimentDriver::predict_cells(
    const std::vector<GridCell>& cells) {
  if (runner::resolve_jobs(config_.jobs) > 1 && cells.size() > 1) {
    sweep_plan(cells, /*measure=*/true);
  }
  // With the caches populated this loop is pure arithmetic; with jobs=1 it
  // is exactly the historical serial path, computing lazily as it goes.
  std::vector<PredictionRecord> records;
  records.reserve(cells.size());
  for (const GridCell& cell : cells) {
    records.push_back(predict(cell.app, cell.size_seconds, *cell.scenario));
  }
  return records;
}

std::vector<PredictionRecord> ExperimentDriver::run_grid() {
  return predict_cells(grid_cells());
}

trace::ActivityBreakdown ExperimentDriver::app_activity(
    const std::string& app) {
  return trace::activity_breakdown(app_trace(app));
}

trace::ActivityBreakdown ExperimentDriver::skeleton_activity(
    const std::string& app, double size_seconds) {
  const skeleton::Skeleton& skel = skeleton_for_size(app, size_seconds);
  sim::ClusterConfig cluster = config_.framework.cluster;
  cluster.seed = config_.framework.dedicated_seed;
  sim::Machine machine(cluster);
  mpi::World world(machine, config_.framework.ranks,
                   config_.framework.mpi);
  const trace::Trace trace = trace::record_run(
      world, skeleton::skeleton_program(skel), app + "-skeleton");
  return trace::activity_breakdown(trace);
}

PredictionRecord ExperimentDriver::predict_with_class_s(
    const std::string& app, const scenario::Scenario& scenario) {
  PredictionRecord record;
  record.app = app;
  record.scenario = scenario.name;
  record.app_dedicated = app_time(app, scenario::dedicated());
  record.skeleton_dedicated = class_s_time(app, scenario::dedicated());
  record.skeleton_scenario = class_s_time(app, scenario);
  record.app_scenario = app_time(app, scenario);

  skeleton::Calibration calibration;
  calibration.app_dedicated_time = record.app_dedicated;
  calibration.skeleton_dedicated_time = record.skeleton_dedicated;
  record.predicted =
      skeleton::predict_app_time(calibration, record.skeleton_scenario);
  record.error_percent = skeleton::prediction_error_percent(
      record.predicted, record.app_scenario);
  return record;
}

PredictionRecord ExperimentDriver::predict_with_average(
    const std::string& app, const scenario::Scenario& scenario) {
  double slowdown_sum = 0;
  for (const std::string& other : config_.benchmarks) {
    slowdown_sum +=
        app_time(other, scenario) / app_time(other, scenario::dedicated());
  }
  const double mean_slowdown =
      slowdown_sum / static_cast<double>(config_.benchmarks.size());

  PredictionRecord record;
  record.app = app;
  record.scenario = scenario.name;
  record.app_dedicated = app_time(app, scenario::dedicated());
  record.app_scenario = app_time(app, scenario);
  record.predicted = record.app_dedicated * mean_slowdown;
  record.error_percent = skeleton::prediction_error_percent(
      record.predicted, record.app_scenario);
  return record;
}

double mean_error(const std::vector<PredictionRecord>& records) {
  if (records.empty()) return 0;
  double sum = 0;
  for (const PredictionRecord& record : records) sum += record.error_percent;
  return sum / static_cast<double>(records.size());
}

}  // namespace psk::core

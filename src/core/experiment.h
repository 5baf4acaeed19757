// Experiment driver: reproduces the paper's evaluation grid.
//
// Caches traces, scenario timings, signatures and skeletons so that the
// per-figure bench binaries (which slice the same grid differently) stay
// cheap.  All measurements follow section 4.2:
//   - skeletons are constructed for target sizes 10/5/2/1/0.5 seconds;
//   - prediction = skeleton time in scenario x measured scaling ratio,
//     where the ratio uses the skeleton's actual dedicated time;
//   - error = |predicted - actual| / actual.
// The two baselines of Figure 7 (Class-S-as-skeleton and suite-average
// slowdown) are implemented here as well.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "apps/nas.h"
#include "core/framework.h"
#include "obs/phase.h"
#include "obs/recorder.h"
#include "scenario/scenario.h"
#include "sig/signature.h"
#include "skeleton/skeleton.h"
#include "trace/event.h"

namespace psk::core {

struct ExperimentConfig {
  std::vector<std::string> benchmarks = {"BT", "CG", "IS", "LU", "MG", "SP"};
  apps::NasClass app_class = apps::NasClass::kB;
  /// Intended skeleton execution times in seconds (paper: 10 .. 0.5).
  std::vector<double> skeleton_sizes = {10.0, 5.0, 2.0, 1.0, 0.5};
  /// Independent measurement pairs averaged per grid cell.  The paper
  /// reports single measurements; averaging a few repetitions separates the
  /// systematic effects (latency scaling, unbalanced synchronization) from
  /// one-shot sampling noise of the fluttering environment.
  int repetitions = 3;
  /// Parallelism of warm()/run_grid()/predict_cells(): 0 = one job per
  /// hardware thread, 1 = strictly serial evaluation on the calling thread
  /// (the pre-runner code path).  Results are bit-identical across
  /// all settings; only wall-clock time changes.
  int jobs = 0;
  FrameworkOptions framework;
};

/// One cell of the evaluation grid.  `scenario` must outlive the driver
/// call (the scenario registry's entries and scenario::dedicated() do).
struct GridCell {
  std::string app;
  double size_seconds = 0;
  const scenario::Scenario* scenario = nullptr;
};

struct PredictionRecord {
  std::string app;
  double target_size = 0;       // intended skeleton seconds
  std::string scenario;
  double scaling_factor = 0;    // K
  double app_dedicated = 0;
  double skeleton_dedicated = 0;
  double skeleton_scenario = 0;
  double app_scenario = 0;
  double predicted = 0;
  double error_percent = 0;
  bool good = true;             // the section 3.4 flag
  double min_good_time = 0;
};

class ExperimentDriver {
 public:
  explicit ExperimentDriver(ExperimentConfig config = {});

  const ExperimentConfig& config() const { return config_; }
  const SkeletonFramework& framework() const { return framework_; }

  /// Folded dedicated-run trace of a benchmark (cached).
  const trace::Trace& app_trace(const std::string& app);

  /// Measured application time under a scenario (cached); `repetition`
  /// selects one of the independent measurement seeds.
  double app_time(const std::string& app, const scenario::Scenario& scenario,
                  int repetition = 0);

  /// Signature compressed for scaling factor `k` (cached by app and K).
  const sig::Signature& signature(const std::string& app, double k);

  /// Skeleton built for an intended size in seconds (cached).
  const skeleton::Skeleton& skeleton_for_size(const std::string& app,
                                              double size_seconds);

  /// Measured skeleton time under a scenario (cached).
  double skeleton_time(const std::string& app, double size_seconds,
                       const scenario::Scenario& scenario,
                       int repetition = 0);

  /// One grid cell: full prediction record.
  PredictionRecord predict(const std::string& app, double size_seconds,
                           const scenario::Scenario& scenario);

  /// The full grid as an ordered cell list: every benchmark x skeleton size
  /// x paper scenario, in configuration order.
  std::vector<GridCell> grid_cells() const;

  /// Populates the trace / signature / skeleton / good-estimate caches
  /// every cell needs (each benchmark is traced once) as one
  /// dependency-ordered sweep with `config().jobs` workers.  After warming,
  /// predict() and the time getters are safe to call for these cells from
  /// pool workers.
  void warm(const std::vector<GridCell>& cells);

  /// Evaluates the cells with `config().jobs` workers and returns records
  /// in input order.  With jobs > 1, construction and the measurement runs
  /// -- isolated deterministic simulations -- form one sweep in which each
  /// unit starts as soon as its inputs exist.  Bit-identical to the serial
  /// path.
  std::vector<PredictionRecord> predict_cells(
      const std::vector<GridCell>& cells);

  /// The full grid: predict_cells(grid_cells()).
  std::vector<PredictionRecord> run_grid();

  /// Shortest-"good"-skeleton analysis for a benchmark (Figure 4).
  /// Computed from the most deeply compressed signature available (the one
  /// built for the smallest configured skeleton size), because a weakly
  /// compressed signature hides the dominant loop structure.
  const skeleton::GoodSkeletonEstimate& good_estimate(const std::string& app);

  // ---- Figure 2 support -------------------------------------------------
  trace::ActivityBreakdown app_activity(const std::string& app);
  trace::ActivityBreakdown skeleton_activity(const std::string& app,
                                             double size_seconds);

  // ---- Observability -----------------------------------------------------
  /// Wall-clock time spent in each pipeline phase (record / fold / cluster /
  /// compress / scale / measure / sweep) across everything this driver ran.
  /// The data is wall-clock truth, not deterministic -- render it to stderr
  /// or a report, never into a reproducible dump.  When the caller supplied
  /// its own FrameworkOptions::profiler, that one is fed instead and this
  /// stays empty.
  const obs::PhaseProfiler& phases() const { return phases_; }

  /// Dedicated instrumented runs: a fresh, serial, fixed-seed simulation of
  /// the app (or skeleton) under `scenario`, feeding `recorder`.  Returns
  /// the run's elapsed simulated time (pass it to the recorder's write
  /// methods as end_time).  Independent of config().jobs, so the recorder
  /// contents are bit-identical for any parallelism setting.
  double observe_app(const std::string& app,
                     const scenario::Scenario& scenario,
                     obs::Recorder& recorder);
  double observe_skeleton(const std::string& app, double size_seconds,
                          const scenario::Scenario& scenario,
                          obs::Recorder& recorder);

  // ---- Figure 7 baselines ------------------------------------------------
  /// Class-S prediction: the class S benchmark is used as a hand-made
  /// skeleton for the class B one.
  PredictionRecord predict_with_class_s(const std::string& app,
                                        const scenario::Scenario& scenario);

  /// Average prediction: the suite's mean slowdown under the scenario
  /// predicts every benchmark.
  PredictionRecord predict_with_average(const std::string& app,
                                        const scenario::Scenario& scenario);

 private:
  mpi::RankMain program(const std::string& app, apps::NasClass cls) const;
  double class_s_time(const std::string& app,
                      const scenario::Scenario& scenario);
  /// Skeleton size whose K the good-skeleton estimate compresses for.
  double reference_size() const;

  // Uncached measurement primitives.  Const and state-free (every run
  // builds a fresh simulated machine), so pool workers may call them
  // concurrently; the cached getters above funnel through them.
  double compute_app_time(const std::string& app, apps::NasClass cls,
                          const scenario::Scenario& scenario,
                          std::uint64_t seed_offset) const;
  double compute_skeleton_time(const skeleton::Skeleton& skeleton,
                               double size_seconds,
                               const scenario::Scenario& scenario,
                               int repetition) const;

  /// Runs every uncached trace, construction and (with `measure`)
  /// measurement run the cells need as one runner::sweep whose units start
  /// once their inputs exist, then installs the results in the caches.
  void sweep_plan(const std::vector<GridCell>& cells, bool measure);

  ExperimentConfig config_;
  /// Declared before framework_: the constructor injects &phases_ into
  /// config_.framework.profiler (unless the caller set one) before
  /// framework_ is built from it.
  obs::PhaseProfiler phases_;
  SkeletonFramework framework_;

  // Construction caches (traces_, signatures_, skeletons_, good_estimates_)
  // hand out long-lived references and are filled only on the calling
  // thread (lazily, or after a sweep_plan sweep) -- never from pool
  // workers.  The scalar time caches are guarded by time_mutex_ so ad-hoc
  // app_time()/skeleton_time() calls are safe from pool workers too;
  // racing lookups may compute a value twice, but the simulations are
  // deterministic so both results are identical.
  std::map<std::string, trace::Trace> traces_;
  std::map<std::tuple<std::string, std::string, int>, double> app_times_;
  std::map<std::pair<std::string, std::string>, double> class_s_times_;
  std::map<std::pair<std::string, long long>, sig::Signature> signatures_;
  std::map<std::pair<std::string, long long>, skeleton::Skeleton> skeletons_;
  std::map<std::tuple<std::string, long long, std::string, int>, double>
      skeleton_times_;
  std::map<std::string, skeleton::GoodSkeletonEstimate> good_estimates_;
  std::mutex time_mutex_;
};

/// Mean error across records (ignores empty input).
double mean_error(const std::vector<PredictionRecord>& records);

}  // namespace psk::core

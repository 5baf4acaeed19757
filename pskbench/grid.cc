// The paper-grid workload (NOTES.md): the fig6 grid -- 6 class-B apps x
// the 5 paper scenarios with 10 s skeletons, app and skeleton runs --
// through core::ExperimentDriver::predict_cells at jobs = nproc, each grid
// on a fresh driver and a fresh in-memory result cache.  The window
// alternates one grid alone ("low") with two grids at once ("high").
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "cache/cache.h"
#include "core/experiment.h"
#include "obs/phase.h"
#include "scenario/scenario.h"

extern char** environ;

namespace pskbench {

namespace {

using psk::core::ExperimentConfig;
using psk::core::ExperimentDriver;
using psk::core::GridCell;
using psk::core::PredictionRecord;

/// Seeds per (app, scenario) for the traced replay timing.
constexpr int kReplaySeeds = 5;
/// Set-up probes per run (setup_s is their median).
constexpr int kSetups = 11;

ExperimentConfig grid_config(psk::obs::PhaseProfiler* profiler) {
  ExperimentConfig config;  // class B, the six apps, sizes 10 .. 0.5 s
  config.jobs = 0;          // one job per hardware thread
  config.framework.result_cache = std::make_shared<psk::cache::ResultCache>();
  config.framework.profiler = profiler;
  return config;
}

/// fig6's cells: scenario-major, the largest (10 s) skeletons.
std::vector<GridCell> fig6_cells(const ExperimentConfig& config) {
  double size = 0;
  for (const double s : config.skeleton_sizes) size = std::max(size, s);
  std::vector<GridCell> cells;
  for (const psk::scenario::Scenario& scenario :
       psk::scenario::paper_scenarios()) {
    for (const std::string& app : config.benchmarks) {
      cells.push_back(GridCell{app, size, &scenario});
    }
  }
  return cells;
}

/// The fig6 table: "scenario app error%" rows, errors rounded to 0.1 as
/// fig6_error_by_scenario prints them.
std::string render_table(const std::vector<PredictionRecord>& records) {
  std::string out;
  for (const PredictionRecord& record : records) {
    char line[128];
    std::snprintf(line, sizeof line, "%s %s %.1f\n", record.scenario.c_str(),
                  record.app.c_str(), record.error_percent);
    out += line;
  }
  return out;
}

std::string read_reference(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    out += line + "\n";
  }
  return out;
}

bool same_records(const std::vector<PredictionRecord>& a,
                  const std::vector<PredictionRecord>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double x[] = {a[i].predicted, a[i].app_scenario, a[i].error_percent};
    const double y[] = {b[i].predicted, b[i].app_scenario, b[i].error_percent};
    if (a[i].app != b[i].app || a[i].scenario != b[i].scenario ||
        std::memcmp(x, y, sizeof x) != 0) {
      return false;
    }
  }
  return true;
}

struct GridRun {
  std::vector<PredictionRecord> records;
  double wall_s = 0;
};

/// One full grid: fresh driver and result cache, predict_cells, timed from
/// driver construction to the returned records.
GridRun run_one() {
  const double start = now_s();
  ExperimentDriver driver(grid_config(nullptr));
  GridRun run;
  run.records = driver.predict_cells(fig6_cells(driver.config()));
  run.wall_s = now_s() - start;
  return run;
}

/// Wall seconds of `pskbench grid-setup`: exec until the driver exists.
double setup_once() {
  char self[4096];
  const ssize_t length = ::readlink("/proc/self/exe", self, sizeof self - 1);
  if (length <= 0) throw std::runtime_error("cannot resolve /proc/self/exe");
  self[length] = '\0';
  char mode[] = "grid-setup";
  char* argv[] = {self, mode, nullptr};
  const double start = now_s();
  pid_t pid = -1;
  if (posix_spawn(&pid, self, nullptr, nullptr, argv, environ) != 0) {
    throw std::runtime_error("cannot spawn the grid set-up probe");
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  const double elapsed = now_s() - start;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("the grid set-up probe failed");
  }
  return elapsed;
}

class GridWorkload {
 public:
  explicit GridWorkload(const GridConfig& config) : config_(config) {}
  Outcome run();

 private:
  /// Counts the grid and checks its table; true when it is right.
  bool check(const GridRun& run);
  void traced();

  const GridConfig& config_;
  Outcome outcome_;
  std::string reference_;
  std::vector<PredictionRecord> first_;
  std::vector<double> low_s_;
};

bool GridWorkload::check(const GridRun& run) {
  ++outcome_.attempted;
  bool ok = true;
  if (render_table(run.records) != reference_) {
    outcome_.fail("the fig6 table differs from " + config_.reference);
    ok = false;
  }
  if (first_.empty()) {
    first_ = run.records;
  } else if (!same_records(first_, run.records)) {
    outcome_.fail("two grids of one run disagree bit for bit");
    ok = false;
  }
  if (!ok) ++outcome_.failed;
  return ok;
}

/// One grid with an outside PhaseProfiler and spans around warm and
/// predict_cells, then replay timing of the grid's skeletons.
void GridWorkload::traced() {
  psk::obs::PhaseProfiler profiler;
  SpanLog log;
  const int root = log.begin("grid", -1, 0);
  ExperimentDriver driver(grid_config(&profiler));
  const std::vector<GridCell> cells = fig6_cells(driver.config());
  int span = log.begin("warm", root, 0);
  driver.warm(cells);
  log.end(span);
  span = log.begin("predict_cells", root, 0);
  GridRun run;
  run.records = driver.predict_cells(cells);
  log.end(span);
  log.end(root);
  const Span& grid = log.spans()[0];
  run.wall_s = grid.end - grid.start;
  check(run);

  // Uncached replays of the grid's own skeletons, timed one by one.
  std::vector<double> replay_ms;
  const psk::core::SkeletonFramework plain;
  for (const std::string& app : driver.config().benchmarks) {
    const psk::skeleton::Skeleton& skeleton =
        driver.skeleton_for_size(app, cells.front().size_seconds);
    for (const std::string& name : corpus_scenarios()) {
      for (int seed = 1; seed <= kReplaySeeds; ++seed) {
        const double start = now_s();
        plain.run_skeleton(skeleton, psk::scenario::find_scenario(name),
                           static_cast<std::uint64_t>(seed));
        replay_ms.push_back((now_s() - start) * 1e3);
      }
    }
  }

  const std::string path = config_.workdir + "/paper-grid-" +
                           std::to_string(config_.seed) + ".trace.json";
  log.write_chrome(path);
  const auto phases = profiler.snapshot();
  const auto seconds = [&](const char* name) {
    const auto it = phases.find(name);
    return it == phases.end() ? 0.0 : it->second.seconds;
  };
  const auto calls = [&](const char* name) {
    const auto it = phases.find(name);
    return it == phases.end() ? 0.0 : static_cast<double>(it->second.calls);
  };
  const double warm_s = log.spans()[1].end - log.spans()[1].start;
  const double predict_s = log.spans()[2].end - log.spans()[2].start;
  // Signatures the warm phase compresses: one per skeleton plus one
  // reference signature per app for the good-skeleton estimate.
  const double signatures = 2.0 * static_cast<double>(driver.config().benchmarks.size());
  const psk::cache::CacheStats cache =
      driver.config().framework.result_cache->stats();
  const int jobs = hardware_threads();

  auto& m = outcome_.metrics;
  m.push_back({"replay.ms.p50", "ms", percentile(replay_ms, 0.50)});
  m.push_back({"replay.ms.p99", "ms", percentile(replay_ms, 0.99)});
  // The service layers do not run in the grid.
  for (const char* name :
       {"svc.frame_us", "svc.encode_us", "archive.decode_us",
        "archive.canonical_us", "svc.store_put_us", "svc.store_get_us",
        "guard.validate_us", "cache.hit_us"}) {
    m.push_back({name, "us", 0.0});
  }
  m.push_back({"unaccounted_ms.p50", "ms",
               (run.wall_s - warm_s - predict_s) * 1e3});
  m.push_back({"trace.overhead_pct", "%",
               (run.wall_s - median(low_s_)) / median(low_s_) * 100.0});
  m.push_back({"store.hit_ratio", "ratio", 0.0});
  m.push_back({"cache.hit_ratio", "ratio", cache.hit_rate()});
  m.push_back({"svc.server_p50_ms", "ms", 0.0});
  m.push_back({"svc.server_p99_ms", "ms", 0.0});
  m.push_back({"svc.queue_high_water", "count", 0.0});
  m.push_back({"svc.shed", "count", 0.0});
  m.push_back({"gen.late_p99_ms", "ms", 0.0});
  m.push_back({"apps.record_s", "s", seconds("record")});
  m.push_back({"trace.fold_s", "s", seconds("fold")});
  m.push_back({"sig.cluster_s", "s", seconds("cluster")});
  m.push_back({"sig.compress_s", "s", seconds("compress")});
  m.push_back({"skeleton.scale_s", "s", seconds("scale")});
  m.push_back({"runner.measure_s", "s", seconds("measure")});
  m.push_back({"sig.compress_calls_per_skeleton", "count",
               calls("compress") / signatures});
  m.push_back({"runner.utilization", "ratio",
               seconds("measure") / (jobs * predict_s)});
  // The driver times its runner sweeps on its own profiler.
  const auto own = driver.phases().snapshot();
  const double sweep_s = own.count("sweep") ? own.at("sweep").seconds : 0.0;
  m.push_back({"grid.serial_share", "ratio",
               std::max(0.0, run.wall_s - sweep_s) / run.wall_s});
  std::printf("trace: phases (wall s, calls summed over workers)\n%s",
              profiler.render().c_str());
  for (const auto& [name, phase] : phases) {
    std::printf("trace: phase %-9s %5.1f%% of jobs x grid wall\n", name.c_str(),
                100 * phase.seconds / (jobs * run.wall_s));
  }
  std::printf("trace: warm %.3f s, predict_cells %.3f s, spans in %s\n",
              warm_s, predict_s, path.c_str());
}

Outcome GridWorkload::run() {
  print_host("paper-grid",
             "\"jobs\": " + std::to_string(hardware_threads()) +
                 ", \"cells\": 30, \"result_cache\": \"fresh in-memory per grid\"");
  reference_ = read_reference(config_.reference);

  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) setups.push_back(setup_once());

  // Alternate one grid alone with two at once until the window is used;
  // at least one of each.  Idle CPUs are kept awake as in the service
  // workloads: the warm phase's sweeps leave some idle between units.
  const CpusAwake awake;
  std::vector<double> high_s;
  std::size_t high_cells = 0;
  std::size_t high_ok = 0;  // right and within the limit
  const double start = now_s();
  double low_cost = 0;
  double pair_cost = 0;
  bool low_turn = true;
  while (low_s_.empty() || (!config_.trace && high_s.empty()) ||
         now_s() - start + (low_turn ? low_cost : pair_cost) <=
             config_.seconds) {
    if (config_.trace && !low_s_.empty()) break;
    if (low_turn) {
      const GridRun run = run_one();
      check(run);
      low_s_.push_back(run.wall_s);
      low_cost = run.wall_s;
    } else {
      GridRun a;
      GridRun b;
      const double pair_start = now_s();
      std::thread other([&] { b = run_one(); });
      a = run_one();
      other.join();
      const double pair_wall = now_s() - pair_start;
      for (const GridRun* run : {&a, &b}) {
        const bool right = check(*run);
        high_s.push_back(run->wall_s);
        high_cells += run->records.size();
        if (right && run->wall_s * 1e3 <= config_.p99_limit_ms) {
          high_ok += run->records.size();
        }
      }
      pair_cost = pair_wall;
    }
    low_turn = !low_turn;
  }

  if (config_.trace) {
    traced();
  } else {
    const auto ms = [](std::vector<double> seconds, double q) {
      return percentile(seconds, q) * 1e3;
    };
    auto& m = outcome_.metrics;
    m.push_back({"setup_s", "s", median(setups)});
    m.push_back({"p50_ms.low", "ms", ms(low_s_, 0.50)});
    m.push_back({"p99_ms.low", "ms", ms(low_s_, 0.99)});
    m.push_back({"p50_ms.high", "ms", ms(high_s, 0.50)});
    m.push_back({"p99_ms.high", "ms", ms(high_s, 0.99)});
    m.push_back({"ok_share.high", "ratio",
                 static_cast<double>(high_ok) / static_cast<double>(high_cells)});
    m.push_back({"grid_s", "s", median(low_s_)});
    m.push_back({"rss_peak_mb", "MiB", vmhwm_mib(::getpid())});
  }
  std::printf("grids: %zu alone (median %.3f s), %zu in pairs\n",
              low_s_.size(), median(low_s_), high_s.size());
  return outcome_;
}

}  // namespace

Outcome run_grid(const GridConfig& config) {
  GridWorkload workload(config);
  return workload.run();
}

void grid_setup_probe() {
  ExperimentDriver driver(grid_config(nullptr));
  if (fig6_cells(driver.config()).size() != 30) {
    throw std::runtime_error("the fig6 grid should have 30 cells");
  }
}

}  // namespace pskbench

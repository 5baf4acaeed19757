// Shared scaffolding for the per-figure bench binaries.
//
// Every binary accepts:
//   --class=S|W|A|B   problem class (default B, the paper's configuration)
//   --sizes=10,5,...  skeleton target sizes in seconds
//   --jobs=N          measurement-phase worker threads (default: one per
//                     hardware thread; 1 = the historical serial path;
//                     results are bit-identical either way)
//   --verbose         progress logging to stderr
//   --trace-out=F     Chrome trace_event JSON timeline of a dedicated
//                     serial fixed-seed run of the first benchmark
//   --metrics-out=F   flat key=value metrics dump of the same run
//   --obs-scenario=S  scenario for that instrumented run (default
//                     dedicated)
//   --phase-profile   wall-clock pipeline phase timings to stderr
//   --cache-dir=D     persistent content-addressed result cache shared
//                     across invocations (warm re-runs skip the simulator)
//   --cache-mem=N     in-memory cache capacity in entries (default 4096)
//   --no-cache        disable result memoization entirely
//   --cache-stats=F   key=value cache hit/miss counter dump to file F
//                     (bare --cache-stats prints to stderr); never written
//                     to stdout, so cold and warm runs stay byte-identical
//   --topology=T      interconnect shape: crossbar (default, the paper's
//                     testbed) | fattree:<down,up> | dragonfly:<groups,
//                     routers>; unknown specs fail with the valid forms
// Unknown flags are rejected with the valid list (ConfigError, exit 2).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/cache.h"
#include "core/experiment.h"
#include "obs/recorder.h"
#include "scenario/scenario.h"
#include "util/cli.h"
#include "util/error.h"
#include "util/log.h"

namespace psk::bench {

/// Parses --sizes; rejects malformed and non-positive entries with a
/// ConfigError instead of aborting inside std::stod.
inline std::vector<double> parse_sizes(const std::string& text) {
  return util::parse_positive_doubles(text, "--sizes");
}

/// What the shared --trace-out/--metrics-out/--phase-profile flags asked
/// for; see obs_request() and write_observability().
struct ObsRequest {
  std::string trace_out;
  std::string metrics_out;
  std::string scenario = "dedicated";
  bool phase_profile = false;
  /// --cache-stats destination: empty = off, "true" = stderr, else a file.
  std::string cache_stats;

  bool wants_dump() const {
    return !trace_out.empty() || !metrics_out.empty();
  }
};

inline ObsRequest obs_request(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  ObsRequest request;
  request.trace_out = cli.get("trace-out", "");
  request.metrics_out = cli.get("metrics-out", "");
  request.scenario = cli.get("obs-scenario", "dedicated");
  request.phase_profile = cli.get_bool("phase-profile", false);
  request.cache_stats = cli.get("cache-stats", "");
  return request;
}

inline core::ExperimentConfig config_from_cli(
    int argc, char** argv,
    const std::vector<std::string>& extra_known = {}) {
  const util::Cli cli(argc, argv);
  core::ExperimentConfig config;
  try {
    std::vector<std::string> known = {"class",       "sizes",
                                      "jobs",        "verbose",
                                      "trace-out",   "metrics-out",
                                      "obs-scenario", "phase-profile",
                                      "cache-dir",   "cache-mem",
                                      "no-cache",    "cache-stats",
                                      "topology"};
    known.insert(known.end(), extra_known.begin(), extra_known.end());
    cli.require_known(known);
    config.app_class = apps::class_from_name(cli.get("class", "B"));
    config.skeleton_sizes = parse_sizes(cli.get("sizes", "10,5,2,1,0.5"));
    config.jobs = static_cast<int>(cli.get_int("jobs", 0));
    util::require(config.jobs >= 0, "--jobs must be >= 0");
    const std::string topology = cli.get("topology", "");
    if (!topology.empty()) {
      config.framework.cluster.topology = sim::TopologySpec::parse(topology);
    }
    config.framework.result_cache = cache::cache_from_cli(cli);
  } catch (const ConfigError& error) {
    std::fprintf(stderr, "%s: %s\n", argc > 0 ? argv[0] : "bench",
                 error.what());
    std::exit(2);
  }
  if (cli.get_bool("verbose", false)) {
    util::set_log_level(util::LogLevel::kInfo);
  }
  return config;
}

/// Honours --trace-out/--metrics-out (instrumented serial re-run of the
/// first benchmark under --obs-scenario) and --phase-profile.  Call at the
/// end of main; pass the bench's driver when one is in scope so the phase
/// profile covers the whole run, or nullptr to use a fresh driver.
inline void write_observability(const core::ExperimentConfig& config,
                                const ObsRequest& request,
                                core::ExperimentDriver* driver = nullptr) {
  std::optional<core::ExperimentDriver> local;
  if (request.wants_dump() && driver == nullptr) {
    local.emplace(config);
    driver = &*local;
  }
  if (request.wants_dump()) {
    obs::Recorder recorder;
    const double elapsed =
        driver->observe_app(config.benchmarks.at(0),
                            scenario::find_scenario(request.scenario),
                            recorder);
    if (!request.metrics_out.empty()) {
      recorder.write_metrics_file(request.metrics_out, elapsed);
      std::printf("metrics -> %s\n", request.metrics_out.c_str());
    }
    if (!request.trace_out.empty()) {
      recorder.write_trace_file(request.trace_out, elapsed);
      std::printf("trace -> %s (open in chrome://tracing)\n",
                  request.trace_out.c_str());
    }
  }
  if (request.phase_profile && driver != nullptr) {
    std::fprintf(stderr, "%s", driver->phases().render().c_str());
  }
  if (!request.cache_stats.empty() &&
      config.framework.result_cache != nullptr) {
    const std::string text =
        cache::stats_kv(config.framework.result_cache->stats());
    if (request.cache_stats == "true") {  // bare --cache-stats
      std::fprintf(stderr, "%s", text.c_str());
    } else {
      std::ofstream out(request.cache_stats);
      util::require(out.good(),
                    "--cache-stats: cannot open " + request.cache_stats);
      out << text;
      std::fprintf(stderr, "cache stats -> %s\n", request.cache_stats.c_str());
    }
  }
}

inline void print_banner(const char* figure, const char* description,
                         const core::ExperimentConfig& config) {
  std::printf("=== %s ===\n%s\n", figure, description);
  std::printf(
      "setup: NAS class %s, 4 ranks on 4 dual-core nodes, %zu skeleton "
      "sizes\n\n",
      apps::class_name(config.app_class), config.skeleton_sizes.size());
}

}  // namespace psk::bench

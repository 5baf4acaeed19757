// pskbench: the harness behind run.py.
//
//   pskbench service --workload=predict-replay|predict-upload-cached
//            --seed=N --seconds=S --trace=0|1 --pskd=PATH --workdir=DIR
//            --low-rps=R --high-rps=R --p99-limit-ms=L
//   pskbench grid --seed=N --seconds=S --trace=0|1 --reference=FILE
//            --p99-limit-ms=L --workdir=DIR
//   pskbench grid-setup      (constructs the grid driver and exits)
//   pskbench awake           (the CPU spinners of CpusAwake)
//
// The last line of stdout is the result JSON (see NOTES.md).
#include <sys/prctl.h>

#include <cstdio>
#include <exception>
#include <string>

#include "bench.h"
#include "util/cli.h"
#include "util/error.h"

using namespace pskbench;

int main(int argc, char** argv) {
  // Tight timer slack so the open-loop generator wakes on schedule.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
  try {
    const psk::util::Cli cli(argc, argv);
    const std::string mode = cli.positional().empty() ? "" : cli.positional()[0];
    if (mode == "service") {
      cli.require_known({"workload", "seed", "seconds", "trace", "pskd",
                         "workdir", "low-rps", "high-rps", "p99-limit-ms"});
      ServiceConfig config;
      config.workload = cli.get("workload", "");
      config.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
      config.seconds = cli.get_double("seconds", 10);
      config.trace = cli.get_int("trace", 0) != 0;
      config.pskd = cli.get("pskd", "");
      config.workdir = cli.get("workdir", ".");
      config.low_rps = cli.get_double("low-rps", 0);
      config.high_rps = cli.get_double("high-rps", 0);
      config.p99_limit_ms = cli.get_double("p99-limit-ms", 0);
      psk::util::require(config.workload == "predict-replay" ||
                             config.workload == "predict-upload-cached",
                         "--workload must be predict-replay or "
                         "predict-upload-cached");
      psk::util::require(config.seconds > 0 && config.low_rps > 0 &&
                             config.high_rps > config.low_rps &&
                             config.p99_limit_ms > 0 && !config.pskd.empty(),
                         "service needs --seconds, --low-rps < --high-rps, "
                         "--p99-limit-ms and --pskd");
      print_outcome(run_service(config));
      return 0;
    }
    if (mode == "grid") {
      cli.require_known({"seed", "seconds", "trace", "reference", "workdir",
                         "p99-limit-ms"});
      GridConfig config;
      config.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
      config.seconds = cli.get_double("seconds", 10);
      config.trace = cli.get_int("trace", 0) != 0;
      config.reference = cli.get("reference", "");
      config.workdir = cli.get("workdir", ".");
      config.p99_limit_ms = cli.get_double("p99-limit-ms", 0);
      psk::util::require(config.seconds > 0 && !config.reference.empty() &&
                             config.p99_limit_ms > 0,
                         "grid needs --seconds, --reference and --p99-limit-ms");
      print_outcome(run_grid(config));
      return 0;
    }
    if (mode == "grid-setup") {
      grid_setup_probe();
      return 0;
    }
    if (mode == "awake") run_awake();
    std::fprintf(stderr, "usage: pskbench service|grid|grid-setup [flags]\n");
    return 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "pskbench: %s\n", error.what());
    return 1;
  }
}

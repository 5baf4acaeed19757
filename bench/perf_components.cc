// Google-benchmark microbenchmarks of the framework's computational
// components: event-queue throughput, processor-sharing accounting, network
// re-rating, clustering, loop folding, and the end-to-end pipeline on a
// class S code.  These guard the tool's own performance (trace compression
// must stay cheap relative to running the application).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "apps/nas.h"
#include "cache/cache.h"
#include "core/framework.h"
#include "mpi/world.h"
#include "obs/recorder.h"
#include "scenario/scenario.h"
#include "sig/cluster.h"
#include "sig/compress.h"
#include "sim/engine.h"
#include "sim/machine.h"
#include "trace/fold.h"
#include "trace/recorder.h"

namespace {

using namespace psk;

void BM_EventQueueThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    const int events = static_cast<int>(state.range(0));
    for (int i = 0; i < events; ++i) {
      engine.at(static_cast<double>(i % 97), [] {});
    }
    engine.run();
    benchmark::DoNotOptimize(engine.now());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueThroughput)->Arg(1 << 12)->Arg(1 << 16);

void BM_ProcessorSharing(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    sim::CpuNode node(engine, 2, 1.0);
    node.add_load(2);
    const int jobs = static_cast<int>(state.range(0));
    for (int i = 0; i < jobs; ++i) {
      node.submit(0.001 * (1 + i % 7), [] {});
    }
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ProcessorSharing)->Arg(1 << 10);

void BM_NetworkRerating(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    sim::Network network(engine, sim::NetworkConfig{.node_count = 8,
                                                    .bandwidth_bps = 1e8,
                                                    .latency = 50e-6,
                                                    .local_latency = 0.0});
    const int flows = static_cast<int>(state.range(0));
    for (int i = 0; i < flows; ++i) {
      network.transfer(i % 8, (i + 1) % 8, 100'000 + 1'000 * (i % 13), [] {});
    }
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NetworkRerating)->Arg(1 << 10);

const trace::Trace& shared_trace() {
  static const trace::Trace trace = [] {
    core::SkeletonFramework framework;
    return framework.record(
        apps::find_benchmark("LU").make(apps::NasClass::kS), "LU");
  }();
  return trace;
}

void BM_ClusterEvents(benchmark::State& state) {
  const trace::Trace& trace = shared_trace();
  sig::ClusterOptions options;
  options.threshold = 0.1;
  for (auto _ : state) {
    const sig::ClusterResult result =
        sig::cluster_events(trace.ranks[0].events, options);
    benchmark::DoNotOptimize(result.cluster_count());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(trace.ranks[0].events.size()));
}
BENCHMARK(BM_ClusterEvents);

void BM_FoldLoops(benchmark::State& state) {
  const trace::Trace& trace = shared_trace();
  sig::ClusterOptions options;
  options.threshold = 0.1;
  const sig::ClusterResult clusters =
      sig::cluster_events(trace.ranks[0].events, options);
  sig::SigSeq base;
  for (int symbol : clusters.symbols) {
    base.push_back(sig::SigNode::leaf(
        clusters.prototypes[static_cast<std::size_t>(symbol)]));
  }
  for (auto _ : state) {
    sig::SigSeq copy = base;
    const sig::SigSeq folded = sig::fold_loops(std::move(copy));
    benchmark::DoNotOptimize(sig::leaf_count(folded));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(base.size()));
}
BENCHMARK(BM_FoldLoops);

void BM_SimulateMgClassS(benchmark::State& state) {
  for (auto _ : state) {
    sim::Machine machine(sim::ClusterConfig::paper_testbed());
    mpi::World world(machine, 4);
    world.launch(apps::find_benchmark("MG").make(apps::NasClass::kS));
    benchmark::DoNotOptimize(world.run());
  }
}
BENCHMARK(BM_SimulateMgClassS);

void BM_FullPipelineSpClassS(benchmark::State& state) {
  for (auto _ : state) {
    core::SkeletonFramework framework;
    const skeleton::Skeleton skeleton = framework.construct(
        apps::find_benchmark("SP").make(apps::NasClass::kS), "SP", 0.05);
    benchmark::DoNotOptimize(skeleton.scaling_factor);
  }
}
BENCHMARK(BM_FullPipelineSpClassS);

const skeleton::Skeleton& shared_skeleton() {
  static const skeleton::Skeleton skeleton = [] {
    core::SkeletonFramework framework;
    const trace::Trace& trace = shared_trace();
    const double k = std::max(1.0, trace.elapsed() / 0.05);
    return framework.make_skeleton(framework.make_signature(trace, k), k);
  }();
  return skeleton;
}

/// The repeated-cell workload without memoization: every iteration pays the
/// full sim::Engine replay.  Baseline for BM_SkeletonRunWarmCache.
void BM_SkeletonRunUncached(benchmark::State& state) {
  const skeleton::Skeleton& skeleton = shared_skeleton();
  core::SkeletonFramework framework;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        framework.run_skeleton(skeleton, scenario::dedicated()));
  }
}
BENCHMARK(BM_SkeletonRunUncached);

/// The same workload against a warm content-addressed cache: after the
/// priming run every iteration is a key build + memory-LRU hit, skipping
/// the simulator entirely (and returning the bit-identical double).
void BM_SkeletonRunWarmCache(benchmark::State& state) {
  const skeleton::Skeleton& skeleton = shared_skeleton();
  core::FrameworkOptions options;
  options.result_cache = std::make_shared<cache::ResultCache>();
  core::SkeletonFramework framework(options);
  framework.run_skeleton(skeleton, scenario::dedicated());  // prime
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        framework.run_skeleton(skeleton, scenario::dedicated()));
  }
}
BENCHMARK(BM_SkeletonRunWarmCache);

/// Instrumented serial MG class-S simulation for --trace-out/--metrics-out;
/// mirrors BM_SimulateMgClassS with a Recorder attached.
void write_observability(const std::string& trace_out,
                         const std::string& metrics_out) {
  obs::Recorder recorder;
  sim::Machine machine(sim::ClusterConfig::paper_testbed());
  machine.attach_obs(&recorder);
  mpi::World world(machine, 4);
  world.launch(apps::find_benchmark("MG").make(apps::NasClass::kS));
  const double elapsed = world.run();
  if (!metrics_out.empty()) {
    recorder.write_metrics_file(metrics_out, elapsed);
    std::printf("metrics -> %s\n", metrics_out.c_str());
  }
  if (!trace_out.empty()) {
    recorder.write_trace_file(trace_out, elapsed);
    std::printf("trace -> %s (open in chrome://tracing)\n",
                trace_out.c_str());
  }
}

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): google-benchmark rejects flags it
// does not know, so the shared --trace-out/--metrics-out are peeled off here
// before benchmark::Initialize sees argv.
int main(int argc, char** argv) {
  std::string trace_out;
  std::string metrics_out;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      trace_out = argv[i] + 12;
    } else if (std::strncmp(argv[i], "--metrics-out=", 14) == 0) {
      metrics_out = argv[i] + 14;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (!trace_out.empty() || !metrics_out.empty()) {
    write_observability(trace_out, metrics_out);
  }
  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

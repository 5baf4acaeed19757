// bench_record: records one point of the repo's performance trajectory.
//
// Runs bounded versions of the perf_components workloads (event-queue
// throughput, clustering, loop folding, full compression, cold/warm
// skeleton runs, pipeline construction) with hand-rolled timing loops and
// emits a flat, schema'd JSON metrics file (BENCH_pr<N>.json at the repo
// root records the committed trajectory; see docs/BENCH_NOTES.md for the
// schema and workflow).
//
// Usage:
//   bench_record [--out=FILE] [--reps=N] [--quick]
//   bench_record --compare=BASELINE.json [--max-regress=0.15] [...]
//
// --compare re-measures, then fails (exit 1) when any
// "event_queue.events_per_sec.*", "service.requests_per_sec.*",
// "service.chaos.*" or "scale.events_per_sec.*" metric dropped by more
// than --max-regress relative to the baseline file -- the CI regression
// gate.  Other metrics are reported but do not gate (they track larger,
// noisier workloads).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "apps/nas.h"
#include "archive/archive.h"
#include "archive/codec.h"
#include "cache/cache.h"
#include "core/framework.h"
#include "obs/metrics.h"
#include "scenario/scenario.h"
#include "scenario/synthetic.h"
#include "svc/service.h"
#include "sig/cluster.h"
#include "sig/compress.h"
#include "sig/signature.h"
#include "sim/engine.h"
#include "trace/event.h"
#include "trace/fold.h"
#include "trace/soa.h"
#include "util/chaos.h"
#include "util/cli.h"
#include "util/error.h"
#include "util/stats.h"

namespace {

using namespace psk;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Runs `body` `reps` times and returns the per-rep wall times, sorted
/// ascending -- ready for util::percentile_sorted (one sort, many
/// percentile queries).
std::vector<double> time_reps(int reps, const std::function<void()>& body) {
  body();  // untimed warmup: page-faults, allocator growth, branch history
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_seconds();
    body();
    samples.push_back(now_seconds() - t0);
  }
  std::sort(samples.begin(), samples.end());
  return samples;
}

/// Median of sorted per-rep times: robust against a one-off scheduling
/// hiccup, unlike min or mean.
double median_seconds(const std::vector<double>& sorted) {
  return util::percentile_sorted(sorted, 50.0);
}

void event_queue_metric(std::map<std::string, double>& metrics, int events,
                        int reps) {
  const auto sorted = time_reps(reps, [events] {
    sim::Engine engine;
    for (int i = 0; i < events; ++i) {
      engine.at(static_cast<double>(i % 97), [] {});
    }
    engine.run();
  });
  const double sec = median_seconds(sorted);
  const std::string suffix = std::to_string(events);
  metrics["event_queue.events_per_sec." + suffix] =
      static_cast<double>(events) / sec;
  metrics["event_queue.ns_per_event." + suffix] =
      sec * 1e9 / static_cast<double>(events);
  // Spread across reps (p95/p50): >1.2 means the box was noisy and the
  // medians above deserve suspicion.
  metrics["event_queue.p95_over_p50." + suffix] =
      util::percentile_sorted(sorted, 95.0) /
      std::max(util::percentile_sorted(sorted, 50.0), 1e-12);
}

/// Service-layer overhead and latency (PR 7's pskd request path).  Ping
/// throughput isolates admission + queueing + pool dispatch from the
/// simulator, so it is stable enough to gate; the predict percentiles ride
/// along ungated (they fold in skeleton-run time and queue position).
void service_metric(std::map<std::string, double>& metrics,
                    const skeleton::Skeleton& skeleton, int reps) {
  svc::ServiceOptions options;
  options.queue_capacity = 512;
  svc::Service service(options);

  constexpr int kPings = 256;
  const auto sorted = time_reps(reps, [&service] {
    for (int i = 0; i < kPings; ++i) {
      svc::Request request;
      request.header.id = static_cast<std::uint32_t>(i) + 1;
      request.header.op = svc::RequestOp::kPing;
      if (service.submit(std::move(request)).has_value()) std::abort();
    }
    if (service.drain().size() != kPings) std::abort();
  });
  const double sec = median_seconds(sorted);
  metrics["service.requests_per_sec.ping"] =
      static_cast<double>(kPings) / sec;
  metrics["service.us_per_request.ping"] =
      sec * 1e6 / static_cast<double>(kPings);

  std::string payload;
  archive::encode(payload, skeleton);
  std::string upload;
  archive::write_frame(upload, archive::PayloadKind::kSkeleton,
                       archive::kSkeletonVersion, payload);
  // A fresh service for the predicts: the ping loop above already filed
  // sub-microsecond kOk latency samples that would skew the percentiles.
  constexpr int kPredicts = 32;
  svc::Service predict_service(options);
  for (int i = 0; i < kPredicts; ++i) {
    svc::Request request;
    request.header.id = static_cast<std::uint32_t>(i) + 1;
    request.header.op = svc::RequestOp::kPredict;
    request.header.seed = 7;
    request.header.repetitions = 1;
    request.header.scenario = "dedicated";
    request.header.archive_bytes = upload;
    if (predict_service.submit(std::move(request)).has_value()) {
      std::abort();
    }
  }
  if (predict_service.drain().size() != kPredicts) std::abort();
  obs::MetricsRegistry registry;
  predict_service.publish(registry);
  metrics["service.predict_p50_ms"] =
      registry.counter("svc.latency_ms.ok.p50").value();
  metrics["service.predict_p99_ms"] =
      registry.counter("svc.latency_ms.ok.p99").value();

  // Hash reuse vs re-upload: the same predict measured both ways against
  // one service, so the delta is exactly what the hot-skeleton store buys
  // (a store lookup instead of a container parse per request).  Both keys
  // sit under the gated requests_per_sec prefix.
  constexpr int kReuse = 32;
  svc::Service reuse_service(options);
  std::uint64_t hash = 0;
  {
    svc::Request prime;
    prime.header.id = 1;
    prime.header.op = svc::RequestOp::kPredict;
    prime.header.seed = 7;
    prime.header.repetitions = 1;
    prime.header.scenario = "dedicated";
    prime.header.archive_bytes = upload;
    if (reuse_service.submit(std::move(prime)).has_value()) std::abort();
    const std::vector<svc::ResponseHeader> primed = reuse_service.drain();
    if (primed.size() != 1 || primed[0].status != svc::StatusCode::kOk ||
        primed[0].skeleton_hash == 0) {
      std::abort();
    }
    hash = primed[0].skeleton_hash;
  }
  const auto run_predicts = [&reuse_service, &upload, hash](bool by_hash) {
    for (int i = 0; i < kReuse; ++i) {
      svc::Request request;
      request.header.id = static_cast<std::uint32_t>(i) + 2;
      request.header.op = svc::RequestOp::kPredict;
      request.header.seed = 7;
      request.header.repetitions = 1;
      request.header.scenario = "dedicated";
      if (by_hash) {
        request.header.skeleton_hash = hash;
      } else {
        request.header.archive_bytes = upload;
      }
      if (reuse_service.submit(std::move(request)).has_value()) std::abort();
    }
    if (reuse_service.drain().size() != kReuse) std::abort();
  };
  const auto upload_sorted = time_reps(reps, [&] { run_predicts(false); });
  const auto hash_sorted = time_reps(reps, [&] { run_predicts(true); });
  metrics["service.requests_per_sec.predict_upload"] =
      static_cast<double>(kReuse) / median_seconds(upload_sorted);
  metrics["service.requests_per_sec.predict_hash"] =
      static_cast<double>(kReuse) / median_seconds(hash_sorted);
}

/// Chaos gate (PR 10's fault-injection machinery): a short in-process
/// live-mode soak under seeded worker stalls and store-write failures.
/// The metric *is* the robustness contract -- 1.0 when every submitted
/// request was answered exactly once, 0.0 otherwise -- and it gates, so
/// any change that silently drops or double-answers a request under
/// chaos fails the bench smoke.  Deterministic by construction: fixed
/// seed, fixed profile, fixed request count.
void chaos_metric(std::map<std::string, double>& metrics,
                  const std::string& upload) {
  util::ChaosProfile profile;
  profile.worker_stall_rate = 0.25;
  profile.worker_stall_ms = 2.0;
  profile.store_write_fail_rate = 0.5;
  util::ChaosSchedule chaos(17, profile);

  svc::ServiceOptions options;
  options.queue_capacity = 512;
  options.workers = 2;
  options.supervisor_poll_seconds = 0.005;
  options.chaos = &chaos;
  svc::Service service(options);

  constexpr std::uint32_t kRequests = 48;
  std::mutex mutex;
  std::map<std::uint32_t, int> answered;
  service.start([&](const svc::ResponseHeader& response) {
    std::lock_guard<std::mutex> lock(mutex);
    ++answered[response.id];
  });
  for (std::uint32_t id = 1; id <= kRequests; ++id) {
    svc::Request request;
    request.header.id = id;
    request.header.op = svc::RequestOp::kPredict;
    request.header.seed = 7;
    request.header.repetitions = 1;
    request.header.scenario = "dedicated";
    request.header.archive_bytes = upload;
    service.submit(std::move(request));
  }
  service.stop();  // drains everything, then joins workers + supervisor

  const svc::ServiceStats stats = service.stats();
  bool exactly_once = answered.size() == kRequests &&
                      stats.completed == stats.submitted;
  for (const auto& [id, count] : answered) {
    if (count != 1) exactly_once = false;
  }
  metrics["service.chaos.answered_exactly_once"] = exactly_once ? 1.0 : 0.0;
  // Ungated context (outside the service.chaos. gate prefix): how much
  // chaos the gate actually ran under.
  metrics["service.chaos_faults_injected"] = [&chaos] {
    const util::ChaosStats stats = chaos.stats();
    double total = 0;
    for (std::size_t site = 0; site < util::kChaosSiteCount; ++site) {
      total += static_cast<double>(stats.injected[site]);
    }
    return total;
  }();
}

/// Large-world simulator scaling (PR 9's per-link incremental flow core).
/// A 1024-rank fat-tree BSP run gates on event throughput -- a regression
/// back to dense (all-flows) re-rating cuts it by an order of magnitude --
/// and the 256->1024 host-time growth ratio rides along ungated as the
/// direct sub-quadratic record (4x ranks; quadratic would be 16x).
void scale_metric(std::map<std::string, double>& metrics, int reps) {
  const sim::TopologySpec fattree =
      sim::TopologySpec::parse("fattree:32,16");
  scenario::SyntheticSpec spec;
  spec.iterations = 5;
  const auto run = [&](int ranks) {
    sim::ClusterConfig cluster = sim::ClusterConfig::paper_testbed(ranks);
    cluster.cores_per_node = 1;
    cluster.topology = fattree;
    return scenario::run_synthetic_bsp(cluster, ranks, spec);
  };
  // The event count is deterministic per world size; only time varies.
  std::uint64_t events_256 = 0;
  std::uint64_t events_1024 = 0;
  const auto sorted_256 = time_reps(reps, [&] {
    events_256 = run(256).events_dispatched;
  });
  const auto sorted_1024 = time_reps(std::max(1, reps / 2), [&] {
    events_1024 = run(1024).events_dispatched;
  });
  const double host_256 = median_seconds(sorted_256);
  const double host_1024 = median_seconds(sorted_1024);
  metrics["scale.events_per_sec.fattree_256"] =
      static_cast<double>(events_256) / host_256;
  metrics["scale.events_per_sec.fattree_1024"] =
      static_cast<double>(events_1024) / host_1024;
  metrics["scale.host_growth_4x_fattree"] = host_1024 / host_256;
}

std::map<std::string, double> measure(int reps) {
  std::map<std::string, double> metrics;

  event_queue_metric(metrics, 1 << 12, reps);
  event_queue_metric(metrics, 1 << 16, reps);
  scale_metric(metrics, reps);

  // Shared LU class-S folded trace: the signature pipeline's standard
  // workload (same as perf_components).
  core::SkeletonFramework framework;
  const trace::Trace trace =
      framework.record(apps::find_benchmark("LU").make(apps::NasClass::kS),
                       "LU");
  const std::vector<trace::TraceEvent>& events = trace.ranks[0].events;
  const double rank_mb = static_cast<double>(events.size()) *
                         static_cast<double>(sizeof(trace::TraceEvent)) /
                         1e6;
  const double trace_mb = static_cast<double>(trace.event_count()) *
                          static_cast<double>(sizeof(trace::TraceEvent)) /
                          1e6;

  // Nonblocking-region folding over a raw copy of the stream.
  {
    const auto sorted = time_reps(reps, [&trace] {
      trace::Trace copy = trace;
      trace::fold_nonblocking(copy);
    });
    metrics["trace.fold_mb_per_sec"] = trace_mb / median_seconds(sorted);
  }

  // Clustering one rank (column view built per rep, as in production).
  {
    sig::ClusterOptions options;
    options.threshold = 0.1;
    const auto sorted = time_reps(reps, [&events, &options] {
      const sig::ClusterResult result =
          sig::cluster_events(events, options);
      if (result.cluster_count() == 0) std::abort();
    });
    metrics["sig.cluster_mb_per_sec"] = rank_mb / median_seconds(sorted);
  }

  // Loop folding of the clustered symbol string.
  {
    sig::ClusterOptions options;
    options.threshold = 0.1;
    const sig::ClusterResult clusters = sig::cluster_events(events, options);
    sig::SigSeq base;
    base.reserve(clusters.symbols.size());
    for (int symbol : clusters.symbols) {
      base.push_back(sig::SigNode::leaf(
          clusters.prototypes[static_cast<std::size_t>(symbol)]));
    }
    const double seq_mb = static_cast<double>(base.size()) *
                          static_cast<double>(sizeof(sig::SigNode)) / 1e6;
    const auto sorted = time_reps(reps, [&base] {
      sig::SigSeq copy = base;
      const sig::SigSeq folded = sig::fold_loops(std::move(copy));
      if (folded.empty()) std::abort();
    });
    metrics["sig.fold_mb_per_sec"] = seq_mb / median_seconds(sorted);
  }

  // Full threshold-search compression of the whole trace.
  {
    sig::CompressOptions options;
    options.target_ratio = 8.0;
    const auto sorted = time_reps(reps, [&trace, &options] {
      const sig::Signature signature = sig::compress(trace, options);
      if (signature.ranks.empty()) std::abort();
    });
    metrics["sig.compress_mb_per_sec"] = trace_mb / median_seconds(sorted);
  }

  // Cold vs warm skeleton run (the measurement phase's repeated cell).
  {
    const double k = std::max(1.0, trace.elapsed() / 0.05);
    const skeleton::Skeleton skeleton =
        framework.make_skeleton(framework.make_signature(trace, k), k);
    const auto cold = time_reps(reps, [&framework, &skeleton] {
      framework.run_skeleton(skeleton, scenario::dedicated());
    });
    metrics["skeleton.cold_run_ms"] = median_seconds(cold) * 1e3;

    core::FrameworkOptions cache_options;
    cache_options.result_cache = std::make_shared<cache::ResultCache>();
    core::SkeletonFramework cached(cache_options);
    cached.run_skeleton(skeleton, scenario::dedicated());  // prime
    const auto warm = time_reps(reps, [&cached, &skeleton] {
      cached.run_skeleton(skeleton, scenario::dedicated());
    });
    metrics["skeleton.warm_run_ms"] = median_seconds(warm) * 1e3;

    service_metric(metrics, skeleton, reps);

    std::string chaos_payload;
    archive::encode(chaos_payload, skeleton);
    std::string chaos_upload;
    archive::write_frame(chaos_upload, archive::PayloadKind::kSkeleton,
                         archive::kSkeletonVersion, chaos_payload);
    chaos_metric(metrics, chaos_upload);
  }

  // Bounded fig6-style pipeline: trace -> signature -> skeleton -> replay
  // for one benchmark at one size (construction dominates; scenarios are
  // covered by the skeleton runs above).
  {
    const auto sorted = time_reps(std::max(1, reps / 2), [] {
      core::SkeletonFramework pipeline;
      const skeleton::Skeleton skeleton = pipeline.construct(
          apps::find_benchmark("SP").make(apps::NasClass::kS), "SP", 0.05);
      if (skeleton.scaling_factor <= 0) std::abort();
    });
    metrics["pipeline.construct_ms"] = median_seconds(sorted) * 1e3;
  }

  return metrics;
}

std::string render_json(const std::map<std::string, double>& metrics,
                        int reps) {
  std::ostringstream out;
  out.precision(10);
  out << "{\n";
  out << "  \"schema\": \"psk-bench-trajectory-v1\",\n";
  out << "  \"reps\": " << reps << ",\n";
  out << "  \"metrics\": {\n";
  bool first = true;
  for (const auto& [key, value] : metrics) {
    if (!first) out << ",\n";
    first = false;
    out << "    \"" << key << "\": " << value;
  }
  out << "\n  }\n}\n";
  return out.str();
}

/// Minimal scanner for the flat schema above: every `"key": <number>` pair
/// in the file, first occurrence wins.  Not a general JSON parser -- just
/// enough for files bench_record itself wrote.
std::map<std::string, double> parse_metrics(const std::string& path) {
  std::ifstream in(path);
  util::require(in.good(), "bench_record: cannot read " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  std::map<std::string, double> metrics;
  std::size_t pos = 0;
  while ((pos = text.find('"', pos)) != std::string::npos) {
    const std::size_t key_end = text.find('"', pos + 1);
    if (key_end == std::string::npos) break;
    const std::string key = text.substr(pos + 1, key_end - pos - 1);
    std::size_t cursor = key_end + 1;
    while (cursor < text.size() &&
           (text[cursor] == ':' || text[cursor] == ' ')) {
      ++cursor;
    }
    if (cursor > key_end + 1 && cursor < text.size() &&
        (std::isdigit(static_cast<unsigned char>(text[cursor])) ||
         text[cursor] == '-' || text[cursor] == '+')) {
      metrics.emplace(key, std::strtod(text.c_str() + cursor, nullptr));
    }
    pos = key_end + 1;
  }
  return metrics;
}

/// The CI gate: event-queue throughput must not regress past the budget.
/// Returns the number of gate failures.
int compare_against(const std::map<std::string, double>& metrics,
                    const std::string& baseline_path, double max_regress) {
  const std::map<std::string, double> baseline =
      parse_metrics(baseline_path);
  int failures = 0;
  for (const auto& [key, value] : metrics) {
    const auto it = baseline.find(key);
    if (it == baseline.end()) continue;
    const double old_value = it->second;
    const bool gated =
        key.rfind("event_queue.events_per_sec.", 0) == 0 ||
        key.rfind("service.requests_per_sec.", 0) == 0 ||
        key.rfind("service.chaos.", 0) == 0 ||
        key.rfind("scale.events_per_sec.", 0) == 0;
    const double change =
        old_value != 0.0 ? (value - old_value) / old_value : 0.0;
    std::printf("%-42s %14.4g -> %14.4g  (%+.1f%%)%s\n", key.c_str(),
                old_value, value, change * 100.0, gated ? "  [gated]" : "");
    if (gated && value < old_value * (1.0 - max_regress)) {
      std::printf("FAIL: %s regressed %.1f%% (budget %.0f%%)\n", key.c_str(),
                  -change * 100.0, max_regress * 100.0);
      ++failures;
    }
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Cli cli(argc, argv);
    cli.require_known({"out", "reps", "quick", "compare", "max-regress"});
    const bool quick = cli.get_bool("quick", false);
    const int reps =
        static_cast<int>(cli.get_int("reps", quick ? 3 : 7));
    util::require(reps > 0, "bench_record: --reps must be positive");

    const std::map<std::string, double> metrics = measure(reps);
    const std::string json = render_json(metrics, reps);

    const std::string out_path = cli.get("out", "");
    if (!out_path.empty()) {
      std::ofstream out(out_path);
      util::require(out.good(), "bench_record: cannot write " + out_path);
      out << json;
      std::printf("wrote %s\n", out_path.c_str());
    } else {
      std::fputs(json.c_str(), stdout);
    }

    const std::string baseline = cli.get("compare", "");
    if (!baseline.empty()) {
      const double max_regress = cli.get_double("max-regress", 0.15);
      util::require(max_regress > 0 && max_regress < 1,
                    "bench_record: --max-regress must be in (0, 1)");
      if (compare_against(metrics, baseline, max_regress) > 0) return 1;
      std::printf("OK: within %.0f%% of %s\n", max_regress * 100.0,
                  baseline.c_str());
    }
    return 0;
  } catch (const psk::Error& e) {
    std::fprintf(stderr, "bench_record: %s\n", e.what());
    return 2;
  }
}

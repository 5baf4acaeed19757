// Extension: the prediction service under load.
//
// The paper's pipeline is offline; pskd turns it into a service, and a
// service has failure modes the pipeline never sees: queues fill, deadlines
// expire, clients hammer it past capacity.  This bench drives svc::Service
// through both standard load-test shapes and checks the robustness contract
// ("every request gets exactly one definite answer") holds at the edge:
//
//   closed loop -- N clients, each waiting for its answer before sending
//     the next, retrying retryable statuses (kOverloaded, kTimeout) with
//     the deterministic RetryPolicy backoff.  Measures sustained capacity
//     and end-to-end latency including retries.
//   open loop -- requests injected at 2x the measured sustained rate
//     (--open-mult), so the admission queue *must* shed.  Verifies
//     answered == sent (shed responses count: overload degrades loudly,
//     it never drops silently) and reports the shed fraction.
//   socket loop -- the same closed-loop shape over the real socket
//     transport (one unix-socket connection per client), run twice: every
//     request re-uploading the skeleton container, then every request
//     naming it by content hash.  The delta is what the hot-skeleton store
//     buys on the wire.
//
// Flags:
//   --clients=N     closed-loop client threads / socket connections
//                   (default 4)
//   --requests=N    logical requests per client (default 16)
//   --queue=N       admission queue capacity (default 8)
//   --workers=N     service worker threads (0 = hardware concurrency)
//   --open-mult=X   open-loop injection rate as a multiple of the measured
//                   closed-loop rate (default 2)
//   --quick         small counts for CI smoke
//   --metrics-out=F flat key=value dump: svc.* from the overloaded service
//                   plus bench.* summary counters
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "apps/nas.h"
#include "archive/archive.h"
#include "archive/codec.h"
#include "core/framework.h"
#include "obs/metrics.h"
#include "svc/service.h"
#include "svc/transport.h"
#include "util/cli.h"
#include "util/error.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace psk;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void sleep_seconds(double seconds) {
  if (seconds > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  }
}

/// PSKARCH1 container bytes of a small MG skeleton, built once; this is
/// the upload every request carries.
std::string make_upload() {
  core::SkeletonFramework framework;
  const trace::Trace trace = framework.record(
      apps::find_benchmark("MG").make(apps::NasClass::kS), "MG");
  const skeleton::Skeleton skeleton =
      framework.make_skeleton(framework.make_signature(trace, 10.0), 10.0);
  std::string payload;
  archive::encode(payload, skeleton);
  std::string out;
  archive::write_frame(out, archive::PayloadKind::kSkeleton,
                       archive::kSkeletonVersion, payload);
  return out;
}

svc::RequestHeader make_header(std::uint32_t id, const std::string& upload) {
  svc::RequestHeader header;
  header.id = id;
  header.op = svc::RequestOp::kPredict;
  header.seed = 7;
  header.repetitions = 1;
  header.deadline_seconds = 30.0;
  header.scenario = "dedicated";
  header.archive_bytes = upload;
  return header;
}

svc::Request make_request(std::uint32_t id, const std::string& upload) {
  svc::Request request;
  request.header = make_header(id, upload);
  return request;
}

/// Response mailbox shared between the delivery callback and the waiting
/// client threads.
struct Mailbox {
  std::mutex mutex;
  std::condition_variable cv;
  std::map<std::uint32_t, svc::ResponseHeader> done;

  void deliver(const svc::ResponseHeader& response) {
    std::lock_guard<std::mutex> lock(mutex);
    done.emplace(response.id, response);
    cv.notify_all();
  }

  svc::ResponseHeader wait_for(std::uint32_t id) {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return done.count(id) != 0; });
    svc::ResponseHeader response = done.at(id);
    done.erase(id);
    return response;
  }
};

struct LoopResult {
  std::uint64_t logical = 0;     // logical requests (after retries resolve)
  std::uint64_t attempts = 0;    // physical submits
  std::uint64_t by_status[static_cast<int>(svc::kLastStatusCode) + 1] = {};
  std::vector<double> ok_latency_ms;  // end-to-end, retries included
  double wall_seconds = 0;
  svc::ServiceStats service;
};

void print_loop(const char* name, const LoopResult& result) {
  util::Table table({"status", "count"});
  for (int code = 0; code <= static_cast<int>(svc::kLastStatusCode); ++code) {
    if (result.by_status[code] == 0) continue;
    table.add_row({svc::status_name(static_cast<svc::StatusCode>(code)),
                   std::to_string(result.by_status[code])});
  }
  std::printf("%s: %llu request(s), %llu submit(s), %.2f req/s\n",
              name, static_cast<unsigned long long>(result.logical),
              static_cast<unsigned long long>(result.attempts),
              static_cast<double>(result.logical) /
                  std::max(result.wall_seconds, 1e-9));
  std::printf("%s", table.render().c_str());
  if (!result.ok_latency_ms.empty()) {
    std::vector<double> sorted = result.ok_latency_ms;
    std::sort(sorted.begin(), sorted.end());
    std::printf("ok latency ms: p50 %.2f  p99 %.2f  p999 %.2f\n",
                util::percentile_sorted(sorted, 50.0),
                util::percentile_sorted(sorted, 99.0),
                util::percentile_sorted(sorted, 99.9));
  }
  std::printf("service: admitted %llu, shed %llu, queue high water %zu\n\n",
              static_cast<unsigned long long>(result.service.admitted),
              static_cast<unsigned long long>(result.service.shed),
              result.service.queue_high_water);
}

/// N clients, each waiting for its answer before the next request, with
/// RetryPolicy-paced retries on retryable statuses.
LoopResult closed_loop(const svc::ServiceOptions& options, int clients,
                       int per_client, const std::string& upload) {
  svc::Service service(options);
  Mailbox mailbox;
  service.start([&](const svc::ResponseHeader& r) { mailbox.deliver(r); });

  std::atomic<std::uint32_t> next_id{1};
  std::mutex result_mutex;
  LoopResult result;
  const svc::RetryPolicy policy;
  const double t0 = now_seconds();

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      for (int i = 0; i < per_client; ++i) {
        const double start = now_seconds();
        svc::ResponseHeader response;
        int attempt = 0;
        while (true) {
          const std::uint32_t id = next_id.fetch_add(1);
          service.submit(make_request(id, upload));
          {
            std::lock_guard<std::mutex> lock(result_mutex);
            ++result.attempts;
          }
          response = mailbox.wait_for(id);
          if (!svc::is_retryable(response.status) ||
              attempt + 1 >= policy.max_attempts) {
            break;
          }
          sleep_seconds(policy.backoff_seconds(attempt));
          ++attempt;
        }
        std::lock_guard<std::mutex> lock(result_mutex);
        ++result.logical;
        ++result.by_status[static_cast<int>(response.status)];
        if (response.status == svc::StatusCode::kOk) {
          result.ok_latency_ms.push_back((now_seconds() - start) * 1e3);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  service.stop();
  result.wall_seconds = now_seconds() - t0;
  result.service = service.stats();
  return result;
}

/// Requests injected at a fixed rate regardless of completions -- the shape
/// that actually fills a bounded queue.  Every submit must be answered.
LoopResult open_loop(const svc::ServiceOptions& options, int total,
                     double rate_per_sec, const std::string& upload,
                     obs::MetricsRegistry* metrics) {
  svc::Service service(options);
  std::mutex result_mutex;
  LoopResult result;
  std::uint64_t answered = 0;
  service.start([&](const svc::ResponseHeader& r) {
    std::lock_guard<std::mutex> lock(result_mutex);
    ++answered;
    ++result.logical;
    ++result.by_status[static_cast<int>(r.status)];
  });

  const double interval = 1.0 / std::max(rate_per_sec, 1e-6);
  const double t0 = now_seconds();
  for (int i = 0; i < total; ++i) {
    // Absolute schedule: submit i is due at t0 + i*interval.  Sleeping the
    // raw interval would let OS timer granularity silently lower the rate;
    // catching up with a burst keeps the *average* rate at the target,
    // which is the property that actually fills the queue.
    sleep_seconds(t0 + static_cast<double>(i) * interval - now_seconds());
    service.submit(make_request(static_cast<std::uint32_t>(i) + 1, upload));
    {
      std::lock_guard<std::mutex> lock(result_mutex);
      ++result.attempts;
    }
  }
  service.stop();  // drains everything still queued
  result.wall_seconds = now_seconds() - t0;
  result.service = service.stats();
  if (metrics != nullptr) service.publish(*metrics);

  util::require(answered == static_cast<std::uint64_t>(total),
                "open loop: " + std::to_string(total) + " request(s) sent "
                "but only " + std::to_string(answered) +
                " answered -- a response was silently dropped");
  return result;
}

struct SocketLoopResult {
  std::uint64_t ok = 0;
  std::uint64_t other = 0;  // shed/failed -- still answered, just not kOk
  double wall_seconds = 0;
  cache::StoreStats store;

  double reqs_per_sec() const {
    return static_cast<double>(ok + other) / std::max(wall_seconds, 1e-9);
  }
};

/// Closed loop over the real socket transport: one connection per client,
/// each waiting for its response before the next request.  `by_hash`
/// switches every request from re-uploading the container to naming the
/// primed skeleton by content hash.
SocketLoopResult socket_loop(const svc::ServiceOptions& options, int clients,
                             int per_client, const std::string& upload,
                             bool by_hash) {
  svc::Service service(options);
  service.start([](const svc::ResponseHeader&) {});
  svc::ListenAddress address;
  address.kind = svc::ListenAddress::Kind::kUnix;
  address.path = "/tmp/ext_service_" + std::to_string(::getpid()) + "_" +
                 (by_hash ? "hash" : "upload") + ".sock";
  svc::SocketServer server(address, service, {});
  std::thread serving([&server] { server.serve(); });

  // Prime: one upload retains the skeleton and announces its hash.
  std::uint64_t hash = 0;
  {
    svc::SocketClient prime(address);
    prime.send_request(make_header(1, upload));
    svc::ResponseHeader response;
    util::require(prime.read_response(response) &&
                      response.status == svc::StatusCode::kOk,
                  "socket loop: priming upload failed");
    hash = response.skeleton_hash;
    util::require(hash != 0, "socket loop: upload response carried no hash");
  }

  std::atomic<std::uint32_t> next_id{2};
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> other{0};
  const double t0 = now_seconds();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      svc::SocketClient client(address);
      for (int i = 0; i < per_client; ++i) {
        svc::RequestHeader header = make_header(next_id.fetch_add(1), upload);
        if (by_hash) {
          header.archive_bytes.clear();
          header.skeleton_hash = hash;
        }
        client.send_request(header);
        svc::ResponseHeader response;
        util::require(client.read_response(response),
                      "socket loop: connection died before its response");
        (response.status == svc::StatusCode::kOk ? ok : other)
            .fetch_add(1);
      }
      client.shutdown_send();
    });
  }
  for (std::thread& thread : threads) thread.join();

  SocketLoopResult result;
  result.wall_seconds = now_seconds() - t0;
  server.stop();
  serving.join();
  service.stop();
  result.ok = ok.load();
  result.other = other.load();
  result.store = service.skeleton_store().stats();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Cli cli(argc, argv);
    cli.require_known({"clients", "requests", "queue", "workers",
                       "open-mult", "quick", "metrics-out"});
    const bool quick = cli.get_bool("quick", false);
    const int clients =
        static_cast<int>(cli.get_int("clients", quick ? 2 : 4));
    const int per_client =
        static_cast<int>(cli.get_int("requests", quick ? 4 : 16));
    const double open_mult = cli.get_double("open-mult", 2.0);
    util::require(clients > 0, "--clients must be positive");
    util::require(per_client > 0, "--requests must be positive");
    util::require(open_mult > 0, "--open-mult must be positive");

    svc::ServiceOptions options;
    options.queue_capacity =
        static_cast<std::size_t>(cli.get_int("queue", 8));
    options.workers = static_cast<int>(cli.get_int("workers", 0));
    util::require(options.queue_capacity > 0, "--queue must be positive");
    util::require(options.workers >= 0, "--workers must be >= 0");

    std::printf("=== Extension: prediction service under load ===\n");
    std::printf(
        "queue capacity %zu, %d worker(s), %d client(s) x %d request(s)\n\n",
        options.queue_capacity, options.workers, clients, per_client);

    const std::string upload = make_upload();

    const LoopResult closed =
        closed_loop(options, clients, per_client, upload);
    print_loop("closed loop", closed);

    const double sustained = static_cast<double>(closed.logical) /
                             std::max(closed.wall_seconds, 1e-9);
    const double open_rate = sustained * open_mult;
    const int open_total = clients * per_client;
    std::printf("open loop: injecting %d request(s) at %.2f req/s "
                "(%.1fx sustained)\n", open_total, open_rate, open_mult);

    obs::MetricsRegistry metrics;
    const LoopResult open =
        open_loop(options, open_total, open_rate, upload, &metrics);
    print_loop("open loop", open);
    std::printf("answered == sent: overload shed %llu request(s) loudly, "
                "dropped none\n\n",
                static_cast<unsigned long long>(open.service.shed));

    std::printf("socket loop: %d connection(s) x %d request(s) over a unix "
                "socket\n", clients, per_client);
    const SocketLoopResult reupload =
        socket_loop(options, clients, per_client, upload, false);
    const SocketLoopResult reuse =
        socket_loop(options, clients, per_client, upload, true);
    std::printf("  re-upload : %.2f req/s (%llu ok, %llu other)\n",
                reupload.reqs_per_sec(),
                static_cast<unsigned long long>(reupload.ok),
                static_cast<unsigned long long>(reupload.other));
    std::printf("  hash-reuse: %.2f req/s (%llu ok, %llu other), "
                "%.2fx, %llu store hit(s)\n",
                reuse.reqs_per_sec(),
                static_cast<unsigned long long>(reuse.ok),
                static_cast<unsigned long long>(reuse.other),
                reuse.reqs_per_sec() /
                    std::max(reupload.reqs_per_sec(), 1e-9),
                static_cast<unsigned long long>(reuse.store.hits));

    const std::string metrics_out = cli.get("metrics-out", "");
    if (!metrics_out.empty()) {
      metrics.counter("bench.closed.logical")
          .add(static_cast<double>(closed.logical));
      metrics.counter("bench.closed.attempts")
          .add(static_cast<double>(closed.attempts));
      metrics.counter("bench.open.sent")
          .add(static_cast<double>(open.attempts));
      metrics.counter("bench.open.answered")
          .add(static_cast<double>(open.logical));
      metrics.counter("bench.socket.upload_reqs_per_sec")
          .add(reupload.reqs_per_sec());
      metrics.counter("bench.socket.hash_reqs_per_sec")
          .add(reuse.reqs_per_sec());
      metrics.counter("bench.socket.store_hits")
          .add(static_cast<double>(reuse.store.hits));
      std::ofstream out(metrics_out);
      util::require(out.good(), "cannot open " + metrics_out);
      out << metrics.to_kv(0.0);
      std::printf("metrics -> %s\n", metrics_out.c_str());
    }
    return 0;
  } catch (const ConfigError& error) {
    std::fprintf(stderr, "%s: %s\n", argc > 0 ? argv[0] : "ext_service",
                 error.what());
    return 2;
  } catch (const psk::Error& error) {
    std::fprintf(stderr, "ext_service: %s\n", error.what());
    return 1;
  }
}

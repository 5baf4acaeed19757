// The two pskd workloads (NOTES.md): predict-replay and
// predict-upload-cached.  One run:
//   1. builds the 30-skeleton corpus and the whole request plan from the
//      seed (outside every timed window);
//   2. starts pskd five times, each time until it answers a health probe
//      and holds the primed corpus; setup_s is the median, the last
//      daemon serves the load;
//   3. drives the load from one thread over nproc-1 unix connections:
//      open-loop windows at the low and the high rate in turn, and between
//      them eight closed grid batches of 360 predicts;
//   4. stops pskd, reads its --metrics-out dump, and checks every kOk value
//      against an in-process SkeletonFramework::run_skeleton reference;
//   5. with --trace=1, replays the low-rate stream in-process through the
//      layer functions pskd calls, with spans, and prints the waterfall.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "archive/archive.h"
#include "archive/codec.h"
#include "archive/wire.h"
#include "bench.h"
#include "cache/cache.h"
#include "core/framework.h"
#include "guard/validate.h"
#include "scenario/scenario.h"
#include "svc/store.h"
#include "util/rng.h"

namespace pskbench {

namespace {

namespace psvc = psk::svc;

/// Requests the generator may have in flight during the closed grid
/// batches: below pskd's default queue (64) and per-connection in-flight
/// cap (32), so a batch never sheds.
constexpr std::size_t kWindow = 24;
/// Daemon set-ups per run (setup_s is their median).
constexpr int kSetups = 5;
/// Closed grid batches per run (grid_s is their median).
constexpr int kGridBatches = 8;
/// Open-loop samples per rate point, at least: the p99 then has ten
/// samples beyond it.
constexpr std::size_t kMinSamples = 1000;
/// Distinct frames per key on predict-upload-cached; ids repeat every
/// kVariants uses of one key (see Scheduled).
constexpr std::uint32_t kVariants = 32;
/// Requests the traced in-process replay takes from the low-rate stream.
constexpr std::size_t kTracedRequests = 1000;

/// One predict: which corpus skeleton, which scenario, which seed.
struct Key {
  std::size_t entry = 0;
  std::size_t scenario = 0;
  std::uint64_t seed = 0;
  bool operator<(const Key& other) const {
    return std::tie(entry, scenario, seed) <
           std::tie(other.entry, other.scenario, other.seed);
  }
};

struct Phase {
  std::string name;
  std::vector<Key> keys;
  std::vector<Scheduled> requests;
  PhaseResult result;
};

/// Poisson arrival times at `rate` for `duration` seconds, and at least
/// kMinSamples of them.
std::vector<double> arrivals(psk::util::Rng& rng, double rate,
                             double duration) {
  std::vector<double> at;
  double t = 0;
  while (true) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t > duration && at.size() >= kMinSamples) break;
    at.push_back(t);
  }
  return at;
}

/// The in-process reference for one key: what run_skeleton returns for the
/// skeleton pskd decoded, under the framework options pskd uses.
double reference_value(const CorpusEntry& entry, const std::string& scenario,
                       std::uint64_t seed,
                       std::shared_ptr<psk::cache::ResultCache> cache) {
  psk::core::FrameworkOptions options;
  options.ranks = entry.skeleton.rank_count();
  options.result_cache = std::move(cache);
  const psk::core::SkeletonFramework framework(options);
  return framework.run_skeleton(entry.skeleton,
                                psk::scenario::find_scenario(scenario), seed);
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Percentile `q` of `field` in each window.
std::vector<double> windowed(const std::vector<Phase>& windows, double q,
                             double Answer::*field = &Answer::latency_ms) {
  std::vector<double> out;
  for (const Phase& window : windows) {
    std::vector<double> sample;
    for (const Answer& answer : window.result.answers) {
      sample.push_back(answer.*field);
    }
    out.push_back(percentile(sample, q));
  }
  return out;
}

class ServiceRun {
 public:
  explicit ServiceRun(const ServiceConfig& config)
      : config_(config),
        replay_(config.workload == "predict-replay"),
        conns_(static_cast<std::size_t>(std::max(1, hardware_threads() - 1))) {}

  Outcome run();

 private:
  void plan();
  std::string_view frame_for(const Key& key, std::uint32_t& id);
  std::vector<Scheduled> closed(const std::vector<Key>& keys);
  std::vector<Scheduled> open(const std::vector<Key>& keys,
                              const std::vector<double>& at);
  double setup(int index, bool keep, std::unique_ptr<Daemon>& daemon,
               std::vector<std::unique_ptr<Connection>>& conns);
  void check_answers(const Phase& phase);
  void reference_all();
  /// The first kTracedRequests of the low-rate windows, in send order.
  std::vector<std::pair<const Phase*, std::size_t>> traced_requests() const;
  void traced_replay();
  std::vector<std::string> daemon_flags(int index) const;

  const ServiceConfig& config_;
  const bool replay_;
  const std::size_t conns_;
  Outcome outcome_;
  std::vector<CorpusEntry> corpus_;
  std::vector<Key> upload_keys_;
  /// Encoded frames; requests point into these (a deque never moves them).
  std::deque<std::string> frames_;
  std::map<std::pair<std::size_t, std::uint32_t>, std::size_t> variant_frame_;
  std::vector<std::uint32_t> variant_next_;
  std::uint32_t next_id_ = 1;
  Phase prime_;
  std::vector<Phase> grids_;
  /// The low and high rates, measured in alternating windows.
  std::vector<Phase> lows_;
  std::vector<Phase> highs_;
  std::map<Key, double> reference_;
  std::map<std::string, double> daemon_metrics_;
};

std::vector<std::string> ServiceRun::daemon_flags(int index) const {
  // pskd's defaults (result cache on, workers = hardware threads), plus the
  // metrics dump and --max-conns so the daemon exits -- and writes the
  // dump -- once the generator's connections close.
  const std::size_t conns = index == kSetups - 1 ? conns_ : 1;
  return {"--metrics-out=" + config_.workdir + "/pskd-" +
              std::to_string(index) + ".metrics",
          "--max-conns=" + std::to_string(conns)};
}

std::string_view ServiceRun::frame_for(const Key& key, std::uint32_t& id) {
  const CorpusEntry& entry = corpus_[key.entry];
  psvc::RequestHeader header;
  header.op = psvc::RequestOp::kPredict;
  header.seed = key.seed;
  header.scenario = corpus_scenarios()[key.scenario];
  if (replay_) {
    // Predict by hash: every request its own frame and id.
    header.id = id = next_id_++;
    header.skeleton_hash = entry.hash;
    frames_.push_back(request_frame(header));
    return frames_.back();
  }
  // Upload: frames of one key differ only in the id, so each key has
  // kVariants pre-encoded frames used in turn.
  const std::size_t k = static_cast<std::size_t>(
      std::find_if(upload_keys_.begin(), upload_keys_.end(),
                   [&](const Key& other) {
                     return other.entry == key.entry &&
                            other.scenario == key.scenario &&
                            other.seed == key.seed;
                   }) -
      upload_keys_.begin());
  const std::uint32_t variant = variant_next_[k]++ % kVariants;
  id = 1 + static_cast<std::uint32_t>(k) * kVariants + variant;
  const auto found = variant_frame_.find({k, variant});
  if (found != variant_frame_.end()) return frames_[found->second];
  header.id = id;
  header.archive_bytes = entry.canonical;
  frames_.push_back(request_frame(header));
  variant_frame_[{k, variant}] = frames_.size() - 1;
  return frames_.back();
}

std::vector<Scheduled> ServiceRun::closed(const std::vector<Key>& keys) {
  std::vector<Scheduled> out;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    Scheduled request;
    request.conn = i % conns_;
    request.frame = frame_for(keys[i], request.id);
    out.push_back(request);
  }
  return out;
}

std::vector<Scheduled> ServiceRun::open(const std::vector<Key>& keys,
                                        const std::vector<double>& at) {
  std::vector<Scheduled> out = closed(keys);
  for (std::size_t i = 0; i < out.size(); ++i) out[i].at = at[i];
  return out;
}

void ServiceRun::plan() {
  const std::size_t scenarios = corpus_scenarios().size();
  psk::util::Rng keys_rng(derive_seed(config_.seed, "keys"));
  psk::util::Rng arrival_rng(derive_seed(config_.seed, "arrivals"));
  // Request seeds come from the workload seed but are not it; on
  // predict-replay each request has its own, so every cache lookup misses.
  std::uint64_t fresh_seed = derive_seed(config_.seed, "seeds") >> 40;
  // The mix is the same for every seed: requests come in blocks that hold
  // each choice once (on predict-replay every (skeleton, scenario) cell,
  // on the upload workload every key), in a seeded order.  Only the order,
  // the request seeds and the arrival times vary with the seed.
  if (!replay_) {
    // One key per corpus skeleton, under a seeded scenario and seed.
    for (std::size_t e = 0; e < corpus_.size(); ++e) {
      upload_keys_.push_back({e, keys_rng.below(scenarios), ++fresh_seed});
    }
    variant_next_.assign(upload_keys_.size(), 0);
  }
  std::vector<Key> deck;
  const auto draw = [&] {
    if (deck.empty()) {
      if (replay_) {
        for (std::size_t e = 0; e < corpus_.size(); ++e) {
          for (std::size_t sc = 0; sc < scenarios; ++sc) deck.push_back({e, sc, 0});
        }
      } else {
        deck = upload_keys_;
      }
      for (std::size_t i = deck.size() - 1; i > 0; --i) {
        std::swap(deck[i], deck[keys_rng.below(i + 1)]);
      }
    }
    Key key = deck.back();
    deck.pop_back();
    if (replay_) key.seed = ++fresh_seed;
    return key;
  };
  // Priming: predict-replay uploads every corpus skeleton once; the upload
  // workload touches every key once, so afterwards every lookup hits.
  prime_.name = "prime";
  if (replay_) {
    for (std::size_t e = 0; e < corpus_.size(); ++e) {
      psvc::RequestHeader header;
      header.id = next_id_++;
      header.seed = ++fresh_seed;
      header.archive_bytes = corpus_[e].canonical;
      prime_.keys.push_back({e, 0, header.seed});
      frames_.push_back(request_frame(header));
      prime_.requests.push_back({0, header.id, 0, frames_.back()});
    }
  } else {
    prime_.keys = upload_keys_;
    for (Scheduled& request : closed(prime_.keys)) {
      request.conn = 0;
      prime_.requests.push_back(request);
    }
  }

  // Closed grids: each twice the 180 (skeleton, scenario) cells' worth of
  // predicts, drawn like the open-loop requests.
  for (int g = 0; g < kGridBatches; ++g) {
    Phase grid;
    grid.name = "grid." + std::to_string(g);
    for (std::size_t i = 0; i < 2 * corpus_.size() * scenarios; ++i) {
      grid.keys.push_back(draw());
    }
    grid.requests = closed(grid.keys);
    grids_.push_back(std::move(grid));
  }

  // The low and high rates share the measuring time in alternating
  // windows of at least kMinSamples, so that host noise moves some windows
  // of each, not a whole phase.
  const auto make_open = [&](const std::string& name, double rate,
                             double duration) {
    Phase phase;
    phase.name = name;
    const std::vector<double> at = arrivals(arrival_rng, rate, duration);
    for (std::size_t i = 0; i < at.size(); ++i) phase.keys.push_back(draw());
    phase.requests = open(phase.keys, at);
    return phase;
  };
  const double budget = config_.seconds;
  const double slice = budget / 20;
  const double low_s =
      std::max(slice, static_cast<double>(kMinSamples) / config_.low_rps);
  const double high_s =
      std::max(slice, static_cast<double>(kMinSamples) / config_.high_rps);
  const int windows =
      std::max(2, static_cast<int>(budget / (low_s + high_s)));
  for (int w = 0; w < windows; ++w) {
    lows_.push_back(make_open("low." + std::to_string(w), config_.low_rps, low_s));
    highs_.push_back(
        make_open("high." + std::to_string(w), config_.high_rps, high_s));
  }
}

double ServiceRun::setup(int index, bool keep, std::unique_ptr<Daemon>& daemon,
                         std::vector<std::unique_ptr<Connection>>& conns) {
  const std::string socket =
      config_.workdir + "/pskd-" + std::to_string(index) + ".sock";
  const double start = now_s();
  daemon = std::make_unique<Daemon>(config_.pskd, socket, daemon_flags(index));
  conns.clear();
  conns.push_back(std::make_unique<Connection>(socket, 30.0));
  if (!probe_health(*conns[0], 30.0)) {
    throw std::runtime_error("pskd did not answer the health probe");
  }
  std::vector<Connection*> first{conns[0].get()};
  PhaseResult primed = run_window(first, prime_.requests, kWindow, 60.0);
  const double elapsed = now_s() - start;
  if (keep) {
    prime_.result = std::move(primed);
    for (std::size_t i = 1; i < conns_; ++i) {
      conns.push_back(std::make_unique<Connection>(socket, 30.0));
    }
  } else {
    conns.clear();
    if (daemon->wait(30.0) != 0) outcome_.fail("a set-up pskd did not exit cleanly");
    daemon.reset();
  }
  return elapsed;
}

/// Counts and checks one phase's answers: exactly one per request, kOk,
/// and (after reference_all) bit-equal values.
void ServiceRun::check_answers(const Phase& phase) {
  const PhaseResult& result = phase.result;
  if (result.unexpected > 0) {
    outcome_.fail(phase.name + ": a request was answered more than once");
  }
  if (!result.transport_ok) outcome_.fail(phase.name + ": connection failed");
  for (std::size_t i = 0; i < phase.keys.size(); ++i) {
    const Answer& answer = result.answers[i];
    ++outcome_.attempted;
    bool failed = false;
    if (!answer.answered) {
      outcome_.fail(phase.name + ": a request was never answered");
      failed = true;
    } else if (answer.response.status != psvc::StatusCode::kOk) {
      failed = true;
    } else {
      const auto ref = reference_.find(phase.keys[i]);
      if (answer.response.values.size() != 1 || ref == reference_.end() ||
          !same_bits(answer.response.values[0], ref->second)) {
        outcome_.fail(phase.name +
                      ": a kOk value differs from the in-process reference");
        failed = true;
      }
      if (answer.response.skeleton_hash != corpus_[phase.keys[i].entry].hash) {
        outcome_.fail(phase.name + ": response names the wrong skeleton hash");
        failed = true;
      }
    }
    if (failed) ++outcome_.failed;
  }
}

void ServiceRun::reference_all() {
  std::set<Key> wanted;
  const auto collect = [&](const Phase& phase) {
    for (std::size_t i = 0; i < phase.keys.size(); ++i) {
      if (phase.result.answers[i].answered &&
          phase.result.answers[i].response.status == psvc::StatusCode::kOk) {
        wanted.insert(phase.keys[i]);
      }
    }
  };
  collect(prime_);
  for (const Phase& grid : grids_) collect(grid);
  for (const Phase& low : lows_) collect(low);
  for (const Phase& high : highs_) collect(high);
  // The low stream's first requests are replayed in-process when tracing;
  // their references are needed whatever pskd answered.
  if (config_.trace) {
    for (const auto& [phase, i] : traced_requests()) wanted.insert(phase->keys[i]);
  }
  const std::vector<Key> keys(wanted.begin(), wanted.end());
  std::vector<double> values(keys.size());
  std::atomic<std::size_t> next{0};
  std::atomic<bool> threw{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < hardware_threads(); ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = next++; i < keys.size(); i = next++) {
        try {
          values[i] = reference_value(corpus_[keys[i].entry],
                                      corpus_scenarios()[keys[i].scenario],
                                      keys[i].seed, nullptr);
        } catch (const std::exception&) {
          threw = true;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  if (threw) throw std::runtime_error("an in-process reference replay failed");
  for (std::size_t i = 0; i < keys.size(); ++i) reference_[keys[i]] = values[i];
}

std::vector<std::pair<const Phase*, std::size_t>> ServiceRun::traced_requests()
    const {
  std::vector<std::pair<const Phase*, std::size_t>> out;
  for (const Phase& low : lows_) {
    for (std::size_t i = 0; i < low.keys.size() && out.size() < kTracedRequests;
         ++i) {
      out.emplace_back(&low, i);
    }
  }
  return out;
}

/// Replays the daemon's life in-process, on one thread, through the
/// functions svc::Service::predict calls, in its order: the set-up's
/// priming predicts, then the first kTracedRequests of the low-rate
/// stream, and on predict-replay the priming predicts once more (pskd's
/// stream never repeats a key there, so this is where its cache-hit path is
/// timed).  Once without spans (the baseline for the tracing overhead),
/// once with a span around every layer call.
void ServiceRun::traced_replay() {
  struct Traced {
    std::string_view frame;
    Key key;
    const Answer* answer;  // the served request's answer; null for priming
  };
  std::vector<Traced> sequence;
  for (std::size_t i = 0; i < prime_.keys.size(); ++i) {
    sequence.push_back({prime_.requests[i].frame, prime_.keys[i], nullptr});
  }
  for (const auto& [low, i] : traced_requests()) {
    sequence.push_back({low->requests[i].frame, low->keys[i],
                        &low->result.answers[i]});
  }
  if (replay_) {
    for (std::size_t i = 0; i < prime_.keys.size(); ++i) {
      sequence.push_back({prime_.requests[i].frame, prime_.keys[i], nullptr});
    }
  }
  const std::string trace_path = config_.workdir + "/" + config_.workload +
                                 "-" + std::to_string(config_.seed) +
                                 ".trace.json";
  // Per request: wall seconds without spans (pass 1) and with (pass 2).
  std::vector<double> untraced_s(sequence.size());
  std::vector<double> traced_s(sequence.size());
  SpanLog log;
  bool values_match = true;
  // Pass 0 warms caches and allocators on a prefix and is not counted;
  // pass 1 is the baseline without spans, pass 2 the traced replay.
  for (int pass = 0; pass < 3; ++pass) {
    const bool traced = pass == 2;
    const std::size_t count =
        pass == 0 ? std::min<std::size_t>(sequence.size(), 100) : sequence.size();
    // A fresh store and cache per pass, empty like a starting daemon's.
    psvc::SkeletonStore store(256, 256u << 20);
    auto cache = std::make_shared<psk::cache::ResultCache>();
    std::set<Key> seen;
    std::uint64_t repeats = 0;
    for (std::size_t r = 0; r < count; ++r) {
      const Traced& request = sequence[r];
      const double request_start = now_s();
      const auto id = static_cast<std::uint32_t>(r);
      const auto span = [&](const char* name, int parent) {
        return traced ? log.begin(name, parent, id) : -1;
      };
      const auto close = [&](int s) {
        if (traced) log.end(s);
      };
      const int root = span("request", -1);

      int s = span("svc.frame", root);
      psvc::Frame frame;
      std::size_t consumed = 0;
      psk::archive::Error error;
      if (psvc::try_parse_frame(request.frame, psvc::kMaxFrameBytes, frame,
                                consumed, error) != psvc::ParseProgress::kFrame) {
        throw std::runtime_error("traced replay: bad frame");
      }
      psvc::RequestHeader header = psvc::decode_request(frame.body).or_throw();
      close(s);

      psk::skeleton::Skeleton skeleton;
      psvc::ResponseHeader response;
      response.id = header.id;
      if (header.skeleton_hash != 0) {
        s = span("svc.store_get", root);
        const std::optional<std::string> canonical =
            store.get(header.skeleton_hash);
        close(s);
        if (!canonical) throw std::runtime_error("traced replay: store miss");
        s = span("archive.decode", root);
        psk::archive::Frame stored =
            psk::archive::read_frame(*canonical).or_throw();
        skeleton = psk::archive::decode_skeleton(stored.payload,
                                                 stored.payload_version)
                       .or_throw();
        close(s);
        response.skeleton_hash = header.skeleton_hash;
      } else {
        s = span("archive.decode", root);
        psk::archive::Frame upload =
            psk::archive::read_frame(header.archive_bytes).or_throw();
        skeleton = psk::archive::decode_skeleton(upload.payload,
                                                 upload.payload_version)
                       .or_throw();
        close(s);
        s = span("archive.canonical", root);
        std::string canonical = canonical_bytes(skeleton);
        close(s);
        s = span("svc.store_put", root);
        response.skeleton_hash = store.put(std::move(canonical));
        close(s);
      }

      s = span("guard.validate", root);
      const bool valid = psk::guard::validate_skeleton(skeleton).ok();
      close(s);
      if (!valid) throw std::runtime_error("traced replay: invalid skeleton");

      const bool hit = !seen.insert(request.key).second;
      repeats += hit ? 1 : 0;
      s = span(hit ? "cache.hit" : "replay", root);
      psk::core::FrameworkOptions options;
      options.ranks = skeleton.rank_count();
      options.result_cache = cache;
      const psk::core::SkeletonFramework framework(options);
      const double value = framework.run_skeleton(
          skeleton, psk::scenario::find_scenario(header.scenario), header.seed);
      close(s);

      s = span("svc.encode", root);
      response.status = psvc::StatusCode::kOk;
      response.values = {value};
      std::string body;
      psvc::encode_response(body, response);
      std::string out;
      psvc::append_frame(out, psvc::FrameKind::kResponse, body).or_throw();
      close(s);
      close(root);
      (traced ? traced_s : untraced_s)[r] = now_s() - request_start;

      const auto ref = reference_.find(request.key);
      if (ref == reference_.end() || !same_bits(value, ref->second)) {
        values_match = false;
      }
    }
    if (pass == 0) continue;
    if (cache->stats().hits != repeats) {
      outcome_.fail("traced replay: result-cache hits differ from repeated keys");
    }
  }
  if (!values_match) {
    outcome_.fail("traced in-process replay differs from pskd's answers");
  }
  log.write_chrome(trace_path);

  // Per layer: self time of every traced call.
  const std::vector<double> self = log.self_seconds();
  std::map<std::string, std::vector<double>> all;
  std::map<std::string, std::vector<double>> served;
  std::vector<double> replay_ms;
  for (std::size_t i = 0; i < log.spans().size(); ++i) {
    const Span& span = log.spans()[i];
    if (span.parent < 0) continue;
    all[span.name].push_back(self[i]);
    if (sequence[span.request].answer != nullptr) {
      served[span.name].push_back(self[i]);
    }
    if (span.name == "replay") replay_ms.push_back((span.end - span.start) * 1e3);
  }
  // Per served request: client latency minus the time its traced layers
  // took (a difference of medians would misplace time, the replay times
  // being far from symmetric).
  std::vector<double> layers_ms(sequence.size(), 0.0);
  for (std::size_t i = 0; i < log.spans().size(); ++i) {
    if (log.spans()[i].parent >= 0) layers_ms[log.spans()[i].request] += self[i] * 1e3;
  }
  std::vector<double> residual_ms;
  for (std::size_t r = 0; r < sequence.size(); ++r) {
    const Answer* answer = sequence[r].answer;
    if (answer != nullptr && answer->answered) {
      residual_ms.push_back(answer->latency_ms - layers_ms[r]);
    }
  }
  const auto layer_us = [&](const std::string& name) {
    return median(all[name]) * 1e6;
  };
  auto& m = outcome_.metrics;
  m.push_back({"replay.ms.p50", "ms", percentile(replay_ms, 0.50)});
  m.push_back({"replay.ms.p99", "ms", percentile(replay_ms, 0.99)});
  m.push_back({"svc.frame_us", "us", layer_us("svc.frame")});
  m.push_back({"svc.encode_us", "us", layer_us("svc.encode")});
  m.push_back({"archive.decode_us", "us", layer_us("archive.decode")});
  m.push_back({"archive.canonical_us", "us", layer_us("archive.canonical")});
  m.push_back({"svc.store_put_us", "us", layer_us("svc.store_put")});
  m.push_back({"svc.store_get_us", "us", layer_us("svc.store_get")});
  m.push_back({"guard.validate_us", "us", layer_us("guard.validate")});
  m.push_back({"cache.hit_us", "us", layer_us("cache.hit")});
  m.push_back({"unaccounted_ms.p50", "ms", median(residual_ms)});
  std::vector<double> overhead;
  for (std::size_t r = 0; r < sequence.size(); ++r) {
    overhead.push_back((traced_s[r] - untraced_s[r]) / untraced_s[r] * 100.0);
  }
  m.push_back({"trace.overhead_pct", "%", median(overhead)});
  std::printf("trace: %zu requests replayed in-process (%zu served at the low "
              "rate), spans in %s\n",
              sequence.size(), residual_ms.size(), trace_path.c_str());
  // Each layer's share of the served requests' summed client latency.
  double client_total_ms = 0;
  for (const Traced& request : sequence) {
    if (request.answer != nullptr && request.answer->answered) {
      client_total_ms += request.answer->latency_ms;
    }
  }
  double layers_total_ms = 0;
  for (const auto& [name, samples] : served) {
    double total_ms = 0;
    for (const double seconds : samples) total_ms += seconds * 1e3;
    layers_total_ms += total_ms;
    std::printf("trace: served layer %-18s p50 %10.3f us  %5.1f%% of client "
                "time  (%zu calls)\n",
                name.c_str(), median(samples) * 1e6,
                100 * total_ms / client_total_ms, samples.size());
  }
  std::printf("trace: served unaccounted %5.1f%% of client time\n",
              100 * (1 - layers_total_ms / client_total_ms));
}

Outcome ServiceRun::run() {
  const double corpus_start = now_s();
  corpus_ = build_corpus();
  const double corpus_s = now_s() - corpus_start;
  plan();

  char settings[512];
  std::snprintf(settings, sizeof settings,
                "\"pskd_flags\": \"(defaults) --listen=unix:<path> "
                "--metrics-out=<file> --max-conns=N\", \"connections\": %zu, "
                "\"low_rps\": %g, \"high_rps\": %g, \"p99_limit_ms\": %g, "
                "\"windows\": %zu, \"corpus_s\": %.3f",
                conns_, config_.low_rps, config_.high_rps,
                config_.p99_limit_ms, lows_.size(), corpus_s);
  print_host(config_.workload, settings);

  std::optional<CpusAwake> awake(std::in_place);
  // Set-up, kSetups times; the last daemon serves the load.
  std::unique_ptr<Daemon> daemon;
  std::vector<std::unique_ptr<Connection>> owned;
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    setups.push_back(setup(i, i == kSetups - 1, daemon, owned));
  }
  std::vector<Connection*> conns;
  for (auto& conn : owned) conns.push_back(conn.get());

  // The generator's priority is raised only now: pskd and the reference
  // threads must not inherit it.
  std::optional<RealtimeThread> realtime(std::in_place);
  // Low window, high window, then a share of the closed grids, in turn.
  // Answers still missing this long after a window's last send count as
  // unanswered.
  const double drain_limit_s = std::max(1.0, 20 * config_.p99_limit_ms / 1e3);
  std::vector<double> grid_s;
  for (std::size_t w = 0; w < lows_.size(); ++w) {
    for (Phase* phase : {&lows_[w], &highs_[w]}) {
      phase->result = run_open_loop(conns, phase->requests, drain_limit_s);
    }
    for (std::size_t g = grids_.size() * w / lows_.size();
         g < grids_.size() * (w + 1) / lows_.size(); ++g) {
      grids_[g].result = run_window(conns, grids_[g].requests, kWindow, 60.0);
      grid_s.push_back(grids_[g].result.wall_s);
    }
  }

  // The share of high-rate requests answered kOk within the p99 limit:
  // the limit's attainment at a fixed load (NOTES.md, ok_share.high).
  std::size_t high_sent = 0;
  std::size_t high_ok = 0;
  for (const Phase& high : highs_) {
    for (const Answer& answer : high.result.answers) {
      ++high_sent;
      if (answer.answered && answer.response.status == psvc::StatusCode::kOk &&
          answer.latency_ms <= config_.p99_limit_ms) {
        ++high_ok;
      }
    }
  }

  const double rss = vmhwm_mib(daemon->pid());
  realtime.reset();
  awake.reset();
  owned.clear();
  conns.clear();
  if (daemon->wait(30.0) != 0) outcome_.fail("pskd did not exit cleanly");
  daemon_metrics_ = read_kv(config_.workdir + "/pskd-" +
                            std::to_string(kSetups - 1) + ".metrics");

  reference_all();
  check_answers(prime_);
  for (const Phase& grid : grids_) check_answers(grid);
  for (const Phase& low : lows_) check_answers(low);
  for (const Phase& high : highs_) check_answers(high);

  std::vector<double> late_windows;
  for (const std::vector<Phase>* phases : {&lows_, &highs_}) {
    for (const double late : windowed(*phases, 0.99, &Answer::late_ms)) {
      late_windows.push_back(late);
    }
  }
  const double late_p99 = median(late_windows);
  // The generator itself must keep to the schedule, or the run measured
  // the generator; such a run is invalid, not slow.
  if (late_p99 > 0.25 * config_.p99_limit_ms) {
    char why[160];
    std::snprintf(why, sizeof why,
                  "invalid run: the generator fell behind (late p99 %.3f ms > "
                  "%.3f ms)",
                  late_p99, 0.25 * config_.p99_limit_ms);
    outcome_.fail(why);
  }

  for (const auto& [name, windows] :
       {std::pair{"low", &lows_}, std::pair{"high", &highs_}}) {
    std::printf("windows: %-4s p50/p99 ms:", name);
    const std::vector<double> p50 = windowed(*windows, 0.50);
    const std::vector<double> p99 = windowed(*windows, 0.99);
    for (std::size_t w = 0; w < p50.size(); ++w) {
      std::printf(" %.3f/%.3f", p50[w], p99[w]);
    }
    std::printf("\n");
  }
  if (!config_.trace) {
    auto& m = outcome_.metrics;
    m.push_back({"setup_s", "s", median(setups)});
    // The median window: host noise moves single windows (NOTES.md).
    m.push_back({"p50_ms.low", "ms", median(windowed(lows_, 0.50))});
    m.push_back({"p99_ms.low", "ms", median(windowed(lows_, 0.99))});
    m.push_back({"p50_ms.high", "ms", median(windowed(highs_, 0.50))});
    m.push_back({"p99_ms.high", "ms", median(windowed(highs_, 0.99))});
    m.push_back({"ok_share.high", "ratio",
                 static_cast<double>(high_ok) / static_cast<double>(high_sent)});
    m.push_back({"grid_s", "s", median(grid_s)});
    m.push_back({"rss_peak_mb", "MiB", rss});
  } else {
    traced_replay();
    const auto metric = [&](const std::string& key) {
      const auto it = daemon_metrics_.find(key);
      return it == daemon_metrics_.end() ? 0.0 : it->second;
    };
    const auto ratio = [](double part, double whole) {
      return whole > 0 ? part / whole : 0.0;
    };
    auto& m = outcome_.metrics;
    m.push_back({"store.hit_ratio", "ratio",
                 ratio(metric("svc.store.hits"),
                       metric("svc.store.hits") + metric("svc.store.misses"))});
    m.push_back({"cache.hit_ratio", "ratio",
                 ratio(metric("cache.hit"), metric("cache.lookup"))});
    m.push_back({"svc.server_p50_ms", "ms", metric("svc.latency_ms.ok.p50")});
    m.push_back({"svc.server_p99_ms", "ms", metric("svc.latency_ms.ok.p99")});
    m.push_back({"svc.queue_high_water", "count",
                 metric("svc.queue_depth.high_water")});
    m.push_back({"svc.shed", "count", metric("svc.shed")});
    m.push_back({"gen.late_p99_ms", "ms", late_p99});
    // The construction layers do not run in a service workload.
    for (const char* name :
         {"apps.record_s", "trace.fold_s", "sig.cluster_s", "sig.compress_s",
          "skeleton.scale_s", "runner.measure_s"}) {
      m.push_back({name, "s", 0.0});
    }
    m.push_back({"sig.compress_calls_per_skeleton", "count", 0.0});
    m.push_back({"runner.utilization", "ratio", 0.0});
    m.push_back({"grid.serial_share", "ratio", 0.0});
  }
  return outcome_;
}

}  // namespace

Outcome run_service(const ServiceConfig& config) {
  ServiceRun run(config);
  return run.run();
}

}  // namespace pskbench

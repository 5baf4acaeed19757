// Shared pieces of the pskbench harness: clock, percentiles, result
// printing, the skeleton corpus and the pskd process/connection helpers.
// NOTES.md describes the workloads and what each metric means.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "skeleton/skeleton.h"
#include "svc/frame.h"

namespace pskbench {

// ------------------------------------------------------------- report.cc

/// Steady-clock seconds.
double now_s();

/// Nearest-rank percentile, q in (0, 1]; 0 for an empty sample.
double percentile(std::vector<double> samples, double q);
double median(std::vector<double> samples);

/// One named number of the final result line.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Why `correct` is false (each mismatch, once per kind).
  std::vector<std::string> problems;
  void fail(const std::string& why);
};

/// Host fingerprint line (CPU model, nproc, compiler, build type) plus the
/// workload's own settings, printed before the result.
void print_host(const std::string& workload, const std::string& extra);

/// Prints the metrics as a table, then the result JSON as the last line.
void print_outcome(const Outcome& outcome);

/// VmHWM of a process in MiB (0 when unreadable).
double vmhwm_mib(pid_t pid);

int hardware_threads();

/// Keeps every CPU of the machine busy while it lives: a child process
/// (`pskbench awake`, run_awake below) with one SCHED_IDLE spinner per
/// CPU.  A spinner yields to any other runnable thread at once, so it takes
/// no time from the measured processes; it only stops idle virtual CPUs
/// from halting, whose wake-up goes through the hypervisor and costs
/// milliseconds when its host is busy (NOTES.md).  A process of its own, so
/// the load generator's process keeps to its threads and connections.
class CpusAwake {
 public:
  CpusAwake();
  ~CpusAwake();
  CpusAwake(const CpusAwake&) = delete;
  CpusAwake& operator=(const CpusAwake&) = delete;

 private:
  pid_t pid_ = -1;
};

/// The spinners of CpusAwake; runs until the process is terminated.
[[noreturn]] void run_awake();

/// Runs the calling thread under SCHED_FIFO while it lives, so the load
/// generator is not queued behind the daemon's busy workers and keeps to
/// its schedule.  It sleeps between sends, so it takes little from them.
/// Without the privilege it leaves the policy alone.
class RealtimeThread {
 public:
  RealtimeThread();
  ~RealtimeThread();
  RealtimeThread(const RealtimeThread&) = delete;
  RealtimeThread& operator=(const RealtimeThread&) = delete;

 private:
  bool active_ = false;
};

// ------------------------------------------------------------- corpus.cc

/// The 30 class-B paper skeletons: 6 NAS apps x the paper's 5 sizes, built
/// with ExperimentDriver::skeleton_for_size, in canonical container form.
struct CorpusEntry {
  std::string canonical;        // PSKARCH1 skeleton container
  std::uint64_t hash = 0;       // archive::fingerprint64(canonical)
  psk::skeleton::Skeleton skeleton;  // decoded back from `canonical`
};

std::vector<CorpusEntry> build_corpus();

/// dedicated + the five paper scenarios, in that order.
const std::vector<std::string>& corpus_scenarios();

/// Canonical container bytes: archive::encode + write_frame.
std::string canonical_bytes(const psk::skeleton::Skeleton& skeleton);

/// Seeded stream: the same (seed, stream) always yields the same values.
std::uint64_t derive_seed(std::uint64_t seed, std::string_view stream);

// ------------------------------------------------------------ loadgen.cc

/// A pskd child process serving a unix socket.
class Daemon {
 public:
  Daemon(const std::string& pskd, const std::string& socket_path,
         const std::vector<std::string>& extra_flags);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const { return pid_; }
  /// Waits for exit; kills it after `timeout_s`.  Returns the exit status
  /// (-1 when it had to be killed).
  int wait(double timeout_s);

 private:
  pid_t pid_ = -1;
};

/// A non-blocking client connection speaking PSKF frames.
class Connection {
 public:
  /// Connects, retrying until the socket accepts or `timeout_s` passes.
  Connection(const std::string& socket_path, double timeout_s);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const { return fd_; }
  void queue(std::string_view bytes) { out_.append(bytes); }
  bool want_write() const { return out_off_ < out_.size(); }
  /// Writes what the socket takes; false when the peer is gone.
  bool flush();
  /// Reads what is available and appends complete frames to `frames`;
  /// false on EOF or a bad stream.
  bool read(std::vector<psk::svc::Frame>& frames);
  void close();

 private:
  int fd_ = -1;
  std::string out_;
  std::size_t out_off_ = 0;
  std::string in_;
};

/// Encoded request frame.
std::string request_frame(const psk::svc::RequestHeader& header);

/// One request to send: when (open loop: seconds after the phase start),
/// its id, the connection and the encoded frame.  Ids may repeat across
/// requests whose frames are identical; answers are then matched to the
/// oldest outstanding send of that id.
struct Scheduled {
  double at = 0;
  std::uint32_t id = 0;
  std::size_t conn = 0;
  std::string_view frame;
};

/// What came back for one request.
struct Answer {
  double latency_ms = 0;  // from the scheduled (closed loop: actual) send
  double late_ms = 0;     // how late the generator handed it to the socket
  bool answered = false;
  psk::svc::ResponseHeader response;
};

/// Result of one load phase.
struct PhaseResult {
  std::vector<Answer> answers;  // indexed like the requests
  /// Responses that matched no outstanding request (answered twice).
  std::uint64_t unexpected = 0;
  /// Seconds from the first send to the last answer.
  double wall_s = 0;
  bool transport_ok = true;
};

/// Sends `schedule` (sorted by `at`) open-loop over `conns` from the calling
/// thread, then waits up to `drain_limit_s` after the last send for the
/// remaining answers.
PhaseResult run_open_loop(std::vector<Connection*>& conns,
                          const std::vector<Scheduled>& schedule,
                          double drain_limit_s);

/// Sends the requests closed-loop with at most `window` in flight.
PhaseResult run_window(std::vector<Connection*>& conns,
                       const std::vector<Scheduled>& requests,
                       std::size_t window, double timeout_s);

/// Health probe over a fresh exchange on `conn`; true when answered.
bool probe_health(Connection& conn, double timeout_s);

/// Parses a `key=value` metrics dump.
std::map<std::string, double> read_kv(const std::string& path);

// -------------------------------------------------------------- spans.cc

/// One timed call into a layer: name, wall start/end, the span that caused
/// it (-1 for a root) and the request it belongs to.
struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;
  std::uint32_t request = 0;
};

/// In-memory span log, written out as Chrome trace JSON at the end.
class SpanLog {
 public:
  int begin(const char* name, int parent, std::uint32_t request);
  void end(int span);
  const std::vector<Span>& spans() const { return spans_; }
  /// Per span: its duration minus the time its child spans cover.
  std::vector<double> self_seconds() const;
  void write_chrome(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

// ------------------------------------------------------------- workloads

struct ServiceConfig {
  std::string workload;  // predict-replay | predict-upload-cached
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string pskd;
  std::string workdir;   // sockets, metrics dumps, traces
  double low_rps = 0;
  double high_rps = 0;
  double p99_limit_ms = 0;
};

Outcome run_service(const ServiceConfig& config);

struct GridConfig {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double p99_limit_ms = 0;  // for ok_share.high
  std::string reference;  // path of the reference fig6 table
  std::string workdir;
};

Outcome run_grid(const GridConfig& config);

/// Exec-to-ready probe for the grid's set-up time: constructs the driver
/// the grid uses and returns.
void grid_setup_probe();

}  // namespace pskbench

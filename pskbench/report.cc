#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.h"

extern char** environ;

namespace pskbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const auto index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : 0.5 * (samples[mid - 1] + samples[mid]);
}

void Outcome::fail(const std::string& why) {
  correct = false;
  if (std::find(problems.begin(), problems.end(), why) == problems.end()) {
    problems.push_back(why);
  }
}

int hardware_threads() {
  const unsigned threads = std::thread::hardware_concurrency();
  return threads == 0 ? 1 : static_cast<int>(threads);
}

CpusAwake::CpusAwake() {
  char self[4096];
  const ssize_t length = ::readlink("/proc/self/exe", self, sizeof self - 1);
  if (length <= 0) throw std::runtime_error("cannot resolve /proc/self/exe");
  self[length] = '\0';
  char mode[] = "awake";
  char* argv[] = {self, mode, nullptr};
  if (posix_spawn(&pid_, self, nullptr, nullptr, argv, environ) != 0) {
    throw std::runtime_error("cannot start the CPU spinners");
  }
}

CpusAwake::~CpusAwake() {
  ::kill(pid_, SIGTERM);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
}

void run_awake() {
  // Die with the harness, however it ends, so no spinner outlives a run.
  const pid_t parent = ::getppid();
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() != parent) std::exit(0);
  std::vector<std::thread> threads;
  for (int i = 0; i < hardware_threads(); ++i) {
    threads.emplace_back([] {
      sched_param param{};
      pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
      while (true) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#else
        __asm__ __volatile__("" ::: "memory");
#endif
      }
    });
  }
  // The spinners never return; SIGTERM from CpusAwake ends the process.
  for (std::thread& thread : threads) thread.join();
  std::abort();
}

RealtimeThread::RealtimeThread() {
  sched_param param{};
  param.sched_priority = 1;
  active_ = pthread_setschedparam(pthread_self(), SCHED_FIFO, &param) == 0;
}

RealtimeThread::~RealtimeThread() {
  if (!active_) return;
  sched_param param{};
  pthread_setschedparam(pthread_self(), SCHED_OTHER, &param);
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes).
std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

void print_host(const std::string& workload, const std::string& extra) {
  std::printf(
      "host: {\"cpu\": %s, \"nproc\": %d, \"compiler\": %s, "
      "\"build_type\": %s, \"workload\": %s, %s}\n",
      json_string(cpu_model()).c_str(), hardware_threads(),
      json_string(std::string("g++ ") + __VERSION__).c_str(),
      json_string(PSKBENCH_BUILD_TYPE).c_str(),
      json_string(workload).c_str(), extra.c_str());
}

void print_outcome(const Outcome& outcome) {
  for (const std::string& problem : outcome.problems) {
    std::printf("problem: %s\n", problem.c_str());
  }
  std::printf("%-34s %16s  %s\n", "metric", "value", "unit");
  for (const Metric& metric : outcome.metrics) {
    std::printf("%-34s %16.6g  %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("%-34s %16.6g  %s   (%llu of %llu)\n", "fail_frac",
              outcome.attempted == 0
                  ? 0.0
                  : static_cast<double>(outcome.failed) /
                        static_cast<double>(outcome.attempted),
              "ratio", static_cast<unsigned long long>(outcome.failed),
              static_cast<unsigned long long>(outcome.attempted));
  bool correct = outcome.correct;
  std::string metrics;
  for (const Metric& metric : outcome.metrics) {
    // A non-finite number cannot be written as JSON; it also means the
    // measurement broke, so the run is not correct.
    const double value = std::isfinite(metric.value) ? metric.value : 0.0;
    if (!std::isfinite(metric.value)) correct = false;
    char number[64];
    std::snprintf(number, sizeof number, "%.17g", value);
    if (!metrics.empty()) metrics += ", ";
    metrics += json_string(metric.name) + ": {\"value\": " + number +
               ", \"unit\": " + json_string(metric.unit) + "}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(outcome.attempted),
      static_cast<unsigned long long>(outcome.failed), metrics.c_str());
  std::fflush(stdout);
}

double vmhwm_mib(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the file says kB
    }
  }
  return 0;
}

}  // namespace pskbench

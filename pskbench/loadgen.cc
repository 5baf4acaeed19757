#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <deque>
#include <unordered_map>

#include "bench.h"

extern char** environ;

namespace pskbench {

namespace psvc = psk::svc;

// ---------------------------------------------------------------- Daemon

Daemon::Daemon(const std::string& pskd, const std::string& socket_path,
               const std::vector<std::string>& extra_flags) {
  std::vector<std::string> argv{pskd, "--listen=unix:" + socket_path};
  argv.insert(argv.end(), extra_flags.begin(), extra_flags.end());
  std::vector<char*> args;
  for (std::string& arg : argv) args.push_back(arg.data());
  args.push_back(nullptr);

  ::unlink(socket_path.c_str());
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
  const std::string log = socket_path + ".log";
  posix_spawn_file_actions_addopen(&actions, 2, log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  const int error =
      posix_spawn(&pid_, pskd.c_str(), &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (error != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot start " + pskd + ": " +
                             std::strerror(error));
  }
}

Daemon::~Daemon() {
  if (pid_ > 0) wait(0);
}

int Daemon::wait(double timeout_s) {
  if (pid_ <= 0) return -1;
  const double deadline = now_s() + timeout_s;
  int status = 0;
  while (true) {
    const pid_t done = ::waitpid(pid_, &status, WNOHANG);
    if (done == pid_) break;
    if (done < 0 && errno != EINTR) {
      pid_ = -1;
      return -1;
    }
    if (now_s() >= deadline) {
      ::kill(pid_, SIGKILL);
      while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
      pid_ = -1;
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  pid_ = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// ------------------------------------------------------------ Connection

Connection::Connection(const std::string& socket_path, double timeout_s) {
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof address.sun_path) {
    throw std::runtime_error("socket path too long: " + socket_path);
  }
  std::memcpy(address.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const double deadline = now_s() + timeout_s;
  while (true) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throw std::runtime_error("socket(): " + std::string(std::strerror(errno)));
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&address),
                  sizeof address) == 0) {
      break;
    }
    const int error = errno;
    ::close(fd_);
    fd_ = -1;
    // The daemon binds its socket shortly after exec; until then connect
    // sees no file or a refused socket.
    if ((error != ENOENT && error != ECONNREFUSED) || now_s() >= deadline) {
      throw std::runtime_error("cannot connect to " + socket_path + ": " +
                               std::strerror(error));
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
}

Connection::~Connection() { close(); }

void Connection::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

bool Connection::flush() {
  while (out_off_ < out_.size()) {
    const ssize_t sent = ::send(fd_, out_.data() + out_off_,
                                out_.size() - out_off_, MSG_NOSIGNAL);
    if (sent > 0) {
      out_off_ += static_cast<std::size_t>(sent);
    } else if (sent < 0 && errno == EINTR) {
      continue;
    } else if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else {
      return false;
    }
  }
  if (out_off_ == out_.size()) {
    out_.clear();
    out_off_ = 0;
  } else if (out_off_ > (1u << 20) && out_off_ * 2 > out_.size()) {
    out_.erase(0, out_off_);
    out_off_ = 0;
  }
  return true;
}

bool Connection::read(std::vector<psvc::Frame>& frames) {
  bool open = true;
  char chunk[1 << 16];
  while (true) {
    const ssize_t got = ::recv(fd_, chunk, sizeof chunk, 0);
    if (got > 0) {
      in_.append(chunk, static_cast<std::size_t>(got));
      continue;
    }
    if (got < 0 && errno == EINTR) continue;
    if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    open = false;  // EOF or a dead socket
    break;
  }
  std::size_t offset = 0;
  while (true) {
    psvc::Frame frame;
    std::size_t consumed = 0;
    psk::archive::Error error;
    const psvc::ParseProgress progress = psvc::try_parse_frame(
        std::string_view(in_).substr(offset), psvc::kMaxFrameBytes, frame,
        consumed, error);
    if (progress == psvc::ParseProgress::kFrame) {
      offset += consumed;
      frames.push_back(std::move(frame));
      continue;
    }
    if (progress == psvc::ParseProgress::kBad) open = false;
    break;
  }
  in_.erase(0, offset);
  return open;
}

std::string request_frame(const psvc::RequestHeader& header) {
  std::string body;
  psvc::encode_request(body, header);
  std::string framed;
  psvc::append_frame(framed, psvc::FrameKind::kRequest, body).or_throw();
  return framed;
}

// ------------------------------------------------------------ load loops

namespace {

/// Event loop shared by the open- and closed-loop drivers: writes pending
/// output, waits for input or the next send time, and hands every response
/// to `on_response` with the time it was read.
class Loop {
 public:
  explicit Loop(std::vector<Connection*>& conns) : conns_(conns) {
    fds_.resize(conns.size());
  }

  /// Waits at most `timeout_s` for traffic; returns false when a
  /// connection failed.
  template <typename OnResponse>
  bool step(double timeout_s, OnResponse&& on_response) {
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if (conns_[i]->want_write() && !conns_[i]->flush()) return false;
      fds_[i].fd = conns_[i]->fd();
      fds_[i].events =
          static_cast<short>(POLLIN | (conns_[i]->want_write() ? POLLOUT : 0));
      fds_[i].revents = 0;
    }
    timeout_s = std::max(0.0, timeout_s);
    timespec timeout{};
    timeout.tv_sec = static_cast<time_t>(timeout_s);
    timeout.tv_nsec =
        static_cast<long>((timeout_s - static_cast<double>(timeout.tv_sec)) * 1e9);
    const int ready = ::ppoll(fds_.data(), fds_.size(), &timeout, nullptr);
    if (ready < 0 && errno != EINTR) return false;
    if (ready <= 0) return true;
    const double at = now_s();
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if ((fds_[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      frames_.clear();
      const bool open = conns_[i]->read(frames_);
      for (psvc::Frame& frame : frames_) on_response(frame, at);
      if (!open) return false;
    }
    return true;
  }

 private:
  std::vector<Connection*>& conns_;
  std::vector<pollfd> fds_;
  std::vector<psvc::Frame> frames_;
};

/// Matches responses to sends: per id, the oldest outstanding send.
class Tracker {
 public:
  explicit Tracker(PhaseResult& result) : result_(result) {}

  void sent(std::uint32_t id, std::size_t request) {
    outstanding_[id].push_back(request);
    ++pending_;
  }
  std::size_t pending() const { return pending_; }

  /// Files a response frame; returns the request index it answered, or
  /// SIZE_MAX when it answered none.
  std::size_t receive(const psvc::Frame& frame) {
    if (frame.kind != psvc::FrameKind::kResponse) return SIZE_MAX;
    psk::archive::Result<psvc::ResponseHeader> decoded =
        psvc::decode_response(frame.body);
    if (!decoded.ok()) {
      result_.transport_ok = false;
      return SIZE_MAX;
    }
    const auto it = outstanding_.find(decoded.value().id);
    if (it == outstanding_.end() || it->second.empty()) {
      ++result_.unexpected;
      return SIZE_MAX;
    }
    const std::size_t request = it->second.front();
    it->second.pop_front();
    --pending_;
    Answer& answer = result_.answers[request];
    answer.answered = true;
    answer.response = decoded.take();
    return request;
  }

 private:
  PhaseResult& result_;
  std::unordered_map<std::uint32_t, std::deque<std::size_t>> outstanding_;
  std::size_t pending_ = 0;
};

}  // namespace

PhaseResult run_open_loop(std::vector<Connection*>& conns,
                          const std::vector<Scheduled>& schedule,
                          double drain_limit_s) {
  PhaseResult result;
  result.answers.resize(schedule.size());
  if (schedule.empty()) return result;
  Tracker tracker(result);
  Loop loop(conns);
  std::size_t next = 0;
  const double start = now_s() + 0.001;
  const double last_send = start + schedule.back().at;
  double last_answer = start;
  while (next < schedule.size() || tracker.pending() > 0) {
    const double now = now_s();
    while (next < schedule.size() && start + schedule[next].at <= now) {
      const Scheduled& request = schedule[next];
      conns[request.conn]->queue(request.frame);
      tracker.sent(request.id, next);
      result.answers[next].late_ms = (now - (start + request.at)) * 1e3;
      ++next;
    }
    if (next == schedule.size() && now > last_send + drain_limit_s) break;
    const double wake = next < schedule.size() ? start + schedule[next].at
                                                : last_send + drain_limit_s;
    const bool ok =
        loop.step(wake - now, [&](const psvc::Frame& frame, double at) {
          const std::size_t request = tracker.receive(frame);
          if (request == SIZE_MAX) return;
          result.answers[request].latency_ms =
              (at - (start + schedule[request].at)) * 1e3;
          last_answer = at;
        });
    if (!ok) {
      result.transport_ok = false;
      break;
    }
  }
  result.wall_s = last_answer - start;
  return result;
}

PhaseResult run_window(std::vector<Connection*>& conns,
                       const std::vector<Scheduled>& requests,
                       std::size_t window, double timeout_s) {
  PhaseResult result;
  result.answers.resize(requests.size());
  Tracker tracker(result);
  std::vector<double> sent_at(requests.size());
  Loop loop(conns);
  std::size_t next = 0;
  const double start = now_s();
  const double deadline = start + timeout_s;
  double last_answer = start;
  while ((next < requests.size() || tracker.pending() > 0) &&
         now_s() < deadline) {
    while (next < requests.size() && tracker.pending() < window) {
      sent_at[next] = now_s();
      conns[requests[next].conn]->queue(requests[next].frame);
      tracker.sent(requests[next].id, next);
      ++next;
    }
    const bool ok =
        loop.step(deadline - now_s(), [&](const psvc::Frame& frame, double at) {
          const std::size_t request = tracker.receive(frame);
          if (request == SIZE_MAX) return;
          result.answers[request].latency_ms = (at - sent_at[request]) * 1e3;
          last_answer = at;
        });
    if (!ok) {
      result.transport_ok = false;
      break;
    }
  }
  result.wall_s = last_answer - start;
  return result;
}

bool probe_health(Connection& conn, double timeout_s) {
  std::string framed;
  psvc::append_frame(framed, psvc::FrameKind::kHealth, "").or_throw();
  conn.queue(framed);
  std::vector<Connection*> conns{&conn};
  Loop loop(conns);
  bool healthy = false;
  const double deadline = now_s() + timeout_s;
  while (!healthy && now_s() < deadline) {
    const bool ok = loop.step(deadline - now_s(),
                              [&](const psvc::Frame& frame, double) {
                                if (frame.kind == psvc::FrameKind::kHealth &&
                                    psvc::decode_health(frame.body).ok()) {
                                  healthy = true;
                                }
                              });
    if (!ok) return false;
  }
  return healthy;
}

std::map<std::string, double> read_kv(const std::string& path) {
  std::map<std::string, double> values;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) continue;
    char* end = nullptr;
    const std::string text = line.substr(eq + 1);
    const double value = std::strtod(text.c_str(), &end);
    if (end != text.c_str() && *end == '\0') values[line.substr(0, eq)] = value;
  }
  return values;
}

}  // namespace pskbench

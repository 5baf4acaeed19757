// Per-connection session: one client's framed byte stream into the shared
// service.
//
// Each accepted socket gets a Session running a blocking read loop on its
// own thread.  The session owns the connection-scoped state the pipe mode
// kept globally: the incremental frame parse buffer, the validate
// override, the cancel flags of everything this client still has in
// flight, and a per-session in-flight cap (fair admission -- one greedy
// connection sheds against its own cap with kOverloaded before it can
// monopolise the shared queue).
//
// Responses are routed back through a per-request Deliver closure holding
// a shared_ptr to the session, so the session outlives its socket until
// the last queued response has been answered.  Disconnect -- EOF, a read
// error, or an unparsable stream -- trips every outstanding cancel flag:
// the service answers those requests kCanceled (never silence), and only
// that connection's requests are affected.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "svc/frame.h"
#include "svc/service.h"

namespace psk::svc {

struct SessionOptions {
  /// Frame body cap for this connection's parser (pskd --max-frame-mb).
  std::size_t max_frame_bytes = kMaxFrameBytes;
  /// Server-side override of every request's validate mode (pskd
  /// --validate); nullopt honours the request.
  std::optional<ValidateMode> validate_override;
  /// Fair admission: requests in flight beyond this cap shed immediately
  /// with kOverloaded, before touching the shared queue, so one connection
  /// cannot crowd every other session out of admission.
  std::size_t max_inflight = 32;
  /// Fault injection (null in production): read delays, short writes and
  /// mid-frame disconnects come from here.
  util::ChaosSchedule* chaos = nullptr;
};

/// Why a session's read loop ended; pskd maps these onto its exit ladder.
enum class SessionEnd {
  kClean,        // EOF at a frame boundary
  kMidFrame,     // EOF inside a frame: the client died mid-send
  kBadStream,    // unparsable bytes; the stream cannot be resynchronised
  kWriteFailed,  // the client stopped reading (broken pipe on a response)
};

struct SessionStats {
  std::uint64_t requests = 0;   // request frames decoded (well-formed or not)
  std::uint64_t responses = 0;  // response frames written (or attempted
                                // after a write failure; never silent)
  std::uint64_t shed_inflight = 0;  // kOverloaded at the session cap
  std::uint64_t canceled = 0;       // cancel flags tripped at teardown
  std::uint64_t health_probes = 0;  // kHealth frames answered
};

class Session : public std::enable_shared_from_this<Session> {
 public:
  /// Takes ownership of `fd` (closed on destruction).  `service` must be
  /// in live mode and outlive every response this session has in flight.
  Session(int fd, Service& service, SessionOptions options);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Blocking read loop: parse frames, submit requests, until the peer
  /// disconnects or the stream goes bad.  On return every outstanding
  /// request of this session has been canceled (it will still be answered
  /// kCanceled through the service).  Call once, from the session thread.
  SessionEnd run();

  /// Forces run() to end from another thread by shutting the socket down
  /// both ways (server stop).  The loop then tears down as a disconnect.
  void abort();

  /// One diagnostic line for the server log, e.g. "session 3: 17
  /// request(s), 17 response(s), clean".
  SessionStats stats() const;

 private:
  void handle_request(const std::string& body);
  void send_response(const ResponseHeader& response);
  void send_health();
  void send_frame(FrameKind kind, std::string_view body);
  void cancel_outstanding();

  const int fd_;
  Service& service_;
  const SessionOptions options_;

  /// Serialises writes: immediate responses (shed, undecodable) come from
  /// the session thread while executed ones come from the dispatcher.
  std::mutex write_mutex_;
  bool write_failed_ = false;

  mutable std::mutex state_mutex_;
  std::vector<std::shared_ptr<std::atomic<bool>>> cancels_;
  std::size_t inflight_ = 0;
  SessionStats stats_;
};

}  // namespace psk::svc

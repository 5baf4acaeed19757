#include "svc/session.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <thread>
#include <utility>

#include "archive/wire.h"

namespace psk::svc {

Session::Session(int fd, Service& service, SessionOptions options)
    : fd_(fd), service_(service), options_(std::move(options)) {}

Session::~Session() { ::close(fd_); }

SessionEnd Session::run() {
  std::string buffer;
  char chunk[1 << 16];
  SessionEnd end = SessionEnd::kClean;
  bool stop = false;
  while (!stop) {
    const ssize_t got = ::read(fd_, chunk, sizeof chunk);
    if (got < 0) {
      if (errno == EINTR) continue;
      // A dead connection is a disconnect, not a protocol error; whatever
      // is queued answers kCanceled below.
      end = buffer.empty() ? SessionEnd::kClean : SessionEnd::kMidFrame;
      break;
    }
    if (got == 0) {
      end = buffer.empty() ? SessionEnd::kClean : SessionEnd::kMidFrame;
      break;
    }
    buffer.append(chunk, static_cast<std::size_t>(got));
    // Chaos read delay: the bytes sit unparsed for a moment, as if the
    // client were trickling them (slow-loris shape from the server side).
    if (options_.chaos &&
        options_.chaos->fire(util::ChaosSite::kSessionReadDelay)) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          options_.chaos->read_delay_ms()));
    }
    bool progressed = true;
    while (progressed && !stop) {
      Frame frame;
      std::size_t consumed = 0;
      archive::Error error;
      switch (try_parse_frame(buffer, options_.max_frame_bytes, frame,
                              consumed, error)) {
        case ParseProgress::kFrame:
          buffer.erase(0, consumed);
          if (frame.kind == FrameKind::kRequest) {
            handle_request(frame.body);
          } else if (frame.kind == FrameKind::kFlush) {
            // Socket sessions are live: execution is continuous, so the
            // pipe-mode batch boundary is accepted and ignored.
          } else if (frame.kind == FrameKind::kHealth) {
            // Answered inline, bypassing admission: the probe must work
            // precisely when the queue is full.
            send_health();
          } else {
            end = SessionEnd::kBadStream;
            stop = true;
          }
          break;
        case ParseProgress::kNeedMore:
          progressed = false;
          break;
        case ParseProgress::kBad:
          end = SessionEnd::kBadStream;
          stop = true;
          break;
      }
    }
    if (!stop) {
      std::lock_guard<std::mutex> lock(write_mutex_);
      if (write_failed_) {
        end = SessionEnd::kWriteFailed;
        stop = true;
      }
    }
  }
  // Teardown: whatever this connection still has queued answers kCanceled
  // through its per-request deliver -- other sessions are untouched.
  cancel_outstanding();
  return end;
}

void Session::handle_request(const std::string& body) {
  archive::Result<RequestHeader> decoded = decode_request(body);
  if (!decoded.ok()) {
    ResponseHeader response;
    // The id is the first field; when even that is missing it stays 0.
    if (body.size() >= 4) {
      archive::Cursor in(body);
      response.id = in.u32();
    }
    response.status = StatusCode::kBadInput;
    response.message = "bad request: " + decoded.error().render();
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      ++stats_.requests;
    }
    send_response(response);
    return;
  }

  Request request;
  request.header = decoded.take();
  if (options_.validate_override) {
    request.header.validate = *options_.validate_override;
  }
  request.cancel = std::make_shared<std::atomic<bool>>(false);

  bool shed_at_cap = false;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    ++stats_.requests;
    if (inflight_ >= options_.max_inflight) {
      ++stats_.shed_inflight;
      shed_at_cap = true;
    } else {
      ++inflight_;
      // Prune flags the service has already released (answered requests),
      // so a long-lived session's cancel list stays bounded.
      std::size_t kept = 0;
      for (auto& cancel : cancels_) {
        if (cancel.use_count() > 1) cancels_[kept++] = std::move(cancel);
      }
      cancels_.resize(kept);
      cancels_.push_back(request.cancel);
    }
  }
  if (shed_at_cap) {
    // Fair admission: this connection alone is past its in-flight budget.
    // Shed with the same loud, retryable status as queue overload, without
    // letting it occupy shared queue capacity.
    ResponseHeader response;
    response.id = request.header.id;
    response.status = StatusCode::kOverloaded;
    response.message = "session in-flight cap (" +
                       std::to_string(options_.max_inflight) + ") reached";
    send_response(response);
    return;
  }

  request.deliver = [self = shared_from_this()](const ResponseHeader& r) {
    {
      std::lock_guard<std::mutex> lock(self->state_mutex_);
      if (self->inflight_ > 0) --self->inflight_;
    }
    self->send_response(r);
  };
  // Shed-at-admission responses also arrive through the deliver closure,
  // so the return value is intentionally ignored.
  service_.submit(std::move(request));
}

void Session::send_response(const ResponseHeader& response) {
  std::string body;
  encode_response(body, response);
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    ++stats_.responses;
  }
  send_frame(FrameKind::kResponse, body);
}

void Session::send_health() {
  std::string body;
  encode_health(body, service_.health());
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    ++stats_.health_probes;
  }
  send_frame(FrameKind::kHealth, body);
}

void Session::send_frame(FrameKind kind, std::string_view body) {
  std::string framed;
  const archive::Status framed_ok = append_frame(framed, kind, body);
  std::lock_guard<std::mutex> lock(write_mutex_);
  if (!framed_ok.ok()) {
    // An unencodable response (body past the u32 length field) cannot be
    // sent; poison the connection rather than desync the stream.
    write_failed_ = true;
    return;
  }
  if (write_failed_) return;  // peer already gone; accounted, not silent
  util::ChaosSchedule* const chaos = options_.chaos;
  if (chaos && chaos->fire(util::ChaosSite::kSessionDisconnect)) {
    // Mid-frame disconnect: push out a torn prefix of the frame, then kill
    // the connection.  The client must treat the tail as a dead peer, not
    // as a short response.
    const std::size_t torn = framed.size() / 2;
    std::size_t sent = 0;
    while (sent < torn) {
      const ssize_t wrote =
          ::send(fd_, framed.data() + sent, torn - sent, MSG_NOSIGNAL);
      if (wrote < 0 && errno == EINTR) continue;
      if (wrote <= 0) break;
      sent += static_cast<std::size_t>(wrote);
    }
    ::shutdown(fd_, SHUT_RDWR);
    write_failed_ = true;
    return;
  }
  // Chaos short write: dribble the frame out a few bytes per send(), the
  // shape a full socket buffer produces.  Exercises both this loop and the
  // client's frame reassembly; the frame still arrives intact.
  std::size_t chunk_cap = framed.size();
  if (chaos && chaos->fire(util::ChaosSite::kSessionShortWrite)) {
    chunk_cap = std::max<std::size_t>(1, chaos->profile().short_write_bytes);
  }
  std::size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t wrote =
        ::send(fd_, framed.data() + sent,
               std::min(chunk_cap, framed.size() - sent), MSG_NOSIGNAL);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      write_failed_ = true;
      return;
    }
    sent += static_cast<std::size_t>(wrote);
  }
}

void Session::abort() { ::shutdown(fd_, SHUT_RDWR); }

void Session::cancel_outstanding() {
  std::lock_guard<std::mutex> lock(state_mutex_);
  for (const auto& cancel : cancels_) {
    if (cancel.use_count() > 1 && !cancel->exchange(true)) {
      ++stats_.canceled;
    }
  }
  cancels_.clear();
}

SessionStats Session::stats() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return stats_;
}

}  // namespace psk::svc

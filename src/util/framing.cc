#include "util/framing.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <thread>

#include "util/logging.h"
#include "util/serialization.h"

namespace fedshap {
namespace {

// Local control frames are tiny; anything near this bound means a
// desynchronized stream, not a legitimate message.
constexpr uint32_t kMaxFramePayload = 64u << 20;

}  // namespace

FrameChannel::FrameChannel(int fd) : fd_(fd) {
  // Non-blocking mode: both directions gate on poll() with explicit
  // deadlines, so neither a stalled reader nor a slow writer can park a
  // thread in the kernel indefinitely.
  if (fd_ >= 0) {
    const int flags = ::fcntl(fd_, F_GETFL, 0);
    if (flags >= 0) (void)::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
  }
}

FrameChannel::~FrameChannel() {
  if (fd_ >= 0) ::close(fd_);
}

void FrameChannel::Shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

Status FrameChannel::WriteAll(const char* data, size_t len) {
  using Clock = std::chrono::steady_clock;
  const int timeout_ms = send_timeout_ms_;
  const Clock::time_point deadline =
      timeout_ms < 0 ? Clock::time_point::max()
                     : Clock::now() + std::chrono::milliseconds(timeout_ms);
  size_t sent = 0;
  while (sent < len) {
    // MSG_NOSIGNAL: a peer that died must surface as EPIPE, not SIGPIPE —
    // a fork-mode worker has no signal handler to survive one.
    ssize_t n = ::send(fd_, data + sent, len - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      return Status::Internal(std::string("frame send failed: ") +
                              ::strerror(errno));
    }
    // Buffer full (or interrupted): wait for writability within what is
    // left of the send deadline.
    int wait_ms = -1;
    if (timeout_ms >= 0) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      wait_ms = static_cast<int>(left.count());
      if (wait_ms <= 0) {
        return Status::DeadlineExceeded(
            "frame send stalled: peer not draining");
      }
    }
    struct pollfd pfd;
    pfd.fd = fd_;
    pfd.events = POLLOUT;
    pfd.revents = 0;
    int ready = ::poll(&pfd, 1, wait_ms);
    if (ready < 0 && errno != EINTR) {
      return Status::Internal(std::string("frame poll failed: ") +
                              ::strerror(errno));
    }
    if (ready == 0) {
      return Status::DeadlineExceeded("frame send stalled: peer not draining");
    }
  }
  return Status::OK();
}

Status FrameChannel::Send(uint32_t type, std::string_view payload) {
  return SendFaulted(type, payload, nullptr);
}

Status FrameChannel::SendFaulted(uint32_t type, std::string_view payload,
                                 FaultInjector* faults) {
  if (payload.size() > kMaxFramePayload) {
    return Status::InvalidArgument("frame payload too large");
  }
  bool corrupt = false;
  if (faults != nullptr) {
    if (faults->Fire(FaultSite::kPartition)) {
      FEDSHAP_LOG(Warning) << "[frame] fault: partitioning connection";
      Shutdown();
      return Status::Unavailable("injected network partition");
    }
    if (faults->Fire(FaultSite::kDelayFrame)) {
      const uint64_t delay = faults->param_ms(FaultSite::kDelayFrame);
      FEDSHAP_LOG(Warning) << "[frame] fault: delaying frame " << delay
                           << "ms";
      std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    }
    corrupt = faults->Fire(FaultSite::kCorruptFrame);
  }
  ByteWriter header;
  header.PutU32(static_cast<uint32_t>(payload.size()));
  header.PutU32(type);
  header.PutU32(Crc32(payload));
  std::string buffer;
  buffer.reserve(header.size() + payload.size());
  buffer.append(header.bytes());
  buffer.append(payload.data(), payload.size());
  if (corrupt && !payload.empty()) {
    // The CRC above covered the clean payload; flipping a byte now means
    // the receiver's check must reject this frame.
    FEDSHAP_LOG(Warning) << "[frame] fault: corrupting frame payload";
    buffer[header.size()] = static_cast<char>(buffer[header.size()] ^ 0x40);
  }

  std::lock_guard<std::mutex> lock(send_mutex_);
  return WriteAll(buffer.data(), buffer.size());
}

Status FrameChannel::ReadExact(char* out, size_t len, int timeout_ms,
                               bool* timed_out, bool* clean_eof) {
  *timed_out = false;
  *clean_eof = false;
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline =
      timeout_ms < 0 ? Clock::time_point::max()
                     : Clock::now() + std::chrono::milliseconds(timeout_ms);
  size_t got = 0;
  while (got < len) {
    int wait_ms = -1;
    if (timeout_ms >= 0) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      wait_ms = static_cast<int>(left.count());
      if (wait_ms < 0) wait_ms = 0;
    }
    struct pollfd pfd;
    pfd.fd = fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    int ready = ::poll(&pfd, 1, wait_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("frame poll failed: ") +
                              ::strerror(errno));
    }
    if (ready == 0) {
      *timed_out = true;
      return Status::OK();
    }
    ssize_t n = ::recv(fd_, out + got, len - got, 0);
    if (n < 0) {
      // EAGAIN after POLLIN is possible (spurious wakeup, or a peer
      // reset raced the poll); go wait again rather than fail.
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return Status::Internal(std::string("frame recv failed: ") +
                              ::strerror(errno));
    }
    if (n == 0) {
      *clean_eof = true;
      return Status::OK();
    }
    got += static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<std::optional<Frame>> FrameChannel::Recv(int timeout_ms) {
  char header[12];
  bool timed_out = false;
  bool clean_eof = false;
  // Peek for the first byte within the caller's timeout; a timeout before
  // any byte of a frame is a normal idle tick, not an error.
  FEDSHAP_RETURN_NOT_OK(
      ReadExact(header, 1, timeout_ms, &timed_out, &clean_eof));
  if (timed_out) return std::optional<Frame>();
  if (clean_eof) return Status::NotFound("frame channel closed by peer");
  // The rest of the frame must follow promptly on a local socket; a stall
  // here means the peer died mid-write (a torn frame).
  constexpr int kRestOfFrameTimeoutMs = 10000;
  FEDSHAP_RETURN_NOT_OK(ReadExact(header + 1, sizeof(header) - 1,
                                  kRestOfFrameTimeoutMs, &timed_out,
                                  &clean_eof));
  if (timed_out || clean_eof) {
    return Status::OutOfRange("torn frame header");
  }
  ByteReader fields(std::string_view(header, sizeof(header)));
  const uint32_t payload_len = fields.GetU32().value();
  const uint32_t type = fields.GetU32().value();
  const uint32_t crc = fields.GetU32().value();
  if (payload_len > kMaxFramePayload) {
    return Status::OutOfRange("frame payload length implausible");
  }
  Frame frame;
  frame.type = type;
  frame.payload.resize(payload_len);
  if (payload_len > 0) {
    FEDSHAP_RETURN_NOT_OK(ReadExact(frame.payload.data(), payload_len,
                                    kRestOfFrameTimeoutMs, &timed_out,
                                    &clean_eof));
    if (timed_out || clean_eof) {
      return Status::OutOfRange("torn frame payload");
    }
  }
  if (Crc32(frame.payload) != crc) {
    return Status::OutOfRange("frame payload CRC mismatch");
  }
  return std::optional<Frame>(std::move(frame));
}

Result<std::pair<std::unique_ptr<FrameChannel>, std::unique_ptr<FrameChannel>>>
CreateChannelPair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    return Status::Internal(std::string("socketpair failed: ") +
                            ::strerror(errno));
  }
  return std::make_pair(std::make_unique<FrameChannel>(fds[0]),
                        std::make_unique<FrameChannel>(fds[1]));
}

}  // namespace fedshap

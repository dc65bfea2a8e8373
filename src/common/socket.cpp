#include "common/socket.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

namespace usys {

namespace {

/// Fills a sockaddr_un for `path`; false when the path exceeds sun_path.
bool make_addr(const std::string& path, sockaddr_un& addr) {
  if (path.size() >= sizeof addr.sun_path) return false;
  std::memset(&addr, 0, sizeof addr);
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return true;
}

/// poll() one fd for `events`, retrying on EINTR. Returns revents, 0 on
/// timeout, -1 on error.
int poll_one(int fd, short events, int timeout_ms) {
  pollfd p{};
  p.fd = fd;
  p.events = events;
  for (;;) {
    const int rc = ::poll(&p, 1, timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (rc == 0) return 0;
    return p.revents;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// UnixConn
// ---------------------------------------------------------------------------

UnixConn::UnixConn(UnixConn&& other) noexcept
    : fd_(other.fd_), rbuf_(std::move(other.rbuf_)) {
  other.fd_ = -1;
}

UnixConn& UnixConn::operator=(UnixConn&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    rbuf_ = std::move(other.rbuf_);
    other.fd_ = -1;
  }
  return *this;
}

UnixConn UnixConn::connect_to(const std::string& path) {
  sockaddr_un addr;
  if (!make_addr(path, addr)) return UnixConn();
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return UnixConn();
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return UnixConn();
  }
  return UnixConn(fd);
}

bool UnixConn::read_line(std::string& line, int timeout_ms) {
  return read_bounded_line(line, timeout_ms, std::string::npos) == ReadStatus::ok;
}

UnixConn::ReadStatus UnixConn::read_bounded_line(std::string& line, int timeout_ms,
                                                 std::size_t max_bytes) {
  using Clock = std::chrono::steady_clock;
  if (fd_ < 0) return ReadStatus::failed;
  const Clock::time_point deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  std::size_t scanned = 0;  // rbuf_ prefix already known to hold no newline
  for (;;) {
    const std::size_t nl = rbuf_.find('\n', scanned);
    if (nl != std::string::npos) {
      if (nl > max_bytes) return ReadStatus::too_large;
      line.assign(rbuf_, 0, nl);
      rbuf_.erase(0, nl + 1);
      return ReadStatus::ok;
    }
    if (rbuf_.size() > max_bytes) return ReadStatus::too_large;
    scanned = rbuf_.size();
    int wait_ms = -1;
    if (timeout_ms >= 0) {
      const auto left = std::chrono::ceil<std::chrono::milliseconds>(deadline - Clock::now());
      if (left.count() <= 0) return ReadStatus::failed;
      wait_ms = static_cast<int>(left.count());
    }
    if (poll_one(fd_, POLLIN, wait_ms) <= 0) return ReadStatus::failed;  // deadline or error
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ReadStatus::failed;
    }
    if (n == 0) return ReadStatus::failed;  // EOF with no complete line
    rbuf_.append(chunk, static_cast<std::size_t>(n));
  }
}

bool UnixConn::write_all(const char* data, std::size_t len) {
  if (fd_ < 0) return false;
  std::size_t off = 0;
  while (off < len) {
    // MSG_NOSIGNAL: a peer that disconnected mid-stream must surface as a
    // failed write (job cancellation), not a process-killing SIGPIPE.
    const ssize_t n = ::send(fd_, data + off, len - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool UnixConn::peer_hung_up() const {
  if (fd_ < 0) return true;
  const int ev = poll_one(fd_, POLLIN, 0);
  if (ev < 0) return true;
  if (ev == 0) return false;
  if (ev & (POLLHUP | POLLERR | POLLNVAL)) return true;
  if (ev & POLLIN) {
    // Readable can mean either pipelined request bytes or EOF; peek to tell
    // them apart without consuming anything the reader loop still wants.
    char probe;
    const ssize_t n = ::recv(fd_, &probe, 1, MSG_PEEK | MSG_DONTWAIT);
    if (n == 0) return true;                                   // orderly EOF
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)
      return true;                                             // reset
  }
  return false;
}

void UnixConn::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  rbuf_.clear();
}

// ---------------------------------------------------------------------------
// UnixListener
// ---------------------------------------------------------------------------

bool UnixListener::listen_on(const std::string& path, std::string* error) {
  close();
  sockaddr_un addr;
  if (!make_addr(path, addr)) {
    if (error) *error = "socket path too long (max " +
                        std::to_string(sizeof addr.sun_path - 1) + " bytes): " + path;
    return false;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error) *error = std::string("socket(): ") + std::strerror(errno);
    return false;
  }
  ::unlink(path.c_str());  // stale socket from a previous daemon run
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    if (error) *error = "bind(" + path + "): " + std::strerror(errno);
    ::close(fd);
    return false;
  }
  if (::listen(fd, 64) != 0) {
    if (error) *error = "listen(" + path + "): " + std::strerror(errno);
    ::close(fd);
    ::unlink(path.c_str());
    return false;
  }
  fd_ = fd;
  path_ = path;
  return true;
}

UnixConn UnixListener::accept_conn(int timeout_ms) {
  if (fd_ < 0) return UnixConn();
  const int ev = poll_one(fd_, POLLIN, timeout_ms);
  if (ev <= 0 || !(ev & POLLIN)) return UnixConn();
  for (;;) {
    const int cfd = ::accept(fd_, nullptr, nullptr);
    if (cfd >= 0) return UnixConn(cfd);
    if (errno == EINTR) continue;
    return UnixConn();
  }
}

void UnixListener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (!path_.empty()) {
    ::unlink(path_.c_str());
    path_.clear();
  }
}

}  // namespace usys

// Unix-domain stream sockets for the simulation server (src/server).
//
// Two small RAII wrappers over AF_UNIX/SOCK_STREAM:
//
//   * UnixConn     — one connection: buffered line reads (the wire protocol
//                    is newline-delimited JSON; the server reads requests
//                    under a byte cap and a whole-line deadline), full
//                    writes that never raise SIGPIPE, and a non-blocking
//                    peer-hangup probe used to cancel jobs when the client
//                    goes away mid-stream.
//   * UnixListener — bind/listen/accept with a poll timeout so the accept
//                    loop can wake up to observe shutdown; unlinks the
//                    socket path it bound on close.
//
// Everything reports failure by return value (invalid socket / false) rather
// than exceptions: callers are server loops where a bad peer must never take
// down the process.
#pragma once

#include <cstddef>
#include <string>

namespace usys {

/// A connected Unix-domain stream socket. Move-only; closes on destruction.
class UnixConn {
 public:
  UnixConn() = default;
  /// Adopts an already-connected file descriptor (from accept/connect).
  explicit UnixConn(int fd) : fd_(fd) {}
  ~UnixConn() { close(); }

  UnixConn(UnixConn&& other) noexcept;
  UnixConn& operator=(UnixConn&& other) noexcept;
  UnixConn(const UnixConn&) = delete;
  UnixConn& operator=(const UnixConn&) = delete;

  /// Connects to a listening socket at `path`. Returns an invalid conn on
  /// failure (missing socket, refused, permission).
  static UnixConn connect_to(const std::string& path);

  bool valid() const noexcept { return fd_ >= 0; }
  int fd() const noexcept { return fd_; }

  /// Reads one '\n'-terminated line (newline stripped) into `line`. The
  /// whole line must arrive within `timeout_ms` (-1 = no deadline). Returns
  /// false on EOF before a complete line, deadline, or error.
  bool read_line(std::string& line, int timeout_ms = -1);

  enum class ReadStatus { ok, too_large, failed };

  /// read_line for an untrusted peer: also stops with `too_large` once the
  /// line holds more than `max_bytes` bytes (newline excluded), so a peer
  /// can neither grow the buffer past the cap nor hold the caller past the
  /// deadline by sending a byte at a time. `failed` is read_line's false.
  ReadStatus read_bounded_line(std::string& line, int timeout_ms, std::size_t max_bytes);

  /// Writes the whole buffer; short writes are retried. SIGPIPE-safe: a
  /// closed peer yields `false`, never a signal.
  bool write_all(const char* data, std::size_t len);
  bool write_all(const std::string& data) { return write_all(data.data(), data.size()); }

  /// Non-blocking probe: true once the peer has closed its end (orderly EOF
  /// or reset). Buffered-but-unread request bytes do not count as hangup.
  bool peer_hung_up() const;

  void close();

 private:
  int fd_ = -1;
  std::string rbuf_;  // bytes received past the last returned line
};

/// A bound, listening Unix-domain socket. Move-only; closing unlinks the
/// filesystem path it created.
class UnixListener {
 public:
  UnixListener() = default;
  ~UnixListener() { close(); }

  UnixListener(UnixListener&& other) noexcept;
  UnixListener& operator=(UnixListener&& other) noexcept;
  UnixListener(const UnixListener&) = delete;
  UnixListener& operator=(const UnixListener&) = delete;

  /// Binds and listens on `path`. A stale socket file from a previous run is
  /// removed first (daemon restart is the common case). On failure returns
  /// false and, when `error` is non-null, stores a description.
  bool listen_on(const std::string& path, std::string* error = nullptr);

  bool valid() const noexcept { return fd_ >= 0; }

  /// Waits up to `timeout_ms` for a connection. Returns an invalid conn on
  /// timeout or error so the caller's loop can re-check its stop flag.
  UnixConn accept_conn(int timeout_ms);

  void close();

 private:
  int fd_ = -1;
  std::string path_;
};

}  // namespace usys

#ifndef PERFVAR_UTIL_SOCKET_HPP
#define PERFVAR_UTIL_SOCKET_HPP

/// \file socket.hpp
/// Minimal POSIX stream-socket helpers for the analysis server.
///
/// The server speaks its framed protocol (util/framing.hpp) over any
/// connected byte stream; these helpers provide the two transports it
/// uses: a Unix-domain listening socket for the `trace_tool serve`
/// daemon, and an anonymous socket pair for in-process clients (tests,
/// examples, benchmarks). Everything is RAII: a FileDescriptor closes on
/// destruction, and every failure throws perfvar::Error with
/// ErrorCode::IoFailure so callers get the same structured errors as the
/// file I/O layer.

#include <cstddef>
#include <string>
#include <utility>

#include "util/error.hpp"

namespace perfvar::util {

/// Move-only owning wrapper of a POSIX file descriptor.
class FileDescriptor {
public:
  FileDescriptor() = default;
  explicit FileDescriptor(int fd) : fd_(fd) {}
  ~FileDescriptor() { close(); }

  FileDescriptor(const FileDescriptor&) = delete;
  FileDescriptor& operator=(const FileDescriptor&) = delete;
  FileDescriptor(FileDescriptor&& other) noexcept : fd_(other.fd_) {
    other.fd_ = -1;
  }
  FileDescriptor& operator=(FileDescriptor&& other) noexcept {
    if (this != &other) {
      close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

  /// Close now (idempotent).
  void close();

  /// Give up ownership without closing.
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

private:
  int fd_ = -1;
};

/// Create a Unix-domain stream socket listening on `path`. An existing
/// socket file at `path` is removed first (the daemon owns its socket
/// path). Throws Error(IoFailure) on any failure, including a path longer
/// than the platform's sun_path limit.
FileDescriptor listenUnix(const std::string& path, int backlog = 16);

/// Accept one connection on a listening socket. Blocks; throws
/// Error(IoFailure) on failure. Returns an invalid descriptor when the
/// listening socket was shut down (the server's stop signal).
FileDescriptor acceptConnection(int listenFd);

/// Connect to a Unix-domain socket. Retries connect() every
/// `retryIntervalMs` until `retries` attempts are exhausted (covers the
/// daemon-still-starting race in scripted sessions); 0 retries means one
/// immediate attempt. Throws Error(IoFailure) when the socket never
/// becomes connectable. Same as the ConnectRetryPolicy overload below
/// with initialDelayMs = maxDelayMs = retryIntervalMs.
FileDescriptor connectUnix(const std::string& path, std::size_t retries = 0,
                           std::size_t retryIntervalMs = 100);

/// Reconnect schedule for connectUnix: `retries` additional attempts after
/// the first, waiting `initialDelayMs` before the second attempt and
/// doubling the wait after every failure up to `maxDelayMs` (exponential
/// backoff, so a client started before its daemon neither spins nor waits
/// a fixed worst-case interval).
struct ConnectRetryPolicy {
  std::size_t retries = 0;
  std::size_t initialDelayMs = 100;
  std::size_t maxDelayMs = 2000;
};

/// connectUnix with exponential backoff between attempts.
FileDescriptor connectUnix(const std::string& path,
                           const ConnectRetryPolicy& policy);

/// Anonymous connected stream-socket pair (AF_UNIX). The in-process
/// transport: one end is served, the other drives a client — no
/// filesystem involved.
std::pair<FileDescriptor, FileDescriptor> socketPair();

/// Read exactly `n` bytes. Returns false on a clean EOF before the first
/// byte; throws Error(TruncatedInput) on EOF mid-read and
/// Error(IoFailure) on transport errors. EINTR is retried.
bool readFull(int fd, void* buf, std::size_t n);

/// Write all `n` bytes; throws Error(IoFailure) on any failure (a closed
/// peer surfaces as EPIPE — callers must have SIGPIPE suppressed, see
/// suppressSigpipe()). EINTR is retried.
void writeFull(int fd, const void* buf, std::size_t n);

/// Process-wide SIGPIPE -> SIG_IGN (idempotent). Server and client entry
/// points call this so a peer hanging up surfaces as an EPIPE Error
/// instead of killing the process.
void suppressSigpipe();

/// Wake any thread blocked in acceptConnection() on this listening socket
/// (shutdown(2) on the descriptor); accept then reports "shut down".
void shutdownSocket(int fd);

/// Half-close the read side only (SHUT_RD): a thread blocked reading the
/// next request frame sees a clean EOF, while queued responses still
/// flow out. The graceful-drain primitive of Server::drain().
void shutdownSocketRead(int fd);

/// Best-effort nonblocking send on a connected socket (MSG_DONTWAIT, no
/// SIGPIPE). Returns false when the peer is gone or the transport failed;
/// on success `written` holds the bytes accepted (0 = kernel buffer full,
/// try again later). Never blocks and never throws.
bool sendNonBlocking(int fd, const void* buf, std::size_t n,
                     std::size_t& written) noexcept;

/// Wait until `fd` accepts more outgoing bytes. `timeoutMs` < 0 waits
/// indefinitely. Returns false on timeout; throws Error(IoFailure) when
/// the descriptor itself fails. EINTR is retried against the original
/// deadline.
bool pollWritable(int fd, int timeoutMs);

}  // namespace perfvar::util

#endif  // PERFVAR_UTIL_SOCKET_HPP

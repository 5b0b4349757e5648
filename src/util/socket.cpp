#include "util/socket.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <algorithm>
#include <csignal>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace perfvar::util {

namespace {

[[noreturn]] void throwIo(const std::string& what, const std::string& path = {}) {
  ErrorContext context;
  context.code = ErrorCode::IoFailure;
  context.path = path;
  throw Error(what + ": " + std::strerror(errno), std::move(context));
}

sockaddr_un unixAddress(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  PERFVAR_REQUIRE_E(path.size() < sizeof(addr.sun_path),
                    "socket path exceeds the sun_path limit: " + path,
                    ErrorContext::at(ErrorCode::IoFailure));
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

void FileDescriptor::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

FileDescriptor listenUnix(const std::string& path, int backlog) {
  FileDescriptor fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) {
    throwIo("socket(AF_UNIX)", path);
  }
  const sockaddr_un addr = unixAddress(path);
  ::unlink(path.c_str());  // the daemon owns its socket path
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    throwIo("bind", path);
  }
  if (::listen(fd.get(), backlog) != 0) {
    throwIo("listen", path);
  }
  return fd;
}

FileDescriptor acceptConnection(int listenFd) {
  while (true) {
    const int fd = ::accept(listenFd, nullptr, nullptr);
    if (fd >= 0) {
      return FileDescriptor(fd);
    }
    if (errno == EINTR) {
      continue;
    }
    // shutdown(2) on the listening socket wakes accept with EINVAL (the
    // server's stop signal); a closed descriptor reports EBADF likewise.
    if (errno == EINVAL || errno == EBADF) {
      return FileDescriptor{};
    }
    throwIo("accept");
  }
}

FileDescriptor connectUnix(const std::string& path, std::size_t retries,
                           std::size_t retryIntervalMs) {
  ConnectRetryPolicy fixedInterval;
  fixedInterval.retries = retries;
  fixedInterval.initialDelayMs = retryIntervalMs;
  fixedInterval.maxDelayMs = retryIntervalMs;
  return connectUnix(path, fixedInterval);
}

FileDescriptor connectUnix(const std::string& path,
                           const ConnectRetryPolicy& policy) {
  const sockaddr_un addr = unixAddress(path);
  std::size_t delayMs = policy.initialDelayMs;
  for (std::size_t attempt = 0;; ++attempt) {
    FileDescriptor fd(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!fd.valid()) {
      throwIo("socket(AF_UNIX)", path);
    }
    if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return fd;
    }
    if (attempt >= policy.retries) {
      throwIo("connect", path);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(delayMs));
    delayMs = std::min(policy.maxDelayMs,
                       delayMs > 0 ? delayMs * 2 : std::size_t{1});
  }
}

std::pair<FileDescriptor, FileDescriptor> socketPair() {
  int fds[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throwIo("socketpair");
  }
  return {FileDescriptor(fds[0]), FileDescriptor(fds[1])};
}

bool readFull(int fd, void* buf, std::size_t n) {
  auto* p = static_cast<unsigned char*>(buf);
  std::size_t done = 0;
  while (done < n) {
    const ssize_t got = ::read(fd, p + done, n - done);
    if (got > 0) {
      done += static_cast<std::size_t>(got);
      continue;
    }
    if (got == 0) {
      if (done == 0) {
        return false;  // clean EOF on a frame boundary
      }
      ErrorContext context;
      context.code = ErrorCode::TruncatedInput;
      context.byteOffset = done;
      throw Error("connection closed mid-read", std::move(context));
    }
    if (errno == EINTR) {
      continue;
    }
    throwIo("read");
  }
  return true;
}

void writeFull(int fd, const void* buf, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(buf);
  std::size_t done = 0;
  while (done < n) {
    const ssize_t put = ::write(fd, p + done, n - done);
    if (put > 0) {
      done += static_cast<std::size_t>(put);
      continue;
    }
    if (put < 0 && errno == EINTR) {
      continue;
    }
    throwIo("write");
  }
}

void suppressSigpipe() {
  // Idempotent and thread-safe enough for entry points: signal
  // disposition is process-global and SIG_IGN is the only value set.
  std::signal(SIGPIPE, SIG_IGN);
}

void shutdownSocket(int fd) {
  ::shutdown(fd, SHUT_RDWR);
}

void shutdownSocketRead(int fd) {
  ::shutdown(fd, SHUT_RD);
}

bool sendNonBlocking(int fd, const void* buf, std::size_t n,
                     std::size_t& written) noexcept {
  written = 0;
  while (true) {
    const ssize_t put =
        ::send(fd, buf, n, MSG_DONTWAIT | MSG_NOSIGNAL);
    if (put >= 0) {
      written = static_cast<std::size_t>(put);
      return true;
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return true;  // kernel buffer full: written stays 0
    }
    return false;
  }
}

bool pollWritable(int fd, int timeoutMs) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeoutMs);
  while (true) {
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLOUT;
    const int got = ::poll(&pfd, 1, timeoutMs);
    if (got > 0) {
      // POLLERR/POLLHUP also count as "writable": the next send reports
      // the definitive error, which is what the caller must act on.
      return true;
    }
    if (got == 0) {
      return false;
    }
    if (errno == EINTR) {
      if (timeoutMs >= 0) {
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now());
        timeoutMs = static_cast<int>(std::max<long long>(0, left.count()));
      }
      continue;
    }
    throwIo("poll");
  }
}

}  // namespace perfvar::util

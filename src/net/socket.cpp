#include "net/socket.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace anonet::net {

namespace {

[[noreturn]] void throw_errno(const std::string& context) {
  throw SocketError(context + ": " + std::strerror(errno));
}

// Resolves an IPv4 address for host:port. Numeric literals short-circuit;
// names go through getaddrinfo.
sockaddr_in resolve_ipv4(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1) return addr;
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  const int rc = getaddrinfo(host.c_str(), nullptr, &hints, &result);
  if (rc != 0 || result == nullptr) {
    throw SocketError("resolve " + host + ": " + gai_strerror(rc));
  }
  addr.sin_addr =
      reinterpret_cast<const sockaddr_in*>(result->ai_addr)->sin_addr;
  freeaddrinfo(result);
  return addr;
}

void set_nodelay(int fd) {
  // Control frames are tiny and latency-sensitive (an ASSIGN should not
  // wait out Nagle); throughput frames are batched by the caller.
  int on = 1;
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, sizeof(on));
}

}  // namespace

std::size_t TcpSocket::read_some(void* buffer, std::size_t cap) {
  if (fd_ < 0) throw SocketError("read_some: socket is closed");
  while (true) {
    const ssize_t got = ::recv(fd_, buffer, cap, 0);
    if (got >= 0) return static_cast<std::size_t>(got);
    if (errno == EINTR) continue;
    // A peer that vanished (reset) reads as EOF for our purposes: the
    // coordinator treats both identically (reassign the peer's cells).
    if (errno == ECONNRESET) return 0;
    throw_errno("read_some");
  }
}

void TcpSocket::write_all(const void* data, std::size_t size) {
  if (fd_ < 0) throw SocketError("write_all: socket is closed");
  const auto* cursor = static_cast<const std::uint8_t*>(data);
  std::size_t left = size;
  while (left > 0) {
    // MSG_NOSIGNAL: a dead peer must surface as EPIPE, not kill the
    // process with SIGPIPE.
    const ssize_t sent = ::send(fd_, cursor, left, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      throw_errno("write_all");
    }
    cursor += sent;
    left -= static_cast<std::size_t>(sent);
  }
}

void TcpSocket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

TcpListener TcpListener::bind(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  TcpListener listener;
  listener.fd_ = fd;
  int on = 1;
  (void)setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &on, sizeof(on));
  sockaddr_in addr = resolve_ipv4(host, port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    throw_errno("bind " + host + ":" + std::to_string(port));
  }
  if (::listen(fd, 64) < 0) throw_errno("listen");
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) < 0) {
    throw_errno("getsockname");
  }
  listener.port_ = ntohs(bound.sin_port);
  return listener;
}

TcpSocket TcpListener::accept() {
  if (fd_ < 0) throw SocketError("accept: listener is closed");
  while (true) {
    const int peer = ::accept(fd_, nullptr, nullptr);
    if (peer >= 0) {
      set_nodelay(peer);
      return TcpSocket(peer);
    }
    if (errno == EINTR) continue;
    throw_errno("accept");
  }
}

void TcpListener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

TcpSocket connect_tcp(const std::string& host, std::uint16_t port) {
  const sockaddr_in addr = resolve_ipv4(host, port);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  TcpSocket socket(fd);
  while (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)) < 0) {
    if (errno == EINTR) continue;
    throw_errno("connect " + host + ":" + std::to_string(port));
  }
  set_nodelay(fd);
  return socket;
}

void write_frame(TcpSocket& socket, const Frame& frame) {
  const std::vector<std::uint8_t> bytes = encode_frame(frame);
  socket.write_all(bytes.data(), bytes.size());
}

std::optional<Frame> read_frame(TcpSocket& socket, FrameDecoder& decoder) {
  while (true) {
    if (std::optional<Frame> frame = decoder.next()) return frame;
    std::uint8_t chunk[64 * 1024];
    const std::size_t got = socket.read_some(chunk, sizeof(chunk));
    if (got == 0) {
      if (decoder.buffered() > 0) {
        throw FrameError("read_frame: peer closed mid-frame");
      }
      return std::nullopt;
    }
    decoder.feed(chunk, got);
  }
}

}  // namespace anonet::net

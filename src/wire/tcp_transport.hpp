#pragma once
/// \file tcp_transport.hpp
/// Frame transport over real TCP sockets (loopback demo of the middleware
/// protocol). Blocking sockets with a short poll timeout; one Transport per
/// connection. POSIX-only, which matches the paper's all-Linux testbed.

#include <cstdint>
#include <memory>
#include <string>

#include "wire/transport.hpp"

namespace casched::wire {

/// A connected TCP endpoint speaking the frame protocol.
class TcpTransport final : public Transport {
 public:
  /// Connects to host:port; throws util::IoError on failure.
  static std::shared_ptr<TcpTransport> connect(const std::string& host, std::uint16_t port);

  ~TcpTransport() override;

  /// Drains whatever is readable right now without blocking.
  std::size_t poll(const FrameFn& fn) override;
  bool closed() const override;
  void close() override;

  int fd() const { return fd_; }

 protected:
  /// Sends until every byte is out; a failed send closes the link.
  void write(const Bytes& bytes, std::size_t frames) override;

 private:
  explicit TcpTransport(int fd) : fd_(fd) {}
  friend class TcpListener;

  int fd_ = -1;
  bool closed_ = false;
  FrameDecoder decoder_;
};

/// Listening socket; accept() yields TcpTransport connections.
class TcpListener {
 public:
  /// Binds to 127.0.0.1:port (port 0 picks a free port).
  explicit TcpListener(std::uint16_t port);
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  std::uint16_t port() const { return port_; }
  /// The listening socket; readable while a connection waits to be accepted.
  int fd() const { return fd_; }

  /// Accepts one connection, waiting up to `timeoutMs`; nullptr on timeout.
  std::shared_ptr<TcpTransport> accept(int timeoutMs);

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace casched::wire

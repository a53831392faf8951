#pragma once
/// \file http_export.hpp
/// Minimal HTTP/1.0 metrics endpoint (POSIX sockets, loopback only): each
/// request gets the current registry snapshot as Prometheus text, or JSON
/// when the path mentions "json". One non-blocking listener polled from the
/// owning daemon's pump loop - no threads, no HTTP library.

#include <cstdint>
#include <string>

namespace casched::obs {

/// Full HTTP response bytes for `body` (status 200, Connection: close).
std::string httpOkResponse(const std::string& body, const std::string& contentType);

class MetricsHttpServer {
 public:
  /// Binds 127.0.0.1:`port` (0 picks a free port); throws util::IoError on
  /// failure.
  explicit MetricsHttpServer(std::uint16_t port);
  ~MetricsHttpServer();

  MetricsHttpServer(const MetricsHttpServer&) = delete;
  MetricsHttpServer& operator=(const MetricsHttpServer&) = delete;

  std::uint16_t port() const { return port_; }
  /// The listening socket; readable while a scrape waits to be served.
  int fd() const { return fd_; }

  /// Accepts and answers every connection ready right now; returns the
  /// number of requests served. Never blocks beyond a short per-request
  /// read timeout.
  std::size_t pollOnce();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace casched::obs

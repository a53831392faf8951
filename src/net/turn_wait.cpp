#include "net/turn_wait.hpp"

#include <time.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <string>

#include "util/error.hpp"

namespace casched::net {

double turnTimeoutSeconds(simcore::SimTime nextEvent, double simNow, double timeScale) {
  const double wall = (nextEvent - simNow) / timeScale;
  // NaN (infinity minus infinity, or a zero scale at a due event) means no
  // usable date: fall back to the idle bound.
  if (std::isnan(wall)) return kIdleTurnBoundSeconds;
  return std::clamp(wall, 0.0, kIdleTurnBoundSeconds);
}

void TurnWaiter::watch(int fd) {
  if (fd >= 0) fds_.push_back(pollfd{fd, POLLIN, 0});
}

void TurnWaiter::watch(const std::shared_ptr<wire::TcpTransport>& transport) {
  if (transport && !transport->closed()) watch(transport->fd());
}

void TurnWaiter::wait(double timeoutSeconds) {
  // Rounded up to whole nanoseconds: waking a hair early would find the
  // event not yet due and spend a turn on nothing. Callers loop, so the
  // one-hour cap only keeps the conversion in range.
  const double ns = std::ceil(std::clamp(timeoutSeconds, 0.0, 3600.0) * 1e9);
  timespec timeout{};
  timeout.tv_sec = static_cast<time_t>(ns / 1e9);
  timeout.tv_nsec = static_cast<long>(ns - 1e9 * static_cast<double>(timeout.tv_sec));
  const int ready = ::ppoll(fds_.data(), fds_.size(), &timeout, nullptr);
  fds_.clear();
  if (ready < 0 && errno != EINTR) {
    throw util::IoError(std::string("ppoll: ") + std::strerror(errno));
  }
}

}  // namespace casched::net

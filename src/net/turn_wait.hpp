#pragma once
/// \file turn_wait.hpp
/// How a live daemon waits between event-loop turns. Every blocking run()
/// loop does one runOnce() turn, then blocks in ppoll(2) over its open
/// descriptors until one is readable or the daemon simulator's next event
/// falls due on the paced clock, whichever comes first. A socket read wakes
/// the daemon at once and a due event (a submission, a load report, a task
/// completion) wakes it on time, so neither waits out a fixed sleep.
///
/// The wait never exceeds kIdleTurnBoundSeconds. The bound serves what is
/// neither a socket nor a simulator event: heartbeat deadlines, peer
/// re-dials, sync and steal periods, a pending graceful leave, and the stop
/// flag. ARCHITECTURE.md ("Daemon turns") records why it is 1 ms.

#include <poll.h>

#include <memory>
#include <vector>

#include "net/clock.hpp"
#include "simcore/time.hpp"
#include "wire/tcp_transport.hpp"

namespace casched::net {

/// Longest wall time a daemon blocks between turns with no socket readable
/// and no simulator event due.
inline constexpr double kIdleTurnBoundSeconds = 0.001;

/// Wall seconds until simulated time `nextEvent` on a clock that reads
/// `simNow` and runs `timeScale` simulated seconds per wall second, clamped
/// to [0, kIdleTurnBoundSeconds]: 0 when the event is already due, the idle
/// bound when there is none (kTimeInfinity). Never negative or NaN.
double turnTimeoutSeconds(simcore::SimTime nextEvent, double simNow, double timeScale);

/// The descriptor set of one wait. Descriptors are added after each turn
/// (the daemon's connections change while it runs) and forgotten by the wait.
class TurnWaiter {
 public:
  /// Adds a descriptor to the next wait; negative ones are ignored.
  void watch(int fd);
  /// Adds a transport's socket unless the transport is gone or closed (a
  /// closed socket at end-of-stream would read as ready forever).
  void watch(const std::shared_ptr<wire::TcpTransport>& transport);

  /// Blocks until a watched descriptor is readable, a signal arrives, or
  /// `timeoutSeconds` elapse; then forgets the watched set. Throws
  /// util::IoError when ppoll(2) itself fails.
  void wait(double timeoutSeconds);

  /// One daemon turn's wait: until a watched descriptor is readable or the
  /// event at simulated time `nextEvent` is due on `clock`, at most
  /// kIdleTurnBoundSeconds.
  void waitForTurn(simcore::SimTime nextEvent, const PacedClock& clock) {
    wait(turnTimeoutSeconds(nextEvent, clock.simNow(), clock.timeScale()));
  }

 private:
  std::vector<pollfd> fds_;
};

}  // namespace casched::net

#ifndef CPA_SERVER_IDLE_SWEEPER_H_
#define CPA_SERVER_IDLE_SWEEPER_H_

/// \file idle_sweeper.h
/// \brief Time-driven idle-session expiry: the server's one expiry
/// mechanism.
///
/// `ConsensusServer` owns a sweeper whenever `idle_timeout_seconds > 0`,
/// in stdio and socket mode alike. Sessions whose clients vanished would
/// otherwise stay pinned (engine state, scheduler lane, answer stream);
/// the sweeper's dedicated thread sweeps on a timer, so an idle server
/// converges to zero sessions without any traffic.
///
/// The sweep period is a quarter of the idle timeout (clamped to
/// [0.1s, 60s]): a session is reaped at most ~1.25 timeouts after its
/// last touch, and the sweep itself is cheap (one pass over the session
/// map, skipping any session with an operation in flight).
///
/// `Stop` (and the destructor) wakes the thread immediately — shutdown
/// never waits out a sweep period.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "server/session_manager.h"

namespace cpa {

/// \brief Periodically expires idle sessions on a background thread.
class IdleSweeper {
 public:
  /// Sweeps `sessions` every timeout / 4 (clamped to [0.1s, 60s]),
  /// expiring sessions idle longer than `idle_timeout_seconds`. `sessions`
  /// must outlive the sweeper.
  IdleSweeper(SessionManager& sessions, double idle_timeout_seconds);

  /// Stops and joins.
  ~IdleSweeper();

  IdleSweeper(const IdleSweeper&) = delete;
  IdleSweeper& operator=(const IdleSweeper&) = delete;

  /// Starts the sweep thread. Call at most once.
  void Start();

  /// Stops the thread promptly and joins it. Idempotent.
  void Stop();

  /// Total sessions expired by this sweeper (the shutdown stats line).
  std::uint64_t expired() const {
    return expired_.load(std::memory_order_relaxed);
  }

 private:
  void Loop();

  SessionManager& sessions_;
  double idle_timeout_seconds_;
  double period_seconds_;

  std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;  ///< guarded by `mutex_`
  std::thread thread_;
  std::atomic<std::uint64_t> expired_{0};
};

}  // namespace cpa

#endif  // CPA_SERVER_IDLE_SWEEPER_H_

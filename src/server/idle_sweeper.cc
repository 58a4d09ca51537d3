#include "server/idle_sweeper.h"

#include <algorithm>
#include <chrono>

namespace cpa {

IdleSweeper::IdleSweeper(SessionManager& sessions, double idle_timeout_seconds)
    : sessions_(sessions),
      idle_timeout_seconds_(idle_timeout_seconds),
      period_seconds_(std::clamp(idle_timeout_seconds / 4.0, 0.1, 60.0)) {}

IdleSweeper::~IdleSweeper() { Stop(); }

void IdleSweeper::Start() {
  thread_ = std::thread([this] { Loop(); });
}

void IdleSweeper::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void IdleSweeper::Loop() {
  const auto period = std::chrono::duration<double>(period_seconds_);
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stopping_) {
    if (wake_.wait_for(lock, period, [this] { return stopping_; })) break;
    // Sweep outside the wait lock so Stop is never blocked behind a
    // session close (engine teardown can be slow).
    lock.unlock();
    expired_.fetch_add(sessions_.ExpireIdle(idle_timeout_seconds_),
                       std::memory_order_relaxed);
    lock.lock();
  }
}

}  // namespace cpa

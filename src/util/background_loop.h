// BackgroundLoop — one periodic background thread. Start() launches a thread
// that waits a full period, runs the tick, and repeats until Stop(). The
// adaptation controller (online::AdaptationController), the staleness-driven
// refresh (ingest::RefreshController) and the subplan-memo fold
// (optimizer::SubplanMemoRefresher) all poll through it.
//
// Stop() wakes the thread out of its wait, so it returns without waiting the
// period out; a tick already running finishes first, and no tick starts
// after Stop() returns. The loop can be started again after a Stop(). Start,
// Stop and running() are safe to call from any thread except the tick's own.
#pragma once

#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>

namespace uae::util {

class BackgroundLoop {
 public:
  BackgroundLoop(std::chrono::milliseconds period, std::function<void()> tick)
      : period_(period), tick_(std::move(tick)) {}
  ~BackgroundLoop() { Stop(); }
  BackgroundLoop(const BackgroundLoop&) = delete;
  BackgroundLoop& operator=(const BackgroundLoop&) = delete;

  /// Starts the thread; does nothing while it is already running.
  void Start() {
    std::lock_guard<std::mutex> control(control_mu_);
    if (thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = false;
    }
    thread_ = std::thread([this] { Run(); });
  }

  /// Stops and joins the thread. Returns true iff it stopped a running loop.
  bool Stop() {
    std::lock_guard<std::mutex> control(control_mu_);
    if (!thread_.joinable()) return false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
    return true;
  }

  bool running() const {
    std::lock_guard<std::mutex> control(control_mu_);
    return thread_.joinable();
  }

 private:
  void Run() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, period_, [this] { return stop_; })) {
      lock.unlock();
      tick_();
      lock.lock();
    }
  }

  const std::chrono::milliseconds period_;
  const std::function<void()> tick_;

  /// Serializes Start/Stop, so a restart never races the join of the
  /// previous thread.
  mutable std::mutex control_mu_;
  std::thread thread_;

  std::mutex mu_;  ///< Guards stop_; cv_ waits on it.
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace uae::util

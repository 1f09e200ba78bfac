// util/background_loop: the periodic thread behind the adaptation, refresh
// and subplan-memo polls — wait-then-tick order, repetition, a Stop() that
// neither waits the period out nor lets a tick start after it returns, the
// idempotent Start/Stop pair, and restart.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "util/background_loop.h"
#include "util/stopwatch.h"

namespace uae::util {
namespace {

using std::chrono::milliseconds;

/// Sleeps until `ticks` reaches `at_least`, for at most a minute.
void WaitForTicks(const std::atomic<int>& ticks, int at_least) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::minutes(1);
  while (ticks.load() < at_least && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(1));
  }
}

TEST(BackgroundLoopTest, NoTickBeforeTheFirstPeriod) {
  std::atomic<int> ticks{0};
  BackgroundLoop loop(std::chrono::hours(1), [&] { ++ticks; });
  loop.Start();
  std::this_thread::sleep_for(milliseconds(100));
  EXPECT_TRUE(loop.Stop());
  EXPECT_EQ(ticks.load(), 0);
}

TEST(BackgroundLoopTest, TicksRepeat) {
  std::atomic<int> ticks{0};
  BackgroundLoop loop(milliseconds(1), [&] { ++ticks; });
  loop.Start();
  EXPECT_TRUE(loop.running());
  WaitForTicks(ticks, 3);
  EXPECT_TRUE(loop.Stop());
  EXPECT_GE(ticks.load(), 3);
  EXPECT_FALSE(loop.running());
}

TEST(BackgroundLoopTest, StopDoesNotWaitThePeriodOut) {
  BackgroundLoop loop(std::chrono::hours(1), [] {});
  loop.Start();
  Stopwatch timer;
  EXPECT_TRUE(loop.Stop());
  EXPECT_LT(timer.ElapsedSeconds(), 60.0);
}

TEST(BackgroundLoopTest, NoTickAfterStopReturns) {
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  BackgroundLoop loop(milliseconds(0), [&] {
    ++started;
    std::this_thread::sleep_for(milliseconds(2));
    ++finished;
  });
  loop.Start();
  WaitForTicks(started, 1);
  ASSERT_TRUE(loop.Stop());
  // A tick in flight finished inside Stop(), and none starts afterwards.
  const int stopped_at = started.load();
  EXPECT_EQ(finished.load(), stopped_at);
  std::this_thread::sleep_for(milliseconds(50));
  EXPECT_EQ(started.load(), stopped_at);
}

TEST(BackgroundLoopTest, StopWithoutStartReturnsFalse) {
  BackgroundLoop loop(milliseconds(1), [] {});
  EXPECT_FALSE(loop.running());
  EXPECT_FALSE(loop.Stop());
}

TEST(BackgroundLoopTest, SecondStartAndSecondStopDoNothing) {
  std::atomic<int> ticks{0};
  BackgroundLoop loop(std::chrono::hours(1), [&] { ++ticks; });
  loop.Start();
  loop.Start();
  EXPECT_TRUE(loop.running());
  EXPECT_TRUE(loop.Stop());
  EXPECT_FALSE(loop.Stop());
  EXPECT_FALSE(loop.running());
  EXPECT_EQ(ticks.load(), 0);
}

TEST(BackgroundLoopTest, TicksAgainAfterARestart) {
  std::atomic<int> ticks{0};
  BackgroundLoop loop(milliseconds(1), [&] { ++ticks; });
  loop.Start();
  WaitForTicks(ticks, 1);
  ASSERT_TRUE(loop.Stop());
  const int first_run = ticks.load();
  ASSERT_GE(first_run, 1);
  loop.Start();
  EXPECT_TRUE(loop.running());
  WaitForTicks(ticks, first_run + 1);
  EXPECT_TRUE(loop.Stop());
  EXPECT_GT(ticks.load(), first_run);
}

}  // namespace
}  // namespace uae::util

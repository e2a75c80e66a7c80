// RealContext reactor tests: timer-slab lifecycle (cancel / reschedule /
// generation reuse), run_until with an interleaved completion driver, and
// the idle-sleep discipline (no 1 ms polling between timers). The reactor
// over a real shared io_uring is covered in
// tests/blockdev/shared_ring_test.cpp.
//
// These tests run against the wall clock, so they assert on counts and
// event ordering, never on precise durations; the only timing bound used
// is "well under the reactor's 1 s lost-wakeup safety ceiling", which a
// working event path beats by orders of magnitude.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "exec/real_context.hpp"

namespace sst::exec {
namespace {

TEST(RealContextTimerSlab, CancelledTasksNeverFireAndHandlesGoInert) {
  RealContext ctx;
  int fired = 0;
  std::vector<TaskHandle> handles;
  handles.reserve(100);
  for (int i = 0; i < 100; ++i) {
    handles.push_back(ctx.schedule_after(usec(200) + i, [&fired] { ++fired; }));
  }
  EXPECT_EQ(ctx.pending_tasks(), 100u);
  for (int i = 0; i < 100; i += 2) handles[i].cancel();
  EXPECT_EQ(ctx.pending_tasks(), 50u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(handles[i].pending(), i % 2 == 1) << "handle " << i;
  }
  // Double-cancel is a no-op, not a double-free of the slot.
  for (int i = 0; i < 100; i += 2) handles[i].cancel();
  EXPECT_EQ(ctx.pending_tasks(), 50u);

  ctx.run();
  EXPECT_EQ(fired, 50);
  EXPECT_EQ(ctx.pending_tasks(), 0u);
  for (const TaskHandle& h : handles) EXPECT_FALSE(h.pending());
}

TEST(RealContextTimerSlab, StaleHandlesStayInertAcrossSlotReuse) {
  RealContext ctx;
  int fired_round1 = 0;
  std::vector<TaskHandle> round1;
  round1.reserve(64);
  for (int i = 0; i < 64; ++i) {
    round1.push_back(ctx.schedule_after(usec(100), [&fired_round1] { ++fired_round1; }));
  }
  // Cancel half, fire the rest: every slot is recycled one way or the other.
  for (int i = 0; i < 64; i += 2) round1[i].cancel();
  ctx.run();
  EXPECT_EQ(fired_round1, 32);

  // Round 2 reuses the freed slots (the slab free-list hands them back),
  // bumping each slot's generation past the round-1 handles.
  int fired_round2 = 0;
  std::vector<TaskHandle> round2;
  round2.reserve(64);
  for (int i = 0; i < 64; ++i) {
    round2.push_back(ctx.schedule_after(usec(100), [&fired_round2] { ++fired_round2; }));
  }
  for (TaskHandle& stale : round1) {
    EXPECT_FALSE(stale.pending());
    stale.cancel();  // must not cancel the slot's new occupant
  }
  EXPECT_EQ(ctx.pending_tasks(), 64u);
  EXPECT_TRUE(std::all_of(round2.begin(), round2.end(),
                          [](const TaskHandle& h) { return h.pending(); }));
  ctx.run();
  EXPECT_EQ(fired_round2, 64);
}

TEST(RealContextTimerSlab, RescheduleFromCallbackAndCancelSiblingStress) {
  RealContext ctx;
  // Chains that re-schedule themselves from their own callback (recycling
  // their slot mid-fire) while every odd hop cancels a freshly scheduled
  // sibling — the allocate/cancel/reallocate churn the generation check
  // must survive.
  constexpr int kChains = 8;
  constexpr int kHops = 50;
  int hops_run = 0;
  int siblings_fired = 0;
  std::vector<int> remaining(kChains, kHops);
  std::function<void(int)> hop = [&](int chain) {
    ++hops_run;
    if (--remaining[chain] == 0) return;
    TaskHandle sibling =
        ctx.schedule_after(usec(5), [&siblings_fired] { ++siblings_fired; });
    if (remaining[chain] % 2 == 1) sibling.cancel();
    ctx.schedule_after(usec(10), [&hop, chain] { hop(chain); });
  };
  for (int c = 0; c < kChains; ++c) {
    ctx.schedule_after(usec(10), [&hop, c] { hop(c); });
  }
  ctx.run();
  EXPECT_EQ(hops_run, kChains * kHops);
  // Per chain: kHops - 1 siblings scheduled, the odd-remaining ones
  // cancelled (25 of 49), the rest fired.
  EXPECT_EQ(siblings_fired, kChains * 24);
  EXPECT_EQ(ctx.pending_tasks(), 0u);
}

TEST(RealContextIdle, SleepsBetweenTimersInsteadOfPolling) {
  RealContext ctx;
  // Five timers 20 ms apart with no I/O in flight: the reactor must sleep
  // until each deadline. The pre-event-driven reactor woke every 1 ms
  // (~100 wakeups here); the exact-sleep discipline needs one per gap.
  int fired = 0;
  for (int i = 1; i <= 5; ++i) {
    ctx.schedule_after(msec(20) * i, [&fired] { ++fired; });
  }
  ctx.run();
  EXPECT_EQ(fired, 5);
  const ReactorStats& stats = ctx.reactor_stats();
  EXPECT_GT(stats.idle_sleeps, 0u);
  EXPECT_LE(stats.wakeups, 25u)
      << "reactor woke " << stats.wakeups
      << " times for 5 spaced timers - polling crept back in";
}

/// Deterministic completion source: completions become deliverable when
/// the wall clock passes their deadline, so poll() is exact and
/// repeatable.
class TimedPollDriver final : public CompletionDriver {
 public:
  explicit TimedPollDriver(RealContext& ctx) : ctx_(&ctx) {}

  void start(SimTime done_at) { deadlines_.push_back(done_at); }

  std::size_t poll(SimTime max_wait) override {
    std::size_t n = drain_due();
    if (n == 0 && max_wait > 0 && !deadlines_.empty()) {
      const SimTime next = *std::min_element(deadlines_.begin(), deadlines_.end());
      const SimTime t = ctx_->now();
      if (next > t) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(std::min(max_wait, next - t)));
      }
      n = drain_due();
    }
    return n;
  }

  [[nodiscard]] std::size_t in_flight() const override { return deadlines_.size(); }

  std::size_t delivered = 0;

 private:
  std::size_t drain_due() {
    const SimTime t = ctx_->now();
    std::size_t n = 0;
    for (auto it = deadlines_.begin(); it != deadlines_.end();) {
      if (*it <= t) {
        it = deadlines_.erase(it);
        ++n;
      } else {
        ++it;
      }
    }
    delivered += n;
    return n;
  }

  RealContext* ctx_;
  std::vector<SimTime> deadlines_;
};

TEST(RealContextDrivers, RunUntilInterleavesTimersAndCompletions) {
  RealContext ctx;
  TimedPollDriver driver(ctx);
  ctx.set_driver(&driver);

  // Timers and completions landing interleaved on the same timeline; each
  // timer also starts the next I/O, so both sources stay active the whole
  // run and neither may starve the other.
  int timer_fires = 0;
  driver.start(ctx.now() + msec(3));
  for (int i = 1; i <= 4; ++i) {
    ctx.schedule_after(msec(5) * i, [&, i] {
      ++timer_fires;
      driver.start(ctx.now() + msec(3));
    });
  }

  // Consecutive run_until calls see contiguous time and keep delivering.
  const SimTime start = ctx.now();
  ctx.run_until(start + msec(12));
  EXPECT_GE(ctx.now(), start + msec(12));
  EXPECT_GE(timer_fires, 2);
  EXPECT_GE(driver.delivered, 2u);

  ctx.run_until(start + msec(40));
  EXPECT_EQ(timer_fires, 4);
  EXPECT_EQ(driver.delivered, 5u);
  EXPECT_EQ(driver.in_flight(), 0u);

  // A task scheduled in the past fires on the next turn (real contexts
  // clamp, unlike the simulator).
  bool past_fired = false;
  ctx.schedule_at(0, [&past_fired] { past_fired = true; });
  ctx.run_until(ctx.now() + usec(500));
  EXPECT_TRUE(past_fired);

  ctx.set_driver(nullptr);
}

TEST(RealContextDrivers, WaitEndingAtTheSafetyCapIsATimerWakeup) {
  RealContext ctx;
  TimedPollDriver driver(ctx);
  ctx.set_driver(&driver);
  // A 1.2 s run and one completion 1.1 s out: the first blocking wait ends
  // at the reactor's 1 s ceiling — a deadline it armed, not a spurious
  // return — and the next one delivers the completion.
  const SimTime start = ctx.now();
  driver.start(start + msec(1100));
  ctx.run_until(start + msec(1200));
  EXPECT_EQ(driver.delivered, 1u);
  const ReactorStats& stats = ctx.reactor_stats();
  EXPECT_GE(stats.timer_wakeups, 1u);
  EXPECT_EQ(stats.completion_wakeups, 1u);
  EXPECT_EQ(stats.spurious_wakeups, 0u);
  ctx.set_driver(nullptr);
}

}  // namespace
}  // namespace sst::exec

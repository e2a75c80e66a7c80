#include "oskernel/iosched.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace sst::oskernel {
namespace {

BlockIo make(Lba lba, std::uint32_t pid = 0, SimTime arrival = 0) {
  BlockIo io;
  io.lba = lba;
  io.sectors = 8;
  io.pid = pid;
  io.arrival = arrival;
  return io;
}

std::vector<Lba> drain(IoScheduler& s, SimTime now, Lba head) {
  std::vector<Lba> order;
  while (auto io = s.select(now, head)) {
    order.push_back(io->lba);
    head = io->lba + io->sectors;
  }
  return order;
}

TEST(Noop, FifoOrder) {
  NoopScheduler s;
  for (Lba l : {Lba{500}, Lba{100}, Lba{300}}) s.add(make(l));
  EXPECT_EQ(drain(s, 0, 0), (std::vector<Lba>{500, 100, 300}));
}

TEST(Noop, BackMergeContiguousSamePid) {
  NoopScheduler s;
  int completions = 0;
  auto io1 = make(100, 1);
  io1.on_complete = [&]() { ++completions; };
  auto io2 = make(108, 1);
  io2.on_complete = [&]() { ++completions; };
  s.add(std::move(io1));
  s.add(std::move(io2));
  EXPECT_EQ(s.size(), 1u);
  auto io = s.select(0, 0);
  ASSERT_TRUE(io.has_value());
  EXPECT_EQ(io->sectors, 16u);
  io->on_complete();
  EXPECT_EQ(completions, 2);  // both callbacks chained
}

TEST(Noop, NoMergeAcrossPids) {
  NoopScheduler s;
  s.add(make(100, 1));
  s.add(make(108, 2));
  EXPECT_EQ(s.size(), 2u);
}

TEST(Noop, NoMergeNonContiguous) {
  NoopScheduler s;
  s.add(make(100, 1));
  s.add(make(200, 1));
  EXPECT_EQ(s.size(), 2u);
}

TEST(Deadline, ElevatorOrderWhenNoExpiry) {
  DeadlineScheduler s;
  for (Lba l : {Lba{500}, Lba{100}, Lba{300}}) s.add(make(l, 0, 0));
  EXPECT_EQ(drain(s, usec(1), 200), (std::vector<Lba>{300, 500, 100}));
}

TEST(Deadline, ExpiredRequestJumpsQueue) {
  DeadlineScheduler s(msec(500));
  s.add(make(900, 0, /*arrival=*/0));     // expires at 500 ms
  s.add(make(100, 0, msec(400)));
  // At t=600ms the LBA-900 request expired; despite head at 0 it goes first.
  auto io = s.select(msec(600), 0);
  ASSERT_TRUE(io.has_value());
  EXPECT_EQ(io->lba, 900u);
}

TEST(Deadline, NotExpiredUsesElevator) {
  DeadlineScheduler s(msec(500));
  s.add(make(900, 0, 0));
  s.add(make(100, 0, 0));
  auto io = s.select(msec(100), 0);
  ASSERT_TRUE(io.has_value());
  EXPECT_EQ(io->lba, 100u);
}

TEST(Anticipatory, AnticipatesFastProcess) {
  AnticipatoryScheduler s;
  // Complete a request from pid 1 with a short-think history.
  s.add(make(100, 1, usec(10)));
  auto io = s.select(usec(10), 0);
  ASSERT_TRUE(io.has_value());
  s.on_complete(1, 108, usec(100));
  // pid 2 has work queued, but the scheduler waits for pid 1.
  s.add(make(90000, 2, usec(110)));
  EXPECT_FALSE(s.select(usec(120), 108).has_value());
  EXPECT_EQ(s.wakeup_hint(), usec(100) + msec(6));
  // pid 1's next nearby read arrives: anticipation pays off.
  s.add(make(108, 1, usec(300)));
  auto next = s.select(usec(300), 108);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->lba, 108u);
  EXPECT_EQ(s.anticipation_hits(), 1u);
}

TEST(Anticipatory, TimeoutFallsBackToElevator) {
  AnticipatoryScheduler s;
  s.add(make(100, 1, 0));
  (void)s.select(0, 0);
  s.on_complete(1, 108, usec(100));
  s.add(make(90000, 2, usec(110)));
  // Past the 6 ms window: give up and serve pid 2.
  auto io = s.select(usec(100) + msec(7), 108);
  ASSERT_TRUE(io.has_value());
  EXPECT_EQ(io->lba, 90000u);
  EXPECT_EQ(s.anticipation_timeouts(), 1u);
}

TEST(Anticipatory, SlowThinkerDisablesAnticipation) {
  AnticipatoryScheduler s;
  // Build a slow think-time history for pid 1 (inter-arrival ~50 ms).
  SimTime t = 0;
  for (int i = 0; i < 6; ++i) {
    s.add(make(100 + static_cast<Lba>(i) * 8, 1, t));
    (void)s.select(t, 0);
    s.on_complete(1, 108 + static_cast<Lba>(i) * 8, t + usec(500));
    t += msec(50);
  }
  // After the last completion the scheduler must NOT anticipate.
  s.add(make(90000, 2, t));
  auto io = s.select(t, 0);
  ASSERT_TRUE(io.has_value());
  EXPECT_EQ(io->lba, 90000u);
}

TEST(Anticipatory, FarRequestFromSamePidDoesNotSatisfyAnticipation) {
  AnticipatoryScheduler s(msec(6), /*near_sectors=*/100);
  s.add(make(100, 1, 0));
  (void)s.select(0, 0);
  s.on_complete(1, 108, usec(10));
  s.add(make(500000, 1, usec(20)));  // same pid, far away
  EXPECT_FALSE(s.select(usec(30), 108).has_value());  // still waiting
}

TEST(Cfq, RoundRobinAcrossPids) {
  CfqScheduler s(/*quantum=*/1);
  s.add(make(100, 1));
  s.add(make(200, 1));
  s.add(make(300, 2));
  s.add(make(400, 2));
  std::vector<std::uint32_t> pids;
  while (auto io = s.select(0, 0)) pids.push_back(io->pid);
  EXPECT_EQ(pids, (std::vector<std::uint32_t>{1, 2, 1, 2}));
}

TEST(Cfq, QuantumKeepsPidActive) {
  CfqScheduler s(/*quantum=*/2);
  s.add(make(100, 1));
  s.add(make(108, 1));
  s.add(make(300, 2));
  std::vector<std::uint32_t> pids;
  while (auto io = s.select(0, 0)) pids.push_back(io->pid);
  EXPECT_EQ(pids, (std::vector<std::uint32_t>{1, 1, 2}));
}

TEST(Cfq, SizeTracksTotal) {
  CfqScheduler s;
  s.add(make(1, 1));
  s.add(make(2, 2));
  EXPECT_EQ(s.size(), 2u);
  (void)s.select(0, 0);
  EXPECT_EQ(s.size(), 1u);
}

TEST(Cfq, NewWorkAfterDrainIsServed) {
  CfqScheduler s;
  s.add(make(1, 1));
  (void)s.select(0, 0);
  EXPECT_FALSE(s.select(0, 0).has_value());
  s.add(make(2, 1));
  EXPECT_TRUE(s.select(0, 0).has_value());
}

TEST(Factory, KindsAndNames) {
  EXPECT_STREQ(to_string(IoSchedKind::kNoop), "noop");
  EXPECT_STREQ(to_string(IoSchedKind::kAnticipatory), "anticipatory");
  EXPECT_STREQ(to_string(IoSchedKind::kCfq), "cfq");
  EXPECT_STREQ(to_string(IoSchedKind::kDeadline), "deadline");
  EXPECT_NE(make_io_scheduler(IoSchedKind::kNoop), nullptr);
  EXPECT_NE(make_io_scheduler(IoSchedKind::kDeadline), nullptr);
  EXPECT_NE(make_io_scheduler(IoSchedKind::kAnticipatory), nullptr);
  EXPECT_NE(make_io_scheduler(IoSchedKind::kCfq), nullptr);
}

}  // namespace
}  // namespace sst::oskernel

// Tests for the in-process MPI subset: point-to-point matching, predicate
// receive, and collective semantics across rank-threads.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <thread>

#include "fault/injector.hpp"
#include "mpi/comm.hpp"
#include "util/clock.hpp"

namespace fanstore::mpi {
namespace {

TEST(MpiTest, SendRecvBasic) {
  run_world(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 7, Bytes{1, 2, 3});
    } else {
      const Message m = comm.recv(0, 7);
      EXPECT_EQ(m.source, 0);
      EXPECT_EQ(m.tag, 7);
      EXPECT_EQ(m.payload, (Bytes{1, 2, 3}));
    }
  });
}

TEST(MpiTest, RecvMatchesTagOutOfOrder) {
  run_world(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 1, Bytes{1});
      comm.send(1, 2, Bytes{2});
    } else {
      // Receive tag 2 first even though tag 1 arrived first.
      EXPECT_EQ(comm.recv(0, 2).payload, Bytes{2});
      EXPECT_EQ(comm.recv(0, 1).payload, Bytes{1});
    }
  });
}

TEST(MpiTest, RecvAnySource) {
  run_world(4, [](Comm& comm) {
    if (comm.rank() != 0) {
      comm.send(0, 5, Bytes{static_cast<std::uint8_t>(comm.rank())});
    } else {
      std::set<std::uint8_t> seen;
      for (int i = 0; i < 3; ++i) seen.insert(comm.recv(kAnySource, 5).payload[0]);
      EXPECT_EQ(seen, (std::set<std::uint8_t>{1, 2, 3}));
    }
  });
}

TEST(MpiTest, TryRecvNonBlocking) {
  run_world(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      EXPECT_FALSE(comm.try_recv(1, 9).has_value());
      comm.barrier();  // now rank 1 sends
      comm.barrier();  // send happens-before this barrier completes
      EXPECT_TRUE(comm.try_recv(1, 9).has_value());
    } else {
      comm.barrier();
      comm.send(0, 9, Bytes{1});
      comm.barrier();
    }
  });
}

TEST(MpiTest, RecvIfPredicate) {
  run_world(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 100, Bytes{1});
      comm.send(1, 2000, Bytes{2});
    } else {
      // A "daemon-style" predicate that ignores high reply tags.
      const Message m = comm.recv_if([](const Message& msg) { return msg.tag < 1000; });
      EXPECT_EQ(m.tag, 100);
      EXPECT_EQ(comm.recv(0, 2000).payload, Bytes{2});
    }
  });
}

TEST(MpiTest, BarrierSynchronizes) {
  std::atomic<int> phase{0};
  run_world(8, [&](Comm& comm) {
    phase.fetch_add(1);
    comm.barrier();
    EXPECT_EQ(phase.load(), 8);
    comm.barrier();
    phase.fetch_sub(1);
    comm.barrier();
    EXPECT_EQ(phase.load(), 0);
  });
}

TEST(MpiTest, AllgatherCollectsAllRanks) {
  run_world(5, [](Comm& comm) {
    const Bytes mine{static_cast<std::uint8_t>('a' + comm.rank())};
    const auto all = comm.allgather(as_view(mine));
    ASSERT_EQ(all.size(), 5u);
    for (int r = 0; r < 5; ++r) {
      EXPECT_EQ(all[static_cast<std::size_t>(r)],
                Bytes{static_cast<std::uint8_t>('a' + r)});
    }
  });
}

TEST(MpiTest, AllgatherRepeatedRounds) {
  // Exercises the generation/reset logic across many back-to-back rounds.
  run_world(4, [](Comm& comm) {
    for (int round = 0; round < 50; ++round) {
      const Bytes mine{static_cast<std::uint8_t>(comm.rank()),
                       static_cast<std::uint8_t>(round)};
      const auto all = comm.allgather(as_view(mine));
      for (int r = 0; r < 4; ++r) {
        ASSERT_EQ(all[static_cast<std::size_t>(r)][0], r);
        ASSERT_EQ(all[static_cast<std::size_t>(r)][1], round);
      }
    }
  });
}

TEST(MpiTest, BcastFromEachRoot) {
  run_world(3, [](Comm& comm) {
    for (int root = 0; root < 3; ++root) {
      const Bytes mine{static_cast<std::uint8_t>(42 + root)};
      const Bytes got = comm.bcast(root, comm.rank() == root ? as_view(mine) : ByteView{});
      EXPECT_EQ(got, Bytes{static_cast<std::uint8_t>(42 + root)});
    }
  });
}

TEST(MpiTest, AllreduceSumAveragesGradients) {
  run_world(4, [](Comm& comm) {
    std::vector<double> grad = {1.0 * comm.rank(), 2.0};
    const auto sum = comm.allreduce_sum(grad);
    EXPECT_DOUBLE_EQ(sum[0], 0.0 + 1 + 2 + 3);
    EXPECT_DOUBLE_EQ(sum[1], 8.0);
  });
}

TEST(MpiTest, AllreduceMax) {
  run_world(6, [](Comm& comm) {
    EXPECT_DOUBLE_EQ(comm.allreduce_max(static_cast<double>(comm.rank())), 5.0);
  });
}

TEST(MpiTest, ExceptionPropagatesFromRank) {
  EXPECT_THROW(run_world(2,
                         [](Comm& comm) {
                           if (comm.rank() == 1) throw std::runtime_error("rank died");
                         }),
               std::runtime_error);
}

TEST(MpiTest, SendToBadRankThrows) {
  EXPECT_THROW(
      run_world(1, [](Comm& comm) { comm.send(5, 0, {}); }), std::out_of_range);
}

TEST(MpiTest, RecvTimeoutExpiresOnInjectedClockNotWallClock) {
  util::ManualTimeSource clock;
  std::atomic<bool> timed_out{false};
  run_world(
      2,
      [&](Comm& comm) {
        if (comm.rank() == 0) {
          comm.send(1, 1, Bytes{1});  // "about to block"
          const auto m = comm.recv_timeout(1, 5, 50);
          EXPECT_FALSE(m.has_value());
          timed_out.store(true);
        } else {
          (void)comm.recv(0, 1);
          // Real time passes but virtual time doesn't: the timeout must
          // not fire on its own.
          std::this_thread::sleep_for(std::chrono::milliseconds(30));
          EXPECT_FALSE(timed_out.load());
          // Each advance exceeds the 50 ms budget, so once rank 0 has
          // entered recv_timeout its deadline is in the past.
          while (!timed_out.load()) {
            clock.advance_ms(60);
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
          }
        }
      },
      nullptr, &clock);
  EXPECT_TRUE(timed_out.load());
}

TEST(MpiTest, DelayedDeliveryMaturesWithInjectedClock) {
  fault::FaultPlan plan;
  plan.seed = 7;
  fault::MessageRule rule;
  rule.tag = 9;
  rule.delay_prob = 1.0;
  rule.delay_ms = 20;
  plan.messages.push_back(rule);
  fault::FaultInjector inj(plan);
  util::ManualTimeSource clock;
  run_world(
      2,
      [&](Comm& comm) {
        if (comm.rank() == 0) {
          comm.send(1, 9, Bytes{42});
          comm.barrier();  // message is enqueued with a future due-time
        } else {
          comm.barrier();
          // Virtual now is 0, due-time is 20 ms: not visible yet no
          // matter how much real time passes.
          EXPECT_FALSE(comm.try_recv(0, 9).has_value());
          clock.advance_ms(25);
          const auto m = comm.recv(0, 9);
          ASSERT_EQ(m.payload.size(), 1u);
          EXPECT_EQ(m.payload[0], 42);
        }
      },
      &inj, &clock);
}

// --- Posted-receive matching ------------------------------------------------
// These tests drive a World from their own threads so they can wait until a
// receive is posted (World::posted_receives) before the next step: the
// order in which receivers block is then part of the script, not of the
// scheduler.

void wait_posted(const World& world, int rank, std::size_t n) {
  for (int i = 0; i < 10000 && world.posted_receives(rank) != n; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(world.posted_receives(rank), n);
}

TEST(MpiMatchingTest, ReceiversOnOneSourceTagServedInPostingOrder) {
  World world(2);
  Bytes first, second;
  std::thread a([&] { first = world.comm(1).recv(0, 5).payload; });
  wait_posted(world, 1, 1);
  std::thread b([&] { second = world.comm(1).recv(0, 5).payload; });
  wait_posted(world, 1, 2);
  world.comm(0).send(1, 5, Bytes{1});
  world.comm(0).send(1, 5, Bytes{2});
  a.join();
  b.join();
  EXPECT_EQ(first, Bytes{1});
  EXPECT_EQ(second, Bytes{2});
  EXPECT_EQ(world.posted_receives(1), 0u);
}

TEST(MpiMatchingTest, PredicateAndSourceTagReceiversGetOnlyTheirOwn) {
  World world(2);
  std::vector<int> daemon_tags, reply_tags;
  // Daemon-style: protocol tags below 1000 until a stop tag.
  std::thread daemon([&] {
    const std::function<bool(const Message&)> is_protocol =
        [](const Message& m) { return m.tag < 1000; };
    for (;;) {
      const Message m = world.comm(1).recv_if(is_protocol);
      if (m.tag == 0) return;
      daemon_tags.push_back(m.tag);
    }
  });
  wait_posted(world, 1, 1);
  std::thread app([&] {
    for (int i = 0; i < 2; ++i) reply_tags.push_back(world.comm(1).recv(0, 2000).tag);
  });
  wait_posted(world, 1, 2);
  // The daemon is posted first; a reply must skip it for the app.
  world.comm(0).send(1, 2000, Bytes{});
  world.comm(0).send(1, 100, Bytes{});
  world.comm(0).send(1, 2000, Bytes{});
  world.comm(0).send(1, 101, Bytes{});
  app.join();
  world.comm(0).send(1, 0, Bytes{});
  daemon.join();
  EXPECT_EQ(daemon_tags, (std::vector<int>{100, 101}));
  EXPECT_EQ(reply_tags, (std::vector<int>{2000, 2000}));
}

fault::FaultInjector one_rule_injector(fault::MessageRule rule) {
  fault::FaultPlan plan;
  plan.seed = 11;
  plan.messages.push_back(rule);
  return fault::FaultInjector(plan);
}

TEST(MpiMatchingTest, DelayedMessageSurfacesForPostedReceiverAtDueTime) {
  fault::MessageRule rule;
  rule.tag = 9;
  rule.delay_prob = 1.0;
  rule.delay_ms = 20;
  fault::FaultInjector inj = one_rule_injector(rule);
  util::ManualTimeSource clock;
  World world(2, &inj, &clock);
  std::atomic<bool> got{false};
  Bytes payload;
  std::thread rx([&] {
    payload = world.comm(1).recv(0, 9).payload;
    got.store(true);
  });
  wait_posted(world, 1, 1);
  world.comm(0).send(1, 9, Bytes{42});
  // Real time passes, virtual time does not: still in flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(got.load());
  EXPECT_EQ(world.posted_receives(1), 1u);
  clock.advance_ms(25);
  rx.join();
  EXPECT_EQ(payload, Bytes{42});
  EXPECT_EQ(world.posted_receives(1), 0u);
}

TEST(MpiMatchingTest, DuplicatedMessageReachesTwoPostedReceivers) {
  fault::MessageRule rule;
  rule.tag = 9;
  rule.dup_prob = 1.0;
  fault::FaultInjector inj = one_rule_injector(rule);
  World world(2, &inj);
  Bytes a_got, b_got;
  std::thread a([&] { a_got = world.comm(1).recv(0, 9).payload; });
  wait_posted(world, 1, 1);
  std::thread b([&] { b_got = world.comm(1).recv(0, 9).payload; });
  wait_posted(world, 1, 2);
  world.comm(0).send(1, 9, Bytes{7});
  a.join();
  b.join();
  EXPECT_EQ(a_got, Bytes{7});
  EXPECT_EQ(b_got, Bytes{7});
  EXPECT_FALSE(world.comm(1).try_recv(0, 9).has_value());
}

TEST(MpiMatchingTest, ExpiredRecvTimeoutUnpostsAndNextRecvGetsTheMessage) {
  util::ManualTimeSource clock;
  World world(2, nullptr, &clock);
  std::atomic<bool> expired{false};
  std::thread a([&] {
    EXPECT_FALSE(world.comm(1).recv_timeout(0, 5, 50).has_value());
    expired.store(true);
  });
  wait_posted(world, 1, 1);
  while (!expired.load()) {
    clock.advance_ms(60);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  a.join();
  EXPECT_EQ(world.posted_receives(1), 0u);
  Bytes got;
  std::thread b([&] { got = world.comm(1).recv(0, 5).payload; });
  wait_posted(world, 1, 1);
  world.comm(0).send(1, 5, Bytes{3});
  b.join();
  EXPECT_EQ(got, Bytes{3});
}

TEST(MpiTest, LargeWorld) {
  // 128 rank-threads; validates scalability of the threading substrate.
  run_world(128, [](Comm& comm) {
    const auto all = comm.allgather(as_view(Bytes{1}));
    EXPECT_EQ(all.size(), 128u);
    comm.barrier();
  });
}

}  // namespace
}  // namespace fanstore::mpi

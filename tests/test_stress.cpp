// Concurrency stress tests: full-chip-scale jobs, repeated collectives,
// nested runtime use — the shapes the experiment sweeps rely on.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <span>
#include <vector>

#include "mp/job.hpp"
#include "rt/thread_team.hpp"

namespace fibersim {
namespace {

TEST(Stress, FortyEightRankAllreduceStorm) {
  mp::Job::run(48, [](mp::Comm& comm) {
    for (int round = 0; round < 20; ++round) {
      const double s = comm.allreduce_sum(1.0);
      ASSERT_DOUBLE_EQ(s, 48.0);
    }
  });
}

TEST(Stress, ManyRanksTimesManyThreads) {
  // 8 rank threads, each running a 6-thread logical team repeatedly: 48
  // logical threads on 8 host threads.
  mp::Job::run(8, [](mp::Comm& comm) {
    rt::ThreadTeam team(6);
    double local = 0.0;
    for (int round = 0; round < 5; ++round) {
      local += team.parallel_reduce_sum(
          0, 1000, [](std::int64_t i) { return static_cast<double>(i % 7); });
    }
    const double total = comm.allreduce_sum(local);
    // 1000 terms of i%7: 142 full cycles (0..6 = 21) plus 0+1+2+3+4+5.
    const double per_pass = 142.0 * 21.0 + 15.0;
    EXPECT_DOUBLE_EQ(total, 8.0 * 5.0 * per_pass);
  });
}

TEST(Stress, InterleavedP2pAndCollectives) {
  mp::Job::run(6, [](mp::Comm& comm) {
    const int next = (comm.rank() + 1) % comm.size();
    const int prev = (comm.rank() - 1 + comm.size()) % comm.size();
    for (int round = 0; round < 25; ++round) {
      double token = comm.rank() + round;
      double incoming = 0.0;
      comm.sendrecv<double>(next, std::span<const double>(&token, 1), prev,
                            std::span<double>(&incoming, 1), round % 100);
      ASSERT_DOUBLE_EQ(incoming, prev + round);
      ASSERT_DOUBLE_EQ(comm.allreduce_max(token),
                       comm.size() - 1.0 + round);
      std::vector<double> tokens(static_cast<std::size_t>(comm.size()));
      comm.allgather(token, std::span<double>(tokens));
      for (int r = 0; r < comm.size(); ++r) {
        ASSERT_DOUBLE_EQ(tokens[static_cast<std::size_t>(r)], r + round);
      }
    }
  });
}

TEST(Stress, TeamSurvivesThousandsOfRegions) {
  rt::ThreadTeam team(4);
  std::atomic<long> counter{0};
  for (int r = 0; r < 2000; ++r) {
    team.parallel([&](int) { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  EXPECT_EQ(counter.load(), 8000);
  EXPECT_EQ(team.regions_executed(), 2000u);
}

TEST(Stress, DynamicScheduleUnderContention) {
  rt::ThreadTeam team(8);
  std::vector<std::atomic<int>> hits(10000);
  team.parallel_for(0, 10000, rt::Schedule::kDynamic, 1,
                    [&](std::int64_t lo, std::int64_t hi, int) {
                      for (std::int64_t i = lo; i < hi; ++i) {
                        hits[static_cast<std::size_t>(i)]++;
                      }
                    });
  long total = 0;
  for (auto& h : hits) total += h.load();
  EXPECT_EQ(total, 10000);
}

TEST(Stress, LargeMessageRelay) {
  // 1 MiB payload around a 4-rank ring, 3 laps; checks buffering and copy
  // integrity for large messages.
  mp::Job::run(4, [](mp::Comm& comm) {
    const std::size_t n = (1 << 20) / sizeof(double);
    std::vector<double> buf(n);
    if (comm.rank() == 0) {
      std::iota(buf.begin(), buf.end(), 0.0);
      for (int lap = 0; lap < 3; ++lap) {
        comm.send(1, lap, std::span<const double>(buf));
        comm.recv(3, lap, std::span<double>(buf));
      }
      // Ranks 1..3 each add 1 per lap: +3 per lap, 3 laps.
      for (std::size_t i = 0; i < n; i += 4097) {
        ASSERT_DOUBLE_EQ(buf[i], static_cast<double>(i) + 9.0);
      }
    } else {
      for (int lap = 0; lap < 3; ++lap) {
        comm.recv(comm.rank() - 1, lap, std::span<double>(buf));
        for (double& v : buf) v += 1.0;
        comm.send((comm.rank() + 1) % 4, lap, std::span<const double>(buf));
      }
    }
  });
}

}  // namespace
}  // namespace fibersim

// Randomised (seeded, deterministic) differential tests of the collectives:
// every result is checked against an independently computed serial
// reference, across random payload sizes, rank counts and value patterns —
// plus fault-plan-driven chaos runs asserting unwind-without-deadlock.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "miniapps/halo_grid.hpp"
#include "mp/cart.hpp"
#include "mp/job.hpp"

namespace fibersim::mp {
namespace {

/// Deterministic per-(seed, rank, index) payload value.
double element(std::uint64_t seed, int rank, std::size_t index) {
  Xoshiro256 rng(seed, static_cast<std::uint64_t>(rank) * 1000003 + index);
  return rng.uniform(-100.0, 100.0);
}

class CollectiveFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CollectiveFuzz, AllreduceMatchesSerialReference) {
  const std::uint64_t seed = GetParam();
  Xoshiro256 shape_rng(seed, 999);
  const int ranks = 1 + static_cast<int>(shape_rng.bounded(9));
  const std::size_t len = 1 + shape_rng.bounded(257);

  // The sum a binomial reduce to rank 0 forms: acc[r] += acc[r + mask] for
  // rising mask. The allreduce must reproduce its bits, not just its value.
  std::vector<std::vector<double>> acc(static_cast<std::size_t>(ranks),
                                       std::vector<double>(len));
  for (int r = 0; r < ranks; ++r) {
    for (std::size_t i = 0; i < len; ++i) {
      acc[static_cast<std::size_t>(r)][i] = element(seed, r, i);
    }
  }
  for (int mask = 1; mask < ranks; mask <<= 1) {
    for (int r = 0; r + mask < ranks; r += 2 * mask) {
      for (std::size_t i = 0; i < len; ++i) {
        acc[static_cast<std::size_t>(r)][i] +=
            acc[static_cast<std::size_t>(r + mask)][i];
      }
    }
  }
  const std::vector<double>& expected = acc[0];

  Job::run(ranks, [&](Comm& comm) {
    std::vector<double> data(len);
    for (std::size_t i = 0; i < len; ++i) {
      data[i] = element(seed, comm.rank(), i);
    }
    comm.allreduce_sum(std::span<double>(data));
    ASSERT_EQ(std::memcmp(data.data(), expected.data(), len * sizeof(double)),
              0)
        << "rank " << comm.rank();
  });
}

TEST_P(CollectiveFuzz, AllgatherAssemblesEveryBlockInOrder) {
  const std::uint64_t seed = GetParam();
  Xoshiro256 shape_rng(seed, 555);
  const int ranks = 1 + static_cast<int>(shape_rng.bounded(7));
  const std::size_t block = 1 + shape_rng.bounded(100);

  Job::run(ranks, [&](Comm& comm) {
    std::vector<double> mine(block);
    for (std::size_t i = 0; i < block; ++i) {
      mine[i] = element(seed, comm.rank(), i);
    }
    std::vector<double> all(block * static_cast<std::size_t>(ranks), -1.0);
    comm.allgather_bytes(mine.data(), block * sizeof(double), all.data());
    for (int r = 0; r < ranks; ++r) {
      for (std::size_t i = 0; i < block; ++i) {
        ASSERT_DOUBLE_EQ(all[static_cast<std::size_t>(r) * block + i],
                         element(seed, r, i));
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, CollectiveFuzz,
                         ::testing::Range<std::uint64_t>(1, 13));

// ----- fault-plan-driven chaos runs ---------------------------------------
//
// Each run wires a fault::Session into a 4-rank job exercising p2p rings,
// collectives and a 2x2 cart halo exchange. The contract under injected
// drop/delay/dup/rank-death is narrow on purpose: the job either completes
// or unwinds with an Error — it must never hang (a dropped message stalls
// the job, which then fails at once as a typed deadlock) — and the runtime
// must stay fully usable afterwards.

/// One mixed workload over the communication the miniapps use: p2p rings,
/// allreduces, a cart halo exchange and an allgather.
void chaos_workload(Comm& comm, std::uint64_t seed) {
  const int ranks = comm.size();
  const int next = (comm.rank() + 1) % ranks;
  const int prev = (comm.rank() + ranks - 1) % ranks;
  for (int round = 0; round < 3; ++round) {
    comm.send_value(next, round, element(seed, comm.rank(), 0));
    (void)comm.recv_value<double>(prev, round);
    (void)comm.allreduce_sum(1.0);
    (void)comm.allreduce_max(element(seed, comm.rank(), 2));
  }
  const CartGrid grid({2, 2}, true);
  const apps::HaloGrid<2> hg(grid, comm.rank(), {6, 6}, 1);
  std::vector<double> field(static_cast<std::size_t>(hg.field_size(1)), 1.0);
  for (int i = 0; i < 3; ++i) {
    hg.exchange(comm, std::span<double>(field), 1);
  }
  std::vector<double> block(4, element(seed, comm.rank(), 1));
  std::vector<double> gathered(block.size() * static_cast<std::size_t>(ranks));
  comm.allgather_bytes(block.data(), block.size() * sizeof(double),
                       gathered.data());
}

class FaultFuzz
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(FaultFuzz, InjectedFaultsUnwindWithoutDeadlock) {
  const auto [seed, kind] = GetParam();
  fault::Plan plan;
  plan.seed = seed;
  switch (kind) {
    case 0: plan.mp_drop = 0.05; break;
    case 1: plan.mp_delay = 0.3; plan.mp_delay_ms = 0.5; break;
    case 2: plan.mp_dup = 0.1; break;
    case 3: plan.mp_rank_death = 0.01; break;
    default: FAIL();
  }
  const fault::Session session(std::make_shared<fault::Plan>(plan), seed, 0);
  try {
    Job::run(4, [seed](Comm& comm) { chaos_workload(comm, seed); }, &session);
  } catch (const Error&) {
    // Unwound cleanly — acceptable under injected faults.
  }
  // The runtime must be intact: a fresh fault-free job works normally.
  Job::run(4, [](Comm& comm) {
    ASSERT_DOUBLE_EQ(comm.allreduce_sum(1.0), 4.0);
  });
}

TEST_P(FaultFuzz, DisarmedSessionPerturbsNothing) {
  const auto [seed, kind] = GetParam();
  fault::Plan plan;
  plan.seed = seed;
  plan.transient = 1;  // armed only for attempt 0
  plan.mp_drop = 1.0;
  plan.mp_rank_death = 1.0;
  (void)kind;
  const fault::Session retry(std::make_shared<fault::Plan>(plan), seed, 1);
  ASSERT_FALSE(retry.armed());
  Job::run(4, [seed](Comm& comm) { chaos_workload(comm, seed); }, &retry);
}

INSTANTIATE_TEST_SUITE_P(
    PlansAndSeeds, FaultFuzz,
    ::testing::Combine(::testing::Range<std::uint64_t>(1, 7),
                       ::testing::Values(0, 1, 2, 3)));

}  // namespace
}  // namespace fibersim::mp

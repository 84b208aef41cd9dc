// Unit and property tests for the message-passing runtime: point-to-point
// semantics, collectives and their rendezvous (full and collapsed folds,
// mismatch errors, unwinding, deadlock reports), traffic logging, fiber
// scheduling (determinism, stack depth), Cartesian grids.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "fault/fault.hpp"
#include "miniapps/miniapp.hpp"
#include "mp/cart.hpp"
#include "mp/job.hpp"
#include "mp/mailbox.hpp"
#include "mp/symmetry.hpp"
#include "rt/thread_team.hpp"
#include "trace/recorder.hpp"

namespace fibersim::mp {
namespace {

TEST(Job, SingleRankRuns) {
  int visits = 0;
  Job::run(1, [&](Comm& comm) {
    EXPECT_EQ(comm.rank(), 0);
    EXPECT_EQ(comm.size(), 1);
    ++visits;
  });
  EXPECT_EQ(visits, 1);
}

TEST(Job, RejectsBadArguments) {
  EXPECT_THROW(Job::run(0, [](Comm&) {}), Error);
  EXPECT_THROW(Job::run(2, Job::RankFn{}), Error);
}

TEST(P2p, SendRecvValue) {
  Job::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 5, 12345);
    } else {
      EXPECT_EQ(comm.recv_value<int>(0, 5), 12345);
    }
  });
}

TEST(P2p, FifoOrderingPerSourceAndTag) {
  Job::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 20; ++i) comm.send_value(1, 3, i);
    } else {
      for (int i = 0; i < 20; ++i) {
        EXPECT_EQ(comm.recv_value<int>(0, 3), i);
      }
    }
  });
}

TEST(P2p, TagSelectsMessage) {
  Job::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 1, 100);
      comm.send_value(1, 2, 200);
    } else {
      // Receive in reverse tag order.
      EXPECT_EQ(comm.recv_value<int>(0, 2), 200);
      EXPECT_EQ(comm.recv_value<int>(0, 1), 100);
    }
  });
}

TEST(P2p, AnySourceAndAnyTag) {
  Job::run(3, [](Comm& comm) {
    if (comm.rank() != 0) {
      comm.send_value(0, comm.rank(), comm.rank() * 10);
    } else {
      int sum = 0;
      sum += comm.recv_value<int>(kAnySource, kAnyTag);
      sum += comm.recv_value<int>(kAnySource, kAnyTag);
      EXPECT_EQ(sum, 30);
    }
  });
}

TEST(P2p, SizeMismatchIsError) {
  EXPECT_THROW(Job::run(2,
                        [](Comm& comm) {
                          if (comm.rank() == 0) {
                            comm.send_value(1, 0, 1.0);  // 8 bytes
                          } else {
                            (void)comm.recv_value<int>(0, 0);  // 4 bytes
                          }
                        }),
               Error);
}

TEST(P2p, SendrecvExchangesSymmetrically) {
  Job::run(2, [](Comm& comm) {
    std::vector<double> mine(8, static_cast<double>(comm.rank()));
    std::vector<double> theirs(8, -1.0);
    const int peer = 1 - comm.rank();
    comm.sendrecv<double>(peer, std::span<const double>(mine), peer,
                          std::span<double>(theirs));
    for (double v : theirs) {
      EXPECT_DOUBLE_EQ(v, static_cast<double>(peer));
    }
  });
}

TEST(P2p, SelfSendIsLegal) {
  Job::run(1, [](Comm& comm) {
    comm.send_value(0, 9, 77);
    EXPECT_EQ(comm.recv_value<int>(0, 9), 77);
  });
}

TEST(P2p, ProbeSeesQueuedMessage) {
  Job::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 4, 1);
      (void)comm.allreduce_sum(0.0);
    } else {
      (void)comm.allreduce_sum(0.0);  // after this the message is queued
      EXPECT_TRUE(comm.probe(0, 4));
      EXPECT_FALSE(comm.probe(0, 5));
      (void)comm.recv_value<int>(0, 4);
    }
  });
}

TEST(P2p, RejectsNegativeTags) {
  EXPECT_THROW(Job::run(1, [](Comm& comm) { comm.send_value(0, -3, 1); }),
               Error);
}

TEST(Job, ExceptionInOneRankUnblocksOthers) {
  EXPECT_THROW(Job::run(3,
                        [](Comm& comm) {
                          if (comm.rank() == 0) {
                            throw Error("rank 0 died");
                          }
                          // These ranks block forever unless poisoned.
                          (void)comm.recv_value<int>(0, 0);
                        }),
               Error);
}

// ----- collectives, parameterised over communicator size -----

class CollectiveTest : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveTest, AllreduceSumAndMax) {
  const int n = GetParam();
  Job::run(n, [n](Comm& comm) {
    const double r = comm.rank();
    EXPECT_DOUBLE_EQ(comm.allreduce_sum(r), n * (n - 1) / 2.0);
    EXPECT_DOUBLE_EQ(comm.allreduce_max(r), n - 1.0);
    EXPECT_EQ(comm.allreduce_sum_u64(2), static_cast<std::uint64_t>(2 * n));
  });
}

TEST_P(CollectiveTest, AllreduceVector) {
  const int n = GetParam();
  Job::run(n, [n](Comm& comm) {
    std::vector<double> v{1.0, static_cast<double>(comm.rank()), -2.0};
    comm.allreduce_sum(std::span<double>(v));
    EXPECT_DOUBLE_EQ(v[0], n);
    EXPECT_DOUBLE_EQ(v[1], n * (n - 1) / 2.0);
    EXPECT_DOUBLE_EQ(v[2], -2.0 * n);
  });
}

TEST_P(CollectiveTest, AllgatherInRankOrder) {
  const int n = GetParam();
  Job::run(n, [n](Comm& comm) {
    const double mine = comm.rank() * 1.5;
    std::vector<double> all(static_cast<std::size_t>(n), -1.0);
    comm.allgather(mine, std::span<double>(all));
    for (int r = 0; r < n; ++r) {
      EXPECT_DOUBLE_EQ(all[static_cast<std::size_t>(r)], r * 1.5);
    }
  });
}

TEST_P(CollectiveTest, BackToBackCollectivesDoNotCrossMatch) {
  const int n = GetParam();
  Job::run(n, [n](Comm& comm) {
    for (int round = 0; round < 10; ++round) {
      const double s = comm.allreduce_sum(1.0);
      EXPECT_DOUBLE_EQ(s, n);
      const int v = comm.rank() + round;
      std::vector<int> all(static_cast<std::size_t>(n));
      comm.allgather(v, std::span<int>(all));
      for (int r = 0; r < n; ++r) {
        EXPECT_EQ(all[static_cast<std::size_t>(r)], r + round);
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, CollectiveTest,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 9, 16));

// ----- the collective rendezvous -----

TEST(Rendezvous, CollapsedFoldsMatchTheWeightedSerialReference) {
  // 7 ranks split 10 elements cyclically and 12 in blocks: classes {0,1,2},
  // {3,4}, {5,6}, represented by ranks 0, 3 and 5.
  CollapseSpec spec;
  spec.kind = CollapseSpec::Kind::kCounts;
  spec.cyclic_total = 10;
  spec.block_total = 12;
  const RankSymmetry sym = RankSymmetry::build(spec, 7);
  ASSERT_EQ(sym.classes(), 3);
  ASSERT_EQ(sym.weight(0), 3);

  // Inexact values, so any other fold order would move the low bits.
  constexpr std::size_t kLen = 5;
  const auto value = [](int rank, std::size_t i) {
    return 0.1 * (rank + 1) + 1.0 / (3.0 + static_cast<double>(i));
  };
  // w0*v0 + w1*v1 + ... in ascending class order; max in class order.
  std::vector<double> sum(kLen);
  for (std::size_t i = 0; i < kLen; ++i) {
    sum[i] = value(sym.representative(0), i) *
             static_cast<double>(sym.weight(0));
    for (int c = 1; c < sym.classes(); ++c) {
      sum[i] += static_cast<double>(sym.weight(c)) *
                value(sym.representative(c), i);
    }
  }
  double max = -value(sym.representative(0), 0);
  double count = static_cast<double>(sym.representative(0) + 1) *
                 static_cast<double>(sym.weight(0));
  for (int c = 1; c < sym.classes(); ++c) {
    max = std::max(max, -value(sym.representative(c), 0));
    count += static_cast<double>(sym.weight(c)) *
             static_cast<double>(sym.representative(c) + 1);
  }
  // Virtual rank v's block is its class representative's.
  std::vector<double> gathered(static_cast<std::size_t>(sym.size()));
  for (int v = 0; v < sym.size(); ++v) {
    gathered[static_cast<std::size_t>(v)] =
        value(sym.representative(sym.class_of(v)), 0);
  }

  const std::vector<CommLog> logs =
      Job::run_collapsed(sym, [&](Comm& comm) {
        EXPECT_EQ(comm.size(), 7);
        std::vector<double> data(kLen);
        for (std::size_t i = 0; i < kLen; ++i) data[i] = value(comm.rank(), i);
        comm.allreduce_sum(std::span<double>(data));
        EXPECT_EQ(std::memcmp(data.data(), sum.data(), kLen * sizeof(double)),
                  0)
            << "rank " << comm.rank();
        EXPECT_EQ(std::bit_cast<std::uint64_t>(
                      comm.allreduce_max(-value(comm.rank(), 0))),
                  std::bit_cast<std::uint64_t>(max));
        EXPECT_EQ(comm.allreduce_sum_u64(
                      static_cast<std::uint64_t>(comm.rank() + 1)),
                  static_cast<std::uint64_t>(count));
        std::vector<double> all(static_cast<std::size_t>(comm.size()));
        comm.allgather(value(comm.rank(), 0), std::span<double>(all));
        EXPECT_EQ(std::memcmp(all.data(), gathered.data(),
                              all.size() * sizeof(double)),
                  0)
            << "rank " << comm.rank();
      });
  // Each slot logs what each of its class's ranks would log in a full run.
  ASSERT_EQ(logs.size(), 3u);
  for (const CommLog& log : logs) {
    EXPECT_EQ(log.collectives.at(CollectiveKind::kAllreduce).calls, 3u);
    EXPECT_EQ(log.collectives.at(CollectiveKind::kAllreduce).bytes,
              kLen * sizeof(double) + 2 * sizeof(double));
    EXPECT_EQ(log.collectives.at(CollectiveKind::kAllgather).bytes,
              sizeof(double));
  }
}

TEST(Rendezvous, MismatchedCollectivesFailTypedNamingBothRanks) {
  const auto failure = [](const Job::RankFn& fn) {
    try {
      Job::run(3, fn);
    } catch (const Error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  // Different collectives with the same byte count.
  const std::string kind = failure([](Comm& comm) {
    if (comm.rank() == 2) {
      std::vector<double> all(3);
      comm.allgather(1.0, std::span<double>(all));
    } else {
      (void)comm.allreduce_sum(1.0);
    }
  });
  EXPECT_EQ(fault::classify(kind), fault::ErrorClass::kOther) << kind;
  EXPECT_NE(kind.find("collective mismatch: rank 0 entered allreduce_sum of "
                      "8 bytes, rank 2 entered allgather of 8 bytes"),
            std::string::npos)
      << kind;
  // The same collective with different byte counts.
  const std::string size = failure([](Comm& comm) {
    std::vector<double> v(comm.rank() == 1 ? 2 : 1, 1.0);
    comm.allreduce_sum(std::span<double>(v));
  });
  EXPECT_NE(size.find("rank 0 entered allreduce_sum of 8 bytes, rank 1 "
                      "entered allreduce_sum of 16 bytes"),
            std::string::npos)
      << size;
}

TEST(Rendezvous, ThrowingRankUnwindsThePeersParkedInACollective) {
  constexpr int kRanks = 6;
  int poisoned = 0;
  try {
    Job::run(kRanks, [&](Comm& comm) {
      if (comm.rank() == 3) throw Error("rank 3 failed");
      try {
        (void)comm.allreduce_sum(1.0);  // rank 3 never arrives
      } catch (const Error& e) {
        if (fault::classify(e.what()) == fault::ErrorClass::kPoison) {
          ++poisoned;
        }
        throw;
      }
    });
    FAIL() << "expected the job to rethrow";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "rank 3 failed");
  }
  EXPECT_EQ(poisoned, kRanks - 1);
}

TEST(Rendezvous, DeadlockNamesCollectiveAndReceiveWaiters) {
  try {
    Job::run(2, [](Comm& comm) {
      (void)comm.allreduce_sum(1.0);
      if (comm.rank() == 0) {
        (void)comm.allreduce_sum(2.0);  // rank 1 never joins
      } else {
        (void)comm.recv_value<int>(0, 3);  // rank 0 never sends
      }
    });
    FAIL() << "expected a deadlock error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_EQ(fault::classify(what), fault::ErrorClass::kTimeout) << what;
    EXPECT_NE(what.find("rank 0 allreduce(call 2)"), std::string::npos)
        << what;
    EXPECT_NE(what.find("rank 1 recv(src=0, tag=3)"), std::string::npos)
        << what;
  }
}

// ----- mailbox matching (the indexed buckets behind send/recv) -----

namespace mbox {

Message make(int source, int tag, int value) {
  Message m;
  m.source = source;
  m.tag = tag;
  const auto* bytes = reinterpret_cast<const std::byte*>(&value);
  m.payload.assign(bytes, bytes + sizeof(int));
  return m;
}

int value_of(const Message& m) {
  int v = 0;
  std::memcpy(&v, m.payload.data(), sizeof(int));
  return v;
}

}  // namespace mbox

TEST(Mailbox, ExactMatchSkipsOtherKeys) {
  Mailbox box;
  box.push(mbox::make(0, 1, 10));
  box.push(mbox::make(1, 1, 20));
  box.push(mbox::make(0, 2, 30));
  EXPECT_EQ(mbox::value_of(box.pop(0, 2)), 30);
  EXPECT_EQ(mbox::value_of(box.pop(1, 1)), 20);
  EXPECT_EQ(mbox::value_of(box.pop(0, 1)), 10);
  EXPECT_EQ(box.pending(), 0u);
}

TEST(Mailbox, AnySourceAnyTagFollowsArrivalOrderAcrossBuckets) {
  Mailbox box;
  box.push(mbox::make(2, 7, 1));
  box.push(mbox::make(0, 3, 2));
  box.push(mbox::make(2, 7, 3));
  box.push(mbox::make(1, 7, 4));
  for (int want : {1, 2, 3, 4}) {
    EXPECT_EQ(mbox::value_of(box.pop(kAnySource, kAnyTag)), want);
  }
}

TEST(Mailbox, AnySourceFixedTagOldestFirst) {
  Mailbox box;
  box.push(mbox::make(3, 9, 1));
  box.push(mbox::make(1, 5, 2));
  box.push(mbox::make(0, 9, 3));
  EXPECT_EQ(mbox::value_of(box.pop(kAnySource, 9)), 1);  // not source order
  EXPECT_EQ(mbox::value_of(box.pop(kAnySource, 9)), 3);
  EXPECT_EQ(mbox::value_of(box.pop(1, kAnyTag)), 2);
}

TEST(Mailbox, FixedSourceAnyTagOldestFirst) {
  Mailbox box;
  box.push(mbox::make(1, 8, 1));
  box.push(mbox::make(1, 2, 2));
  box.push(mbox::make(0, 1, 99));
  EXPECT_EQ(mbox::value_of(box.pop(1, kAnyTag)), 1);
  EXPECT_EQ(mbox::value_of(box.pop(1, kAnyTag)), 2);
  EXPECT_TRUE(box.probe(0, 1));
  EXPECT_FALSE(box.probe(1, kAnyTag));
  EXPECT_TRUE(box.probe(kAnySource, kAnyTag));
}

TEST(Mailbox, ContendedAnySourceAnyTagStress) {
  // Many producer ranks, several distinct (source, tag) streams, consumer
  // ranks draining with wildcards: every message must arrive exactly once
  // and per-stream FIFO order must hold. Producers send in bursts gated by
  // a credit from each consumer, so both sides park and wake many times.
  constexpr int kConsumers = 4;
  constexpr int kProducers = 6;
  constexpr int kPerProducer = 500;
  constexpr int kBurst = 25;
  constexpr int kCreditTag = 99;
  // seen[consumer][producer]: values in arrival order.
  std::vector<std::vector<std::vector<int>>> seen(
      kConsumers, std::vector<std::vector<int>>(kProducers));
  Job::run(kConsumers + kProducers, [&](Comm& comm) {
    if (comm.rank() >= kConsumers) {
      const int p = comm.rank() - kConsumers;
      for (int i = 0; i < kPerProducer; ++i) {
        if (i % kBurst == 0) {
          for (int c = 0; c < kConsumers; ++c) {
            (void)comm.recv_value<int>(c, kCreditTag);
          }
        }
        comm.send_value(i % kConsumers, p % 3, p * kPerProducer + i);
      }
      return;
    }
    const int c = comm.rank();
    const int bursts = kPerProducer / kBurst;
    for (int b = 0; b < bursts; ++b) {
      for (int p = 0; p < kProducers; ++p) {
        comm.send_value(kConsumers + p, kCreditTag, b);
      }
      // This consumer's share of each producer's burst: the indices i with
      // i % kConsumers == c.
      int expected = 0;
      for (int i = b * kBurst; i < (b + 1) * kBurst; ++i) {
        if (i % kConsumers == c) ++expected;
      }
      for (int k = 0; k < expected * kProducers; ++k) {
        const int v = comm.recv_value<int>(kAnySource, kAnyTag);
        seen[static_cast<std::size_t>(c)]
            [static_cast<std::size_t>(v / kPerProducer)]
                .push_back(v);
      }
    }
  });

  for (int p = 0; p < kProducers; ++p) {
    std::vector<int> all;
    for (int c = 0; c < kConsumers; ++c) {
      const auto& vals =
          seen[static_cast<std::size_t>(c)][static_cast<std::size_t>(p)];
      // One (source, tag) stream per producer and consumer: strict FIFO.
      EXPECT_TRUE(std::is_sorted(vals.begin(), vals.end()))
          << "consumer " << c << " producer " << p;
      all.insert(all.end(), vals.begin(), vals.end());
    }
    ASSERT_EQ(all.size(), static_cast<std::size_t>(kPerProducer));
    std::sort(all.begin(), all.end());
    for (int i = 0; i < kPerProducer; ++i) {
      EXPECT_EQ(all[static_cast<std::size_t>(i)], p * kPerProducer + i);
    }
  }
}

TEST(Mailbox, ContendedExactMatchStress) {
  // One producer rank per (source, tag) stream; the consumer rank pops the
  // streams by exact key in round-robin order, parking whenever the stream
  // it wants has not been produced yet — the indexed hot path.
  constexpr int kStreams = 5;
  constexpr int kPerStream = 400;
  constexpr int kBurst = 40;
  constexpr int kCreditTag = 99;
  Job::run(kStreams + 1, [&](Comm& comm) {
    if (comm.rank() > 0) {
      const int s = comm.rank();
      for (int i = 0; i < kPerStream; ++i) {
        if (i % kBurst == 0) (void)comm.recv_value<int>(0, kCreditTag);
        comm.send_value(0, s + 10, i);
      }
      return;
    }
    for (int i = 0; i < kPerStream; ++i) {
      if (i % kBurst == 0) {
        for (int s = 1; s <= kStreams; ++s) comm.send_value(s, kCreditTag, i);
      }
      for (int s = 1; s <= kStreams; ++s) {
        EXPECT_EQ(comm.recv_value<int>(s, s + 10), i);  // strict FIFO
      }
    }
  });
}

TEST(Mailbox, PoisonUnblocksWildcardWaiter) {
  bool waiter_unwound = false;
  try {
    Job::run(2, [&](Comm& comm) {
      if (comm.rank() == 1) throw Error("rank 1 failed");
      try {
        (void)comm.recv_value<int>(kAnySource, kAnyTag);
      } catch (const Error& e) {
        waiter_unwound =
            std::string(e.what()).find("poisoned") != std::string::npos;
        throw;
      }
    });
    FAIL() << "expected the job to rethrow";
  } catch (const Error& e) {
    // The root cause wins over the poison unwind it caused.
    EXPECT_STREQ(e.what(), "rank 1 failed");
  }
  EXPECT_TRUE(waiter_unwound);

  Mailbox box;
  box.poison();
  EXPECT_THROW((void)box.pop(0, 0), Error);
  // A message queued after the poison is still delivered.
  box.push(mbox::make(0, 7, 1));
  EXPECT_EQ(box.pop(0, 7).tag, 7);
  EXPECT_THROW((void)box.pop(0, 7), Error);
}

TEST(Mailbox, PopWithNoMatchOutsideAJobThrows) {
  Mailbox box;
  EXPECT_THROW((void)box.pop(0, 0), Error);
}

// ----- fiber scheduling -----

TEST(Fibers, ReceiveCycleThrowsTypedDeadlockAtOnce) {
  const auto start = std::chrono::steady_clock::now();
  try {
    Job::run(2, [](Comm& comm) {
      const int peer = 1 - comm.rank();
      (void)comm.recv_value<int>(peer, 7 + comm.rank());
    });
    FAIL() << "expected a deadlock error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_EQ(fault::classify(what), fault::ErrorClass::kTimeout) << what;
    EXPECT_NE(what.find("deadlock"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 0 recv(src=1, tag=7)"), std::string::npos)
        << what;
    EXPECT_NE(what.find("rank 1 recv(src=0, tag=8)"), std::string::npos)
        << what;
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(50));
}

TEST(Fibers, ScheduleIsDeterministicAndOnTheCallersThread) {
  constexpr int kRanks = 8;
  const std::thread::id caller = std::this_thread::get_id();
  const auto trace_once = [&] {
    std::vector<std::pair<int, int>> events;  // (rank, step)
    bool on_caller = true;
    Job::run(kRanks, [&](Comm& comm) {
      const int r = comm.rank();
      const int next = (r + 1) % kRanks;
      const int prev = (r + kRanks - 1) % kRanks;
      for (int step = 0; step < 6; ++step) {
        on_caller = on_caller && std::this_thread::get_id() == caller;
        events.emplace_back(r, step);
        if (r % 2 == step % 2) comm.send_value(next, step, r);
        if (prev % 2 == step % 2) (void)comm.recv_value<int>(prev, step);
        if (step == 3) (void)comm.allreduce_sum(1.0);
      }
    });
    EXPECT_TRUE(on_caller);
    return events;
  };
  const auto first = trace_once();
  ASSERT_EQ(first.size(), static_cast<std::size_t>(kRanks * 6));
  for (int run = 1; run < 100; ++run) {
    ASSERT_EQ(trace_once(), first) << "run " << run;
  }
}

TEST(Fibers, MaximumWidthJobCompletes) {
  constexpr int kRanks = 4096;
  int finished = 0;
  Job::run(kRanks, [&](Comm& comm) {
    const int next = (comm.rank() + 1) % kRanks;
    const int prev = (comm.rank() + kRanks - 1) % kRanks;
    comm.send_value(next, 0, comm.rank());
    EXPECT_EQ(comm.recv_value<int>(prev, 0), prev);
    EXPECT_DOUBLE_EQ(comm.allreduce_sum(1.0), kRanks);
    ++finished;
  });
  EXPECT_EQ(finished, kRanks);
}

TEST(Fibers, ThrowingRankUnwindsItsParkedPeers) {
  constexpr int kRanks = 6;
  struct Guard {
    int* count;
    ~Guard() { ++*count; }
  };
  int unwound = 0;
  try {
    Job::run(kRanks, [&](Comm& comm) {
      if (comm.rank() == 2) throw Error("rank 2 failed");
      const Guard guard{&unwound};
      // Parks forever: rank 2 never sends.
      (void)comm.recv_value<int>(2, 0);
    });
    FAIL() << "expected the job to rethrow";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "rank 2 failed");
  }
  EXPECT_EQ(unwound, kRanks - 1);
}

TEST(Fibers, MiniappStacksStayUnderHalfTheirSize) {
  // Measured on a fresh host thread, whose stack pool starts empty: the
  // deepest page any rank of any app touched at 48x1 and 4x12.
  std::size_t high_water = 0;
  std::thread probe([&] {
    for (const std::string& name : apps::registry_names()) {
      for (const auto& [ranks, threads] :
           std::vector<std::pair<int, int>>{{48, 1}, {4, 12}}) {
        Job::run(ranks, [&](Comm& comm) {
          rt::ThreadTeam team(threads);
          trace::Recorder recorder(&comm);
          apps::RunContext ctx;
          ctx.comm = &comm;
          ctx.team = &team;
          ctx.recorder = &recorder;
          ctx.dataset = apps::Dataset::kSmall;
          ctx.iterations = 1;
          (void)apps::create_miniapp(name)->run(ctx);
        });
      }
    }
    high_water = Job::stack_high_water();
  });
  probe.join();
  RecordProperty("stack_high_water", static_cast<int>(high_water));
  std::printf("fiber stack high-water mark: %zu of %zu bytes\n", high_water,
              Job::stack_bytes());
  EXPECT_GT(high_water, 0u);
  EXPECT_LE(high_water, Job::stack_bytes() / 2);
}

// ----- comm log -----

TEST(CommLog, RecordsP2pPerPeer) {
  auto logs = Job::run_logged(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 0, 1.0);
      comm.send_value(1, 0, 2.0);
    } else {
      (void)comm.recv_value<double>(0, 0);
      (void)comm.recv_value<double>(0, 0);
    }
  });
  EXPECT_EQ(logs[0].total_p2p_messages(), 2u);
  EXPECT_EQ(logs[0].total_p2p_bytes(), 16u);
  EXPECT_EQ(logs[1].total_p2p_messages(), 0u);
  EXPECT_EQ(logs[0].sends.at(1).messages, 2u);
}

TEST(CommLog, CollectivesAreNotDoubleCountedAsP2p) {
  auto logs = Job::run_logged(4, [](Comm& comm) {
    (void)comm.allreduce_sum(1.0);
    std::vector<double> all(4);
    comm.allgather(1.0, std::span<double>(all));
  });
  for (const auto& log : logs) {
    EXPECT_EQ(log.total_p2p_messages(), 0u);
    EXPECT_EQ(log.collectives.at(CollectiveKind::kAllreduce).calls, 1u);
    EXPECT_EQ(log.collectives.at(CollectiveKind::kAllgather).calls, 1u);
    EXPECT_EQ(log.collectives.at(CollectiveKind::kAllgather).bytes, 8u);
  }
}

TEST(CommLog, DiffComputesDeltas) {
  CommLog before;
  before.record_send(1, 100);
  before.record_collective(CollectiveKind::kBcast, 64);
  CommLog after = before;
  after.record_send(1, 50);
  after.record_send(2, 10);
  after.record_collective(CollectiveKind::kBcast, 64);
  const CommLog delta = after.diff(before);
  EXPECT_EQ(delta.sends.at(1).bytes, 50u);
  EXPECT_EQ(delta.sends.at(2).messages, 1u);
  EXPECT_EQ(delta.collectives.at(CollectiveKind::kBcast).calls, 1u);
  EXPECT_EQ(delta.sends.count(0), 0u);
}

TEST(CommLog, SummaryMentionsTraffic) {
  CommLog log;
  log.record_send(3, 256);
  log.record_collective(CollectiveKind::kAlltoall, 1024);
  const std::string s = log.summary();
  EXPECT_NE(s.find("p2p"), std::string::npos);
  EXPECT_NE(s.find("alltoall"), std::string::npos);
}

// ----- Cartesian grids -----

TEST(Cart, DimsCreateBalancedFactorisation) {
  for (int size : {1, 2, 4, 6, 8, 12, 16, 24, 36, 48, 60, 64, 97}) {
    for (int nd : {1, 2, 3, 4}) {
      const auto dims = dims_create(size, nd);
      ASSERT_EQ(static_cast<int>(dims.size()), nd);
      int prod = 1;
      for (int d : dims) prod *= d;
      EXPECT_EQ(prod, size) << size << " over " << nd;
      EXPECT_TRUE(std::is_sorted(dims.rbegin(), dims.rend()));
    }
  }
}

TEST(Cart, DimsCreate48Over4IsBalanced) {
  const auto dims = dims_create(48, 4);
  // 48 = 2^4 * 3: most balanced 4-way split has max dimension <= 4.
  EXPECT_LE(dims[0], 4);
}

TEST(Cart, CoordsRoundTrip) {
  const CartGrid grid({3, 4, 2}, false);
  for (int r = 0; r < grid.size(); ++r) {
    const auto coords = grid.coords_of(r);
    EXPECT_EQ(grid.rank_of(coords), r);
  }
}

TEST(Cart, NonPeriodicBoundaryIsMinusOne) {
  const CartGrid grid({2, 2}, false);
  EXPECT_EQ(grid.neighbor(0, 0, -1), -1);
  EXPECT_EQ(grid.neighbor(3, 1, +1), -1);
  EXPECT_EQ(grid.neighbor(0, 0, +1), 2);
}

TEST(Cart, PeriodicWrapsAround) {
  const CartGrid grid({3}, true);
  EXPECT_EQ(grid.neighbor(0, 0, -1), 2);
  EXPECT_EQ(grid.neighbor(2, 0, +1), 0);
}

TEST(Cart, NeighborsAreMutual) {
  const CartGrid grid({4, 3}, true);
  for (int r = 0; r < grid.size(); ++r) {
    for (int d = 0; d < grid.ndims(); ++d) {
      const int fwd = grid.neighbor(r, d, +1);
      ASSERT_GE(fwd, 0);
      EXPECT_EQ(grid.neighbor(fwd, d, -1), r);
    }
  }
}

TEST(Cart, Validation) {
  EXPECT_THROW(CartGrid({0}, false), Error);
  EXPECT_THROW(dims_create(0, 2), Error);
  const CartGrid grid({2, 2}, false);
  EXPECT_THROW(grid.coords_of(4), Error);
  EXPECT_THROW(grid.neighbor(0, 2, 1), Error);
  EXPECT_THROW(grid.neighbor(0, 0, 2), Error);
}

}  // namespace
}  // namespace fibersim::mp

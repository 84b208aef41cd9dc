// Unit and property tests for the machine models: processor configs, cache
// locality, execution, communication cost, power, roofline.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "machine/calibrate.hpp"
#include "machine/comm_model.hpp"
#include "machine/descriptor.hpp"
#include "machine/exec_model.hpp"
#include "machine/memory_model.hpp"
#include "machine/power_model.hpp"
#include "machine/processor.hpp"
#include "machine/registry.hpp"
#include "machine/roofline.hpp"

namespace fibersim::machine {
namespace {

TEST(Processor, BuiltinsValidate) {
  for (const auto& cfg : comparison_set()) {
    EXPECT_NO_THROW(cfg.validate()) << cfg.name;
  }
}

TEST(Processor, A64fxHeadlineNumbers) {
  const ProcessorConfig cfg = a64fx();
  EXPECT_EQ(cfg.cores(), 48);
  EXPECT_EQ(cfg.shape.numa_per_node(), 4);
  // 8 lanes x 2 pipes x 2 flops = 32 flop/cycle -> 3.072 TF at 2 GHz.
  EXPECT_DOUBLE_EQ(cfg.vec_flops_per_cycle(), 32.0);
  EXPECT_NEAR(cfg.peak_flops_node() * 1e-12, 3.072, 1e-9);
  EXPECT_NEAR(cfg.node_mem_bw() * 1e-9, 1024.0, 1e-9);
  EXPECT_NEAR(cfg.balance(), 3.0, 1e-9);
}

TEST(Processor, BroadwellReferencePoint) {
  const ProcessorConfig cfg = broadwell_dual();
  EXPECT_NO_THROW(cfg.validate());
  EXPECT_EQ(cfg.cores(), 36);
  // AVX2: 4 lanes x 2 pipes x 2 = 16 flop/cycle.
  EXPECT_DOUBLE_EQ(cfg.vec_flops_per_cycle(), 16.0);
  EXPECT_EQ(extended_comparison_set().size(), comparison_set().size() + 1);
}

TEST(Processor, SkylakeAndTx2Shapes) {
  EXPECT_EQ(skylake8168_dual().cores(), 48);
  EXPECT_EQ(skylake8168_dual().shape.numa_per_node(), 2);
  EXPECT_EQ(thunderx2_dual().cores(), 64);
  // NEON 128-bit: 2 lanes x 2 pipes x 2 = 8 flop/cycle.
  EXPECT_DOUBLE_EQ(thunderx2_dual().vec_flops_per_cycle(), 8.0);
}

TEST(Processor, PowerModes) {
  const ProcessorConfig base = a64fx();
  const ProcessorConfig boost = with_power_mode(base, PowerMode::kBoost);
  EXPECT_NEAR(boost.freq_hz, 2.2e9, 1e3);
  const ProcessorConfig eco = with_power_mode(base, PowerMode::kEco);
  EXPECT_EQ(eco.fp_pipes, 1);
  EXPECT_LT(eco.watts_per_core_active, base.watts_per_core_active);
  // Non-A64FX processors ignore the modes.
  const ProcessorConfig skx = with_power_mode(skylake8168_dual(), PowerMode::kBoost);
  EXPECT_EQ(skx.freq_hz, skylake8168_dual().freq_hz);
}

TEST(Processor, ValidateCatchesBrokenConfigs) {
  ProcessorConfig cfg = a64fx();
  cfg.freq_hz = 0.0;
  EXPECT_THROW(cfg.validate(), Error);
  cfg = a64fx();
  cfg.mem_overlap = 1.5;
  EXPECT_THROW(cfg.validate(), Error);
  cfg = a64fx();
  cfg.numa_mem_bw = 0.0;
  EXPECT_THROW(cfg.validate(), Error);
}

// ----- locality classifier -----

TEST(Locality, FitsInL1) {
  const auto split = classify_locality(1000.0, a64fx());
  EXPECT_DOUBLE_EQ(split.l1_fraction, 1.0);
  EXPECT_DOUBLE_EQ(split.mem_fraction, 0.0);
}

TEST(Locality, StreamingGoesToDram) {
  const auto split = classify_locality(0.0, a64fx());
  EXPECT_DOUBLE_EQ(split.mem_fraction, 1.0);
}

TEST(Locality, HugeWorkingSetIsMostlyDram) {
  const auto split = classify_locality(1e9, a64fx());
  EXPECT_GT(split.mem_fraction, 0.99);
}

TEST(Locality, FractionsSumToOne) {
  for (double ws : {1.0, 1e3, 1e4, 1e5, 1e6, 1e7, 1e9}) {
    const auto split = classify_locality(ws, a64fx());
    EXPECT_NEAR(split.l1_fraction + split.l2_fraction + split.mem_fraction, 1.0,
                1e-12)
        << "ws=" << ws;
    EXPECT_GE(split.l1_fraction, 0.0);
    EXPECT_GE(split.l2_fraction, 0.0);
    EXPECT_GE(split.mem_fraction, 0.0);
  }
}

TEST(Locality, MemFractionMonotoneInWorkingSet) {
  double prev = 0.0;
  for (double ws = 1e3; ws < 1e9; ws *= 2.0) {
    const double mem = classify_locality(ws, a64fx()).mem_fraction;
    EXPECT_GE(mem, prev - 1e-12);
    prev = mem;
  }
}

TEST(Locality, CacheTransferSeconds) {
  const ProcessorConfig cfg = a64fx();
  EXPECT_DOUBLE_EQ(cache_transfer_seconds(0.0, cfg.l1, cfg.freq_hz), 0.0);
  const double t = cache_transfer_seconds(1280.0, cfg.l1, cfg.freq_hz);
  EXPECT_NEAR(t, 10.0 / cfg.freq_hz, 1e-18);
}

// ----- execution model -----

isa::WorkEstimate vec_work() {
  isa::WorkEstimate w;
  w.flops = 3.2e6;
  w.load_bytes = 1e6;
  w.iterations = 1e5;
  w.vectorizable_fraction = 1.0;
  w.fma_fraction = 1.0;
  w.inner_trip_count = 1024.0;
  w.working_set_bytes = 1e4;
  return w;
}

TEST(ExecModel, VectorPeakIsApproached) {
  const ExecModel model(a64fx());
  const double cycles = model.compute_cycles(vec_work());
  // 3.2e6 flops at 32 flop/cycle = 1e5 cycles (up to lane-tail effects).
  EXPECT_NEAR(cycles, 1e5, 5e3);
}

TEST(ExecModel, ScalarCodeIsMuchSlower) {
  const ExecModel model(a64fx());
  isa::WorkEstimate w = vec_work();
  w.vectorizable_fraction = 0.0;
  EXPECT_GT(model.compute_cycles(w), 10.0 * model.compute_cycles(vec_work()));
}

TEST(ExecModel, ComputeCyclesMonotoneInVectorFraction) {
  const ExecModel model(a64fx());
  double prev = 1e18;
  for (double vf : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    isa::WorkEstimate w = vec_work();
    w.vectorizable_fraction = vf;
    const double c = model.compute_cycles(w);
    EXPECT_LE(c, prev + 1e-9);
    prev = c;
  }
}

TEST(ExecModel, ChainBoundsCompute) {
  const ExecModel model(a64fx());
  isa::WorkEstimate w = vec_work();
  w.dep_chain_ops = 4.0;
  w.vectorizable_fraction = 0.0;
  const double chain = model.chain_cycles(w);
  EXPECT_DOUBLE_EQ(chain, 1e5 * 4.0 * 9.0);
  EXPECT_GE(model.compute_cycles(w), chain);
}

TEST(ExecModel, VectorizationShortensChain) {
  const ExecModel model(a64fx());
  isa::WorkEstimate w = vec_work();
  w.dep_chain_ops = 2.0;
  const double vec_chain = model.chain_cycles(w);
  w.vectorizable_fraction = 0.0;
  EXPECT_GT(model.chain_cycles(w), 5.0 * vec_chain);
}

TEST(ExecModel, GatherPenalisesA64fxMoreThanSkylake) {
  isa::WorkEstimate w = vec_work();
  w.gather_fraction = 0.8;
  const double a64 = ExecModel(a64fx()).compute_cycles(w) /
                     ExecModel(a64fx()).compute_cycles(vec_work());
  const double skx = ExecModel(skylake8168_dual()).compute_cycles(w) /
                     ExecModel(skylake8168_dual()).compute_cycles(vec_work());
  EXPECT_GT(a64, skx);
}

TEST(ExecModel, BranchMissesCost) {
  const ExecModel model(a64fx());
  isa::WorkEstimate w = vec_work();
  w.branches = 1e5;
  w.branch_miss_rate = 0.2;
  EXPECT_GT(model.compute_cycles(w), model.compute_cycles(vec_work()));
}

TEST(ExecModel, ShortTripCountsHurtWithoutPredication) {
  isa::WorkEstimate w = vec_work();
  w.inner_trip_count = 3.0;  // less than half a NEON... and a 8-lane vector
  const double tx2_short = ExecModel(thunderx2_dual()).compute_cycles(w);
  const double tx2_long = ExecModel(thunderx2_dual()).compute_cycles(vec_work());
  EXPECT_GT(tx2_short, 1.2 * tx2_long);
}

TEST(ExecModel, BarrierGrowsWithSizeAndSpan) {
  const ExecModel model(a64fx());
  EXPECT_EQ(model.barrier_seconds(1, topo::Distance::kSameNuma), 0.0);
  const double t2 = model.barrier_seconds(2, topo::Distance::kSameNuma);
  const double t12 = model.barrier_seconds(12, topo::Distance::kSameNuma);
  const double t12x = model.barrier_seconds(12, topo::Distance::kSameSocket);
  EXPECT_GT(t12, t2);
  EXPECT_GT(t12x, t12);
}

std::vector<ThreadWork> uniform_job(int threads_total, int per_numa,
                                    double dram_bytes_each) {
  std::vector<ThreadWork> job;
  for (int t = 0; t < threads_total; ++t) {
    ThreadWork tw;
    tw.work.flops = 1e5;
    tw.work.load_bytes = dram_bytes_each;
    tw.work.vectorizable_fraction = 1.0;
    tw.work.iterations = 1e4;
    tw.work.dram_traffic_bytes = dram_bytes_each;
    tw.numa = t / per_numa;
    tw.home_numa = t / per_numa;
    tw.rank = t;
    tw.team_size = 1;
    job.push_back(tw);
  }
  return job;
}

TEST(ExecModel, MemoryChannelContention) {
  const ExecModel model(a64fx());
  // 12 threads streaming 1 MB each from one CMG vs spread over 4 CMGs.
  auto packed = uniform_job(12, 12, 1e6);
  auto spread = uniform_job(12, 3, 1e6);
  const PhaseTime t_packed = model.evaluate_phase(packed);
  const PhaseTime t_spread = model.evaluate_phase(spread);
  EXPECT_GT(t_packed.memory_s, 3.0 * t_spread.memory_s);
  EXPECT_NEAR(t_packed.memory_s, 12e6 / 256e9, 1e-7);
}

TEST(ExecModel, RemoteTrafficChargedToHomeAndInterconnect) {
  const ExecModel model(a64fx());
  auto job = uniform_job(12, 3, 1e6);
  for (auto& tw : job) {
    tw.work.shared_access_fraction = 1.0;
    tw.home_numa = 0;  // all shared data homed in CMG 0
  }
  const PhaseTime t = model.evaluate_phase(job);
  EXPECT_GT(t.remote_bytes, 8e6);  // 9 threads off-home
  // All 12 MB now through CMG0's HBM (and the ring for 9 MB).
  EXPECT_GE(t.memory_s, 12e6 / 256e9 * 0.99);
}

TEST(ExecModel, PhaseTotalRespectsOverlapBounds) {
  const ExecModel model(a64fx());
  const auto job = uniform_job(4, 1, 5e6);
  const PhaseTime t = model.evaluate_phase(job);
  EXPECT_GE(t.total_s, std::max(t.compute_s, t.memory_s));
  EXPECT_LE(t.total_s,
            t.compute_s + t.memory_s + t.barrier_s + 1e-12);
}

TEST(ExecModel, EmptyPhaseRejected) {
  const ExecModel model(a64fx());
  EXPECT_THROW(model.evaluate_phase({}), Error);
}

TEST(ExecModel, FlopsAggregated) {
  const ExecModel model(a64fx());
  const auto job = uniform_job(8, 2, 1e5);
  EXPECT_DOUBLE_EQ(model.evaluate_phase(job).flops, 8e5);
}

TEST(ExecModel, LimiterClassification) {
  const ExecModel model(a64fx());
  // Memory limited: huge streaming traffic, little compute.
  {
    std::vector<ThreadWork> job(4);
    for (auto& tw : job) {
      tw.work.flops = 1e3;
      tw.work.load_bytes = 1e8;
      tw.work.dram_traffic_bytes = 1e8;
      tw.work.vectorizable_fraction = 1.0;
      tw.work.iterations = 100.0;
    }
    EXPECT_EQ(model.evaluate_phase(job).limiter, Limiter::kMemory);
  }
  // Chain limited: long recurrence, no traffic.
  {
    std::vector<ThreadWork> job(1);
    job[0].work.flops = 1e5;
    job[0].work.iterations = 1e5;
    job[0].work.dep_chain_ops = 8.0;
    job[0].work.vectorizable_fraction = 0.0;
    const PhaseTime t = model.evaluate_phase(job);
    EXPECT_EQ(t.limiter, Limiter::kChain);
  }
  // Barrier limited: trivial work, wide cross-CMG team.
  {
    std::vector<ThreadWork> job(2);
    for (auto& tw : job) {
      tw.work.flops = 1.0;
      tw.work.iterations = 1.0;
      tw.team_size = 48;
      tw.team_span = topo::Distance::kSameSocket;
    }
    EXPECT_EQ(model.evaluate_phase(job).limiter, Limiter::kBarrier);
  }
}

TEST(ExecModel, LaneUtilizationViaTripCounts) {
  const ExecModel model(a64fx());
  // Predicated ISA: trip 9 on 8 lanes issues 2 vectors for 9 lanes of work.
  isa::WorkEstimate w = vec_work();
  w.inner_trip_count = 9.0;
  const double c9 = model.compute_cycles(w);
  w.inner_trip_count = 16.0;
  const double c16 = model.compute_cycles(w);
  EXPECT_GT(c9, 1.5 * c16);
  // Exact multiples of the lane count are fully utilised.
  w.inner_trip_count = 8.0;
  EXPECT_NEAR(model.compute_cycles(w), c16, c16 * 0.01);
}

/// The sparse-map channel accounting evaluate_phase_refs used before its
/// flat per-domain tables, kept verbatim as the oracle they must match.
PhaseTime map_reference_phase(const ProcessorConfig& cfg,
                              const std::vector<ThreadRef>& threads) {
  PhaseTime out;
  std::map<int, double> dram_bytes_by_domain;
  std::map<int, double> remote_in_by_domain;
  double worst_compute_s = 0.0;
  double worst_chain_s = 0.0;
  double worst_barrier_s = 0.0;
  for (const ThreadRef& t : threads) {
    const WorkEval& e = *t.eval;
    out.flops += e.flops;
    dram_bytes_by_domain[t.numa] += e.local_bytes;
    dram_bytes_by_domain[t.home_numa] += e.home_bytes;
    if (t.home_numa != t.numa) {
      remote_in_by_domain[t.home_numa] += e.home_bytes;
      out.remote_bytes += e.home_bytes;
    }
    out.dram_bytes += e.dram_bytes;
    worst_compute_s = std::max(worst_compute_s, e.compute_s);
    worst_chain_s = std::max(worst_chain_s, e.chain_s);
    worst_barrier_s = std::max(worst_barrier_s, t.barrier_s);
  }
  double memory_s = 0.0;
  for (const auto& [domain, bytes] : dram_bytes_by_domain) {
    memory_s = std::max(memory_s, bytes / cfg.numa_mem_bw);
  }
  if (cfg.inter_numa_bw > 0.0) {
    for (const auto& [domain, bytes] : remote_in_by_domain) {
      memory_s = std::max(memory_s, bytes / cfg.inter_numa_bw);
    }
  }
  out.compute_s = worst_compute_s;
  out.memory_s = memory_s;
  out.chain_s = worst_chain_s;
  out.barrier_s = worst_barrier_s;
  const double hi = std::max(worst_compute_s, memory_s);
  const double lo = std::min(worst_compute_s, memory_s);
  out.total_s = hi + (1.0 - cfg.mem_overlap) * lo + worst_barrier_s;
  if (worst_barrier_s > 0.5 * out.total_s) {
    out.limiter = Limiter::kBarrier;
  } else if (memory_s > worst_compute_s) {
    out.limiter = Limiter::kMemory;
  } else if (worst_chain_s >= 0.95 * worst_compute_s && worst_chain_s > 0.0) {
    out.limiter = Limiter::kChain;
  } else {
    out.limiter = Limiter::kCompute;
  }
  return out;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(ExecModel, FlatChannelTablesMatchTheSparseMapBitwise) {
  // Sparse and large global NUMA ids, a domain that only ever receives zero
  // bytes, and threads whose home differs from their own domain. Byte
  // counts are irregular so any change in per-domain addition order would
  // move the last bits.
  const std::vector<int> ids = {0, 7, 102399, 55};
  Xoshiro256 rng(20210917);
  for (const ProcessorConfig& cfg : comparison_set()) {
    const ExecModel model(cfg);
    for (int trial = 0; trial < 50; ++trial) {
      SCOPED_TRACE(cfg.name + " trial " + std::to_string(trial));
      const std::size_t n = 1 + rng.bounded(64);
      std::vector<WorkEval> evals(n);
      std::vector<ThreadRef> refs(n);
      for (std::size_t i = 0; i < n; ++i) {
        WorkEval& e = evals[i];
        e.flops = rng.uniform(0.0, 1e9);
        e.local_bytes = rng.uniform(0.0, 3e8);
        e.home_bytes = rng.uniform(0.0, 3e8);
        e.dram_bytes = e.local_bytes + e.home_bytes;
        e.compute_s = rng.uniform(0.0, 2e-3);
        e.chain_s = e.compute_s * rng.uniform();
        refs[i].eval = &e;
        refs[i].numa = ids[rng.bounded(3)];
        refs[i].home_numa =
            rng.bounded(2) == 0 ? refs[i].numa : ids[rng.bounded(3)];
        refs[i].barrier_s = rng.uniform(0.0, 1e-6);
      }
      // Domain 55 touched with zero bytes only.
      WorkEval idle;
      refs.push_back(ThreadRef{&idle, ids[3], ids[3], 0.0});
      const PhaseTime got = model.evaluate_phase_refs(refs);
      const PhaseTime want = map_reference_phase(cfg, refs);
      EXPECT_TRUE(same_bits(got.compute_s, want.compute_s));
      EXPECT_TRUE(same_bits(got.memory_s, want.memory_s));
      EXPECT_TRUE(same_bits(got.barrier_s, want.barrier_s));
      EXPECT_TRUE(same_bits(got.total_s, want.total_s));
      EXPECT_TRUE(same_bits(got.flops, want.flops));
      EXPECT_TRUE(same_bits(got.dram_bytes, want.dram_bytes));
      EXPECT_TRUE(same_bits(got.remote_bytes, want.remote_bytes));
      EXPECT_TRUE(same_bits(got.chain_s, want.chain_s));
      EXPECT_EQ(got.limiter, want.limiter);
    }
  }
  // A table index must never come from a negative id.
  WorkEval e;
  const ExecModel model(a64fx());
  EXPECT_THROW(model.evaluate_phase_refs({ThreadRef{&e, -1, 0, 0.0}}), Error);
  EXPECT_THROW(model.evaluate_phase_refs({ThreadRef{&e, 0, -1, 0.0}}), Error);
}

// ----- communication model -----

TEST(CommModel, LatencyMonotoneInDistance) {
  const CommCostModel model(a64fx());
  double prev = 0.0;
  for (auto d : {topo::Distance::kSameNuma, topo::Distance::kSameSocket,
                 topo::Distance::kRemoteNode}) {
    const double lat = model.latency_seconds(d);
    EXPECT_GT(lat, prev);
    prev = lat;
  }
}

TEST(CommModel, BandwidthMonotoneInDistance) {
  const CommCostModel model(a64fx());
  EXPECT_GE(model.bandwidth(topo::Distance::kSameNuma),
            model.bandwidth(topo::Distance::kSameSocket));
  EXPECT_GE(model.bandwidth(topo::Distance::kSameSocket),
            model.bandwidth(topo::Distance::kRemoteNode));
}

TEST(CommModel, MessageCostComposition) {
  const CommCostModel model(a64fx());
  const double lat = model.latency_seconds(topo::Distance::kSameSocket);
  const double one = model.message_seconds(1e6, topo::Distance::kSameSocket);
  EXPECT_NEAR(one - lat, 1e6 / model.bandwidth(topo::Distance::kSameSocket),
              1e-12);
}

TEST(CommModel, CollectiveLogRounds) {
  const CommCostModel model(a64fx());
  const double c2 = model.collective_seconds(2, 8, topo::Distance::kSameNuma);
  const double c16 = model.collective_seconds(16, 8, topo::Distance::kSameNuma);
  EXPECT_NEAR(c16, 4.0 * c2, 1e-12);
  EXPECT_EQ(model.collective_seconds(1, 8, topo::Distance::kSameNuma), 0.0);
}

TEST(CommModel, AlltoallScalesWithRanks) {
  const CommCostModel model(a64fx());
  const double a4 = model.alltoall_seconds(4, 1e6, topo::Distance::kSameSocket);
  const double a8 = model.alltoall_seconds(8, 1e6, topo::Distance::kSameSocket);
  EXPECT_GT(a8, 1.5 * a4);
}

// ----- power model -----

TEST(Power, ComponentsAddUp) {
  const ProcessorConfig cfg = a64fx();
  const double idle = phase_watts(cfg, 0, 0.0, cfg.freq_hz);
  EXPECT_DOUBLE_EQ(idle, cfg.watts_base);
  const double full = phase_watts(cfg, 48, 0.0, cfg.freq_hz);
  EXPECT_NEAR(full, cfg.watts_base + 48 * cfg.watts_per_core_active, 1e-9);
  EXPECT_GT(phase_watts(cfg, 48, 1e11, cfg.freq_hz), full);
}

TEST(Power, BoostDrawsSuperlinearPower) {
  const ProcessorConfig boost = with_power_mode(a64fx(), PowerMode::kBoost);
  const double normal = phase_watts(a64fx(), 48, 0.0, a64fx().freq_hz);
  const double boosted = phase_watts(boost, 48, 0.0, a64fx().freq_hz);
  // 10% clock -> more than 10% core power (exponent > 1).
  EXPECT_GT((boosted - boost.watts_base) / (normal - a64fx().watts_base), 1.1);
}

TEST(Power, EstimateComputesEnergyAndEfficiency) {
  PhaseTime phase;
  phase.total_s = 2.0;
  phase.flops = 1e12;
  phase.dram_bytes = 1e11;
  const PowerEstimate est = estimate_power(a64fx(), phase, 48, a64fx().freq_hz);
  EXPECT_NEAR(est.joules, est.watts * 2.0, 1e-9);
  EXPECT_NEAR(est.gflops_per_watt, 1e12 * 1e-9 / 2.0 / est.watts, 1e-9);
}

TEST(Power, RejectsBadCoreCount) {
  EXPECT_THROW(phase_watts(a64fx(), 49, 0.0, 2e9), Error);
  EXPECT_THROW(phase_watts(a64fx(), -1, 0.0, 2e9), Error);
}

// ----- roofline -----

TEST(Roofline, KneeAndAttainable) {
  const ProcessorConfig cfg = a64fx();
  const double knee = knee_intensity(cfg);
  EXPECT_NEAR(knee, 3.0, 1e-9);
  EXPECT_NEAR(attainable_gflops(cfg, knee), cfg.peak_flops_node() * 1e-9, 1e-6);
  EXPECT_NEAR(attainable_gflops(cfg, knee / 2.0),
              cfg.peak_flops_node() * 1e-9 / 2.0, 1e-6);
  EXPECT_DOUBLE_EQ(attainable_gflops(cfg, 100.0), cfg.peak_flops_node() * 1e-9);
}

TEST(Roofline, PointClassification) {
  const ProcessorConfig cfg = a64fx();
  isa::WorkEstimate w;
  w.flops = 1.0;
  w.load_bytes = 10.0;  // AI 0.1 -> memory bound
  const RooflinePoint p = make_point(cfg, "x", w, 50.0);
  EXPECT_TRUE(p.memory_bound);
  isa::WorkEstimate c;
  c.flops = 100.0;
  c.load_bytes = 1.0;
  EXPECT_FALSE(make_point(cfg, "y", c, 50.0).memory_bound);
}

// ----- hierarchical network model (torus, contention, CMG ring) -----

TEST(Torus, BalancedDimsLargestFirst) {
  EXPECT_EQ(balanced_dims3(1), (std::array<int, 3>{1, 1, 1}));
  EXPECT_EQ(balanced_dims3(5), (std::array<int, 3>{5, 1, 1}));
  EXPECT_EQ(balanced_dims3(6), (std::array<int, 3>{3, 2, 1}));
  EXPECT_EQ(balanced_dims3(8), (std::array<int, 3>{2, 2, 2}));
  EXPECT_EQ(balanced_dims3(12), (std::array<int, 3>{3, 2, 2}));
  EXPECT_EQ(balanced_dims3(24), (std::array<int, 3>{4, 3, 2}));
}

TEST(Torus, CoordsRoundTripAndExactHops) {
  const TorusMap t(8);  // 2 x 2 x 2, row-major, z fastest
  EXPECT_EQ(t.coords_of(0), (std::array<int, 3>{0, 0, 0}));
  EXPECT_EQ(t.coords_of(1), (std::array<int, 3>{0, 0, 1}));
  EXPECT_EQ(t.coords_of(7), (std::array<int, 3>{1, 1, 1}));
  for (int n = 0; n < t.nodes(); ++n) {
    EXPECT_EQ(t.node_of(t.coords_of(n)), n);
  }
  EXPECT_EQ(t.hops(0, 1), 1);
  EXPECT_EQ(t.hops(0, 7), 3);
  EXPECT_EQ(t.hops(7, 0), 3);
  EXPECT_EQ(t.diameter_hops(), 3);

  // Shortest-wrap on a 5-ring: 0 -> 4 goes backwards around the wrap.
  const TorusMap ring(5);
  EXPECT_EQ(ring.hops(0, 4), 1);
  EXPECT_EQ(ring.hops(0, 2), 2);
  EXPECT_EQ(ring.diameter_hops(), 2);
}

TEST(Torus, RouteLinksAreDimensionOrdered) {
  const TorusMap t(8);
  // 0 -> 1 is one +z hop out of node 0: link id 0*6 + 2*2 + 0 = 4.
  std::vector<int> direct;
  t.route_links(0, 1, &direct);
  ASSERT_EQ(direct.size(), 1u);
  EXPECT_EQ(direct[0], 4);
  // 4 -> 1 corrects x first (link 4*6 + 0 = 24), then shares node 0's +z
  // link with the 0 -> 1 route — the shared-bottleneck case contention sees.
  std::vector<int> indirect;
  t.route_links(4, 1, &indirect);
  ASSERT_EQ(indirect.size(), 2u);
  EXPECT_EQ(indirect[0], 24);
  EXPECT_EQ(indirect[1], 4);
}

TEST(Contention, ChargesOnlyForeignBytesOnSharedLinks) {
  const TorusMap t(8);
  {
    LinkContention lone(&t);
    lone.add_flow(0, 1, 1000);
    lone.seal();
    EXPECT_EQ(lone.foreign_bytes(0, 1), 0u);   // nothing shares the link
    EXPECT_EQ(lone.foreign_bytes(2, 3), 0u);   // unknown pair
    EXPECT_EQ(lone.foreign_bytes(5, 5), 0u);   // self flow
    EXPECT_EQ(lone.max_link_load(), 1000u);
  }
  // 0->1 and 4->1 share node 0's +z link (see RouteLinksAreDimensionOrdered):
  // each pair is charged exactly the *other's* bytes on that link.
  LinkContention shared(&t);
  shared.add_flow(0, 1, 1000);
  shared.add_flow(4, 1, 700);
  shared.seal();
  EXPECT_EQ(shared.foreign_bytes(0, 1), 700u);
  EXPECT_EQ(shared.foreign_bytes(4, 1), 1000u);
  EXPECT_EQ(shared.max_link_load(), 1700u);
}

TEST(Contention, MoreTrafficOnASharedLinkNeverGetsCheaper) {
  const TorusMap t(8);
  std::uint64_t prev = 0;
  for (const std::uint64_t rival : {0u, 500u, 700u, 1400u, 5000u}) {
    LinkContention c(&t);
    c.add_flow(0, 1, 1000);
    if (rival > 0) c.add_flow(4, 1, rival);
    c.seal();
    const std::uint64_t foreign = c.foreign_bytes(0, 1);
    EXPECT_GE(foreign, prev) << "rival=" << rival;
    prev = foreign;
  }
  EXPECT_EQ(prev, 5000u);  // the full rival load lands on the shared link
}

TEST(Contention, ForeignBytesEqualTheRouteMaximumForEveryPair) {
  // 4x4x4 torus, a seeded flow between a third of the node pairs: every
  // pair's looked-up foreign bytes must equal the max over its route links
  // of (link load - own bytes), recomputed here from route_links.
  const TorusMap t(64);
  ASSERT_EQ(t.dims(), (std::array<int, 3>{4, 4, 4}));
  Xoshiro256 rng(64);
  std::map<std::pair<int, int>, std::uint64_t> flows;
  LinkContention c(&t);
  for (int a = 0; a < t.nodes(); ++a) {
    for (int b = 0; b < t.nodes(); ++b) {
      if (a == b || rng.bounded(3) != 0) continue;
      const std::uint64_t bytes = 1 + rng.bounded(1u << 20);
      c.add_flow(a, b, bytes);
      flows[{a, b}] += bytes;
    }
  }
  c.seal();
  std::vector<std::uint64_t> load(static_cast<std::size_t>(t.link_count()));
  std::vector<int> links;
  for (const auto& [pair, bytes] : flows) {
    links.clear();
    t.route_links(pair.first, pair.second, &links);
    for (const int link : links) load[static_cast<std::size_t>(link)] += bytes;
  }
  for (int a = 0; a < t.nodes(); ++a) {
    for (int b = 0; b < t.nodes(); ++b) {
      const auto it = flows.find({a, b});
      std::uint64_t want = 0;
      if (it != flows.end()) {
        links.clear();
        t.route_links(a, b, &links);
        for (const int link : links) {
          want = std::max(want,
                          load[static_cast<std::size_t>(link)] - it->second);
        }
      }
      EXPECT_EQ(c.foreign_bytes(a, b), want) << a << " -> " << b;
    }
  }
}

TEST(CommModel, RemoteLatencyIsExactPerHop) {
  const ProcessorConfig cfg = a64fx();
  const CommCostModel model(cfg, 8);
  EXPECT_DOUBLE_EQ(model.remote_latency_seconds(0),
                   cfg.net.base_latency_us * 1e-6);
  EXPECT_DOUBLE_EQ(model.remote_latency_seconds(3),
                   cfg.net.base_latency_us * 1e-6 +
                       3.0 * cfg.net.hop_latency_ns * 1e-9);
  EXPECT_DOUBLE_EQ(model.link_bandwidth(), cfg.net.link_bw);
  // The distance-class API assumes the diameter (3 hops on 2x2x2).
  EXPECT_DOUBLE_EQ(model.latency_seconds(topo::Distance::kRemoteNode),
                   model.remote_latency_seconds(3));
  EXPECT_GT(model.latency_seconds(topo::Distance::kRemoteNode),
            model.latency_seconds(topo::Distance::kSameNode));
}

TEST(CommModel, SingleNodeTorusDegeneratesToFlatFabric) {
  const CommCostModel model(a64fx());  // nodes = 1: pre-hierarchical model
  EXPECT_EQ(model.torus().diameter_hops(), 0);
  EXPECT_DOUBLE_EQ(model.latency_seconds(topo::Distance::kRemoteNode),
                   model.remote_latency_seconds(0));
}

TEST(CommModel, CmgRingLatencyIsShortestWayAround) {
  const ProcessorConfig cfg = a64fx();  // 1 socket x 4 CMGs
  const CommCostModel model(cfg);
  const double base = cfg.intra_node_msg_latency_ns * 1e-9;
  const double hop = cfg.inter_numa_latency_ns * 1e-9;
  EXPECT_DOUBLE_EQ(model.intra_socket_latency_seconds(0, 0), base);
  EXPECT_DOUBLE_EQ(model.intra_socket_latency_seconds(0, 1), base + hop);
  EXPECT_DOUBLE_EQ(model.intra_socket_latency_seconds(0, 2), base + 2 * hop);
  // 0 -> 3 wraps around the ring: one hop, not three.
  EXPECT_DOUBLE_EQ(model.intra_socket_latency_seconds(0, 3), base + hop);
  EXPECT_DOUBLE_EQ(model.intra_socket_latency_seconds(3, 1),
                   model.intra_socket_latency_seconds(1, 3));
}

TEST(Roofline, AsciiRenderContainsPointsAndLegend) {
  const ProcessorConfig cfg = a64fx();
  isa::WorkEstimate w;
  w.flops = 1.0;
  w.load_bytes = 2.0;
  const std::string fig =
      render_ascii(cfg, {make_point(cfg, "alpha", w, 100.0)});
  EXPECT_NE(fig.find("alpha"), std::string::npos);
  EXPECT_NE(fig.find("a:"), std::string::npos);
  EXPECT_NE(fig.find("roofline"), std::string::npos);
}

// ----- processor descriptors ----------------------------------------------

using BuiltinCtor = ProcessorConfig (*)();
const BuiltinCtor kBuiltins[] = {&a64fx, &skylake8168_dual, &thunderx2_dual,
                                 &broadwell_dual};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Replace the first occurrence of `from` (must exist) in the canonical
/// A64FX descriptor text.
std::string mutated_a64fx(const std::string& from, const std::string& to) {
  std::string text = to_descriptor(a64fx());
  const std::size_t pos = text.find(from);
  EXPECT_NE(pos, std::string::npos) << from;
  text.replace(pos, from.size(), to);
  return text;
}

/// The Error message parse_descriptor throws for `text` ("" = no throw).
std::string parse_error(const std::string& text) {
  try {
    (void)parse_descriptor(text);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(Descriptor, RoundTripIsBitExactForEveryBuiltin) {
  for (const BuiltinCtor ctor : kBuiltins) {
    const ProcessorConfig cfg = ctor();
    const std::string text = to_descriptor(cfg);
    const ProcessorConfig parsed = parse_descriptor(text);
    // Exact field-wise equality: the parsed config shares EvalCache entries
    // with the constructor's.
    EXPECT_TRUE(parsed == cfg) << cfg.name;
    EXPECT_EQ(to_descriptor(parsed), text) << cfg.name;
  }
}

TEST(Descriptor, RoundTripCoversPowerModeVariants) {
  for (const PowerMode mode : {PowerMode::kBoost, PowerMode::kEco}) {
    const ProcessorConfig cfg = with_power_mode(a64fx(), mode);
    const ProcessorConfig parsed = parse_descriptor(to_descriptor(cfg));
    EXPECT_TRUE(parsed == cfg) << cfg.name;
  }
}

TEST(Descriptor, GoldenFilesMatchTheConstructors) {
  const std::pair<const char*, BuiltinCtor> golden[] = {
      {"a64fx.json", &a64fx},
      {"skylake8168x2.json", &skylake8168_dual},
      {"thunderx2.json", &thunderx2_dual},
      {"broadwell.json", &broadwell_dual},
  };
  for (const auto& [file, ctor] : golden) {
    const std::string path = std::string(FIBERSIM_DESCRIPTOR_DIR "/") + file;
    const std::string text = slurp(path);
    EXPECT_EQ(text, to_descriptor(ctor())) << file;
    EXPECT_TRUE(load_descriptor_file(path) == ctor()) << file;
  }
}

TEST(Descriptor, FormatDoubleRoundTripsExactly) {
  // The L2 capacity is the nastiest builtin double: 8 MiB / 12 cores.
  for (const double v : {8.0 * 1024 * 1024 / 12.0, 2.2e9, 0.1, 1.0 / 3.0}) {
    json::Writer w;
    const std::string text = std::move(w.shortest(v)).take();
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), v);
  }
}

TEST(Descriptor, RejectsOutOfRangeValuesByNameWithByteOffset) {
  // Range violations are reported with the validate() field name and the
  // byte offset of the offending value, and never return a partial config.
  const std::pair<std::string, std::string> cases[] = {
      {"\"numa_mem_bw\": ", "\"numa_mem_bw\": -"},  // negative bandwidth
      {"\"freq_hz\": 2e+09", "\"freq_hz\": 0"},
      {"\"fp_pipes\": 2", "\"fp_pipes\": 0"},
      {"\"vector_bits\": 512", "\"vector_bits\": 100"},
      {"\"mem_overlap\": ", "\"mem_overlap\": -"},
  };
  for (const auto& [from, to] : cases) {
    const std::string msg = parse_error(mutated_a64fx(from, to));
    ASSERT_FALSE(msg.empty()) << from;
    EXPECT_NE(msg.find("at byte"), std::string::npos) << msg;
  }
  EXPECT_NE(parse_error(mutated_a64fx("\"freq_hz\": 2e+09", "\"freq_hz\": 0"))
                .find("freq_hz"),
            std::string::npos);
  EXPECT_NE(parse_error(mutated_a64fx("\"numa_mem_bw\": ",
                                      "\"numa_mem_bw\": -"))
                .find("numa_mem_bw"),
            std::string::npos);
}

TEST(Descriptor, RejectsMalformedDocuments) {
  const std::string valid = to_descriptor(a64fx());
  // Unknown key.
  EXPECT_NE(parse_error(mutated_a64fx("  \"name\"", "  \"bogus\": 1,\n  \"name\""))
                .find("bogus"),
            std::string::npos);
  // Missing required field (a typo'd key is reported as both).
  EXPECT_NE(parse_error(mutated_a64fx("\"fp_pipes\"", "\"fp_pies\""))
                .find("fp_pipes"),
            std::string::npos);
  // Wrong type.
  EXPECT_FALSE(
      parse_error(mutated_a64fx("\"fp_pipes\": 2", "\"fp_pipes\": \"two\""))
          .empty());
  // Duplicate key (the strict grammar rejects it before any field parses).
  EXPECT_FALSE(parse_error(mutated_a64fx("\"fp_pipes\": 2",
                                         "\"fp_pipes\": 2,\n  \"fp_pipes\": 2"))
                   .empty());
  // Wrong/missing format tag.
  EXPECT_NE(parse_error(mutated_a64fx("fibersim-processor/1",
                                      "fibersim-processor/9"))
                .find("format"),
            std::string::npos);
  // Truncation anywhere may not yield a config.
  for (const std::size_t keep :
       {std::size_t{0}, valid.size() / 4, valid.size() / 2,
        valid.size() - 2}) {
    EXPECT_FALSE(parse_error(valid.substr(0, keep)).empty()) << keep;
  }
  // Non-numeric garbage in a number slot.
  EXPECT_FALSE(
      parse_error(mutated_a64fx("\"freq_hz\": 2e+09", "\"freq_hz\": 2e+999"))
          .empty());
}

TEST(Descriptor, MissingFileNamesThePath) {
  try {
    (void)load_descriptor_file("/nonexistent/machine.json");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/machine.json"),
              std::string::npos);
  }
}

TEST(Descriptor, OptionalModesDefaultToAbsent) {
  std::string text = to_descriptor(skylake8168_dual());
  const ProcessorConfig parsed = parse_descriptor(text);
  EXPECT_EQ(parsed.boost_freq_hz, 0.0);
  EXPECT_EQ(parsed.eco_fp_pipes, 0);
  // A machine without the modes passes through with_power_mode unchanged.
  EXPECT_TRUE(with_power_mode(parsed, PowerMode::kBoost) == parsed);
  EXPECT_TRUE(with_power_mode(parsed, PowerMode::kEco) == parsed);
}

TEST(Processor, GenericPowerModesFollowTheDescriptorFields) {
  ProcessorConfig cfg = skylake8168_dual();
  cfg.boost_freq_hz = 3.0e9;
  cfg.eco_fp_pipes = 1;
  cfg.eco_core_power_scale = 0.5;
  const ProcessorConfig boost = with_power_mode(cfg, PowerMode::kBoost);
  EXPECT_EQ(boost.name, "Skylake-8168x2-boost");
  EXPECT_DOUBLE_EQ(boost.freq_hz, 3.0e9);
  const ProcessorConfig eco = with_power_mode(cfg, PowerMode::kEco);
  EXPECT_EQ(eco.fp_pipes, 1);
  EXPECT_DOUBLE_EQ(eco.watts_per_core_active, cfg.watts_per_core_active * 0.5);
}

// ----- processor registry -------------------------------------------------

/// Every registry test restores the built-ins on exit: the registry is
/// process-global and load_file/resolve(path) mutate it.
struct RegistryGuard {
  ~RegistryGuard() { ProcessorRegistry::instance().reset(); }
};

TEST(Registry, BuiltinsResolveByKeyAndNameCaseInsensitive) {
  RegistryGuard guard;
  ProcessorRegistry& reg = ProcessorRegistry::instance();
  EXPECT_TRUE(reg.resolve("a64fx") == a64fx());
  EXPECT_TRUE(reg.resolve("A64FX") == a64fx());
  EXPECT_TRUE(reg.resolve("skylake") == skylake8168_dual());
  EXPECT_TRUE(reg.resolve("Skylake-8168x2") == skylake8168_dual());
  EXPECT_TRUE(reg.resolve("broadwell") == broadwell_dual());
}

TEST(Registry, PowerModeSuffixesResolveOnlyWhenDeclared) {
  RegistryGuard guard;
  ProcessorRegistry& reg = ProcessorRegistry::instance();
  EXPECT_TRUE(reg.resolve("a64fx-boost") ==
              with_power_mode(a64fx(), PowerMode::kBoost));
  EXPECT_TRUE(reg.resolve("a64fx-eco") ==
              with_power_mode(a64fx(), PowerMode::kEco));
  EXPECT_THROW((void)reg.resolve("skylake-boost"), Error);
  EXPECT_THROW((void)reg.resolve("skylake-eco"), Error);
}

TEST(Registry, UnknownTokenListsTheKnownKeys) {
  RegistryGuard guard;
  try {
    (void)ProcessorRegistry::instance().resolve("epyc");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("epyc"), std::string::npos);
    EXPECT_NE(msg.find("a64fx"), std::string::npos);
  }
}

TEST(Registry, ComparisonSetsMatchTheRoles) {
  RegistryGuard guard;
  const std::vector<ProcessorConfig> cmp =
      ProcessorRegistry::instance().comparison_set();
  ASSERT_EQ(cmp.size(), 3u);
  EXPECT_TRUE(cmp[0] == a64fx());
  EXPECT_TRUE(cmp[1] == skylake8168_dual());
  EXPECT_TRUE(cmp[2] == thunderx2_dual());
  const std::vector<ProcessorConfig> ext =
      ProcessorRegistry::instance().extended_comparison_set();
  ASSERT_EQ(ext.size(), 4u);
  EXPECT_TRUE(ext[3] == broadwell_dual());
}

TEST(Registry, LoadFileReplacesSameNamePreservingKeyAndRole) {
  RegistryGuard guard;
  ProcessorRegistry& reg = ProcessorRegistry::instance();
  ProcessorConfig fast = a64fx();
  fast.freq_hz = 2.4e9;
  const std::string path =
      ::testing::TempDir() + "/registry_replace_a64fx.json";
  {
    std::ofstream out(path, std::ios::binary);
    out << to_descriptor(fast);
  }
  EXPECT_TRUE(reg.load_file(path) == fast);
  // The old key still resolves — to the replacement — and the comparison set
  // picked it up without any call-site change.
  EXPECT_TRUE(reg.resolve("a64fx") == fast);
  EXPECT_TRUE(reg.comparison_set()[0] == fast);
  reg.reset();
  EXPECT_TRUE(reg.resolve("a64fx") == a64fx());
}

TEST(Registry, ResolvingAPathLoadsAndRegistersIt) {
  RegistryGuard guard;
  ProcessorRegistry& reg = ProcessorRegistry::instance();
  ProcessorConfig custom = thunderx2_dual();
  custom.name = "TX2-custom";
  custom.freq_hz = 2.2e9;
  const std::string path = ::testing::TempDir() + "/registry_custom.json";
  {
    std::ofstream out(path, std::ios::binary);
    out << to_descriptor(custom);
  }
  EXPECT_TRUE(reg.resolve(path) == custom);
  // Registered under its name now; no path needed the second time.
  EXPECT_TRUE(reg.resolve("TX2-custom") == custom);
}

// ----- calibration --------------------------------------------------------

TEST(Calibrate, FitIsDeterministicAndSelfConsistent) {
  const CalibrationOptions opt;
  const CalibrationMeasurements m = synthetic_measurements(a64fx(), 42, 0.02);
  const ProcessorConfig a = fit_descriptor(m, opt);
  const ProcessorConfig b = fit_descriptor(m, opt);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(to_descriptor(a), to_descriptor(b));
  // Synthetic measurements are themselves a pure function of (cfg, seed).
  EXPECT_TRUE(m == synthetic_measurements(a64fx(), 42, 0.02));
  EXPECT_FALSE(m == synthetic_measurements(a64fx(), 43, 0.02));
}

TEST(Calibrate, SyntheticFitLandsNearTheAnalyticCeilings) {
  const CalibrationOptions opt;
  const ProcessorConfig analytic = a64fx();
  const ProcessorConfig fitted =
      fit_descriptor(synthetic_measurements(analytic, 42, 0.02), opt);
  // 2% injected noise + 3-significant-digit quantisation: 5% gate.
  EXPECT_NEAR(fitted.freq_hz / analytic.freq_hz, 1.0, 0.05);
  EXPECT_NEAR(fitted.node_mem_bw() / analytic.node_mem_bw(), 1.0, 0.05);
  EXPECT_EQ(fitted.cores(), analytic.cores());
  EXPECT_EQ(fitted.shape.numa_per_node(), analytic.shape.numa_per_node());
}

TEST(Calibrate, MeasurementsJsonRoundTripsAndRejectsGarbage) {
  const CalibrationMeasurements m = synthetic_measurements(a64fx(), 7, 0.02);
  const std::string text = measurements_to_json(m);
  EXPECT_TRUE(parse_measurements(text) == m);
  EXPECT_THROW((void)parse_measurements("{}"), Error);
  EXPECT_THROW((void)parse_measurements(text + "trailing"), Error);
  std::string negative = text;
  const std::size_t pos = negative.find("\"freq_hz\": ");
  ASSERT_NE(pos, std::string::npos);
  negative.insert(pos + std::string("\"freq_hz\": ").size(), "-");
  EXPECT_THROW((void)parse_measurements(negative), Error);
}

}  // namespace
}  // namespace fibersim::machine

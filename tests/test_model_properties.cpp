// Cross-processor property tests: invariants every machine model instance
// must satisfy, instantiated over all built-in processors.
#include <gtest/gtest.h>

#include <cmath>

#include "cg/codegen_model.hpp"
#include "machine/comm_model.hpp"
#include "machine/exec_model.hpp"
#include "machine/roofline.hpp"

namespace fibersim::machine {
namespace {

class PerProcessor : public ::testing::TestWithParam<ProcessorConfig> {
 protected:
  isa::WorkEstimate mixed_work() const {
    isa::WorkEstimate w;
    w.flops = 5e6;
    w.load_bytes = 4e6;
    w.store_bytes = 1e6;
    w.int_ops = 1e6;
    w.branches = 2e5;
    w.branch_miss_rate = 0.05;
    w.iterations = 5e5;
    w.vectorizable_fraction = 0.8;
    w.fma_fraction = 0.6;
    w.dep_chain_ops = 0.5;
    w.gather_fraction = 0.1;
    w.working_set_bytes = 4e6;
    w.inner_trip_count = 64.0;
    return w;
  }

  std::vector<ThreadWork> job(const isa::WorkEstimate& w, int threads) const {
    const ProcessorConfig& cfg = GetParam();
    std::vector<ThreadWork> out;
    for (int t = 0; t < threads; ++t) {
      ThreadWork tw;
      tw.work = w;
      tw.numa = (t * cfg.shape.numa_per_node()) / threads;
      tw.home_numa = tw.numa;
      tw.rank = t;
      tw.team_size = 1;
      out.push_back(tw);
    }
    return out;
  }
};

TEST_P(PerProcessor, ComputeCyclesPositiveAndFinite) {
  const ExecModel model(GetParam());
  const double c = model.compute_cycles(mixed_work());
  EXPECT_GT(c, 0.0);
  EXPECT_TRUE(std::isfinite(c));
}

TEST_P(PerProcessor, ComputeCyclesLinearInWork) {
  const ExecModel model(GetParam());
  const double one = model.compute_cycles(mixed_work());
  const double four = model.compute_cycles(mixed_work().scaled(4.0));
  EXPECT_NEAR(four / one, 4.0, 1e-6);
}

TEST_P(PerProcessor, PhaseTimeScalesWithWork) {
  const ExecModel model(GetParam());
  const auto small_job = job(mixed_work(), 4);
  const auto big_job = job(mixed_work().scaled(8.0), 4);
  const double t_small = model.evaluate_phase(small_job).total_s;
  const double t_big = model.evaluate_phase(big_job).total_s;
  EXPECT_NEAR(t_big / t_small, 8.0, 0.01);
}

TEST_P(PerProcessor, MoreBandwidthNeverSlower) {
  ProcessorConfig fast = GetParam();
  fast.numa_mem_bw *= 2.0;
  isa::WorkEstimate w = mixed_work();
  w.dram_traffic_bytes = 4e6;  // force substantial DRAM traffic
  const double base =
      ExecModel(GetParam()).evaluate_phase(job(w, 4)).total_s;
  const double faster = ExecModel(fast).evaluate_phase(job(w, 4)).total_s;
  EXPECT_LE(faster, base + 1e-15);
}

TEST_P(PerProcessor, HigherClockNeverSlowerForCompute) {
  ProcessorConfig fast = GetParam();
  fast.freq_hz *= 1.5;
  isa::WorkEstimate w = mixed_work();
  w.load_bytes = 0.0;
  w.store_bytes = 0.0;
  w.gather_fraction = 0.0;
  w.dram_traffic_bytes = 0.0;
  const double base = ExecModel(GetParam()).compute_cycles(w) / GetParam().freq_hz;
  const double faster = ExecModel(fast).compute_cycles(w) / fast.freq_hz;
  EXPECT_LT(faster, base);
}

TEST_P(PerProcessor, CodegenLadderNeverSlowsCompute) {
  const ExecModel model(GetParam());
  double prev = 1e300;
  for (const auto& opts : cg::tuning_ladder()) {
    const double c = model.compute_cycles(cg::apply(opts, mixed_work()));
    EXPECT_LE(c, prev * 1.0001);
    prev = c;
  }
}

TEST_P(PerProcessor, CommCostsPositiveAndOrdered) {
  const CommCostModel model(GetParam());
  for (auto d : {topo::Distance::kSameNuma, topo::Distance::kSameSocket,
                 topo::Distance::kSameNode, topo::Distance::kRemoteNode}) {
    EXPECT_GT(model.latency_seconds(d), 0.0);
    EXPECT_GT(model.bandwidth(d), 0.0);
    EXPECT_GT(model.message_seconds(1024, d), model.latency_seconds(d));
  }
  EXPECT_LT(model.latency_seconds(topo::Distance::kSameNuma),
            model.latency_seconds(topo::Distance::kRemoteNode));
}

TEST_P(PerProcessor, BarrierMonotoneInTeamSize) {
  const ExecModel model(GetParam());
  double prev = -1.0;
  for (int size : {1, 2, 4, 8, 16, 32}) {
    const double b = model.barrier_seconds(size, topo::Distance::kSameNuma);
    EXPECT_GE(b, prev);
    prev = b;
  }
}

TEST_P(PerProcessor, RooflineKneeConsistent) {
  const ProcessorConfig& cfg = GetParam();
  const double knee = knee_intensity(cfg);
  EXPECT_GT(knee, 0.0);
  EXPECT_NEAR(attainable_gflops(cfg, knee * 2.0),
              cfg.peak_flops_node() * 1e-9, 1e-6);
  EXPECT_NEAR(attainable_gflops(cfg, knee / 4.0) * 4.0,
              cfg.peak_flops_node() * 1e-9, 1e-6);
}

TEST_P(PerProcessor, EvaluatePhaseAggregatesFlopsExactly) {
  const ExecModel model(GetParam());
  const auto threads = job(mixed_work(), 6);
  EXPECT_DOUBLE_EQ(model.evaluate_phase(threads).flops, 6.0 * 5e6);
}

INSTANTIATE_TEST_SUITE_P(
    Machines, PerProcessor, ::testing::ValuesIn(extended_comparison_set()),
    [](const ::testing::TestParamInfo<ProcessorConfig>& param_info) {
      std::string name = param_info.param.name;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace fibersim::machine

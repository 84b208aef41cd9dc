// Integration tests of the eight Fiber miniapp kernels: every app must
// verify under several decompositions, record consistent SPMD traces, and
// perform a decomposition-independent amount of total work.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <mutex>

#include "common/error.hpp"
#include "core/runner.hpp"
#include "miniapps/miniapp.hpp"
#include "mp/job.hpp"
#include "rt/thread_team.hpp"
#include "trace/predict.hpp"

namespace fibersim::apps {
namespace {

struct RunOutput {
  trace::JobTrace trace;
  std::vector<RunResult> results;
};

RunOutput run_app(const std::string& name, int ranks, int threads,
                  Dataset dataset = Dataset::kSmall, int iterations = 2,
                  std::uint64_t seed = 42, int weak_scale = 1) {
  RunOutput out;
  out.trace.resize(static_cast<std::size_t>(ranks));
  out.results.resize(static_cast<std::size_t>(ranks));
  mp::Job::run(ranks, [&](mp::Comm& comm) {
    rt::ThreadTeam team(threads);
    trace::Recorder rec(&comm);
    RunContext ctx;
    ctx.comm = &comm;
    ctx.team = &team;
    ctx.recorder = &rec;
    ctx.dataset = dataset;
    ctx.seed = seed;
    ctx.iterations = iterations;
    ctx.weak_scale = weak_scale;
    const auto app = create_miniapp(name);
    out.results[static_cast<std::size_t>(comm.rank())] = app->run(ctx);
    out.trace[static_cast<std::size_t>(comm.rank())] = rec.phases();
  });
  return out;
}

double total_timed_flops(const trace::JobTrace& trace) {
  double total = 0.0;
  for (const auto& rank_trace : trace) {
    for (const auto& phase : rank_trace) {
      if (phase.timed) total += phase.work.flops + phase.work.int_ops;
    }
  }
  return total;
}

TEST(Registry, HasTheWholeSuite) {
  const auto names = registry_names();
  ASSERT_EQ(names.size(), 8u);
  EXPECT_EQ(names.front(), "ccs_qcd");
  for (const auto& name : names) {
    const auto app = create_miniapp(name);
    EXPECT_EQ(app->name(), name);
    EXPECT_FALSE(app->description().empty());
  }
}

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW(create_miniapp("not_an_app"), Error);
}

TEST(Context, Validation) {
  RunContext ctx;
  EXPECT_THROW(validate_context(ctx), Error);
}

struct AppCase {
  std::string app;
  int ranks;
  int threads;
};

void PrintTo(const AppCase& c, std::ostream* os) {
  *os << c.app << "_" << c.ranks << "x" << c.threads;
}

class MiniappRun : public ::testing::TestWithParam<AppCase> {};

TEST_P(MiniappRun, VerifiesAndTracesConsistently) {
  const AppCase c = GetParam();
  const RunOutput out = run_app(c.app, c.ranks, c.threads);
  for (int r = 0; r < c.ranks; ++r) {
    EXPECT_TRUE(out.results[static_cast<std::size_t>(r)].verified)
        << c.app << " rank " << r << ": "
        << out.results[static_cast<std::size_t>(r)].check_description << " = "
        << out.results[static_cast<std::size_t>(r)].check_value;
  }
  // SPMD contract: all ranks record the same phase sequence.
  ASSERT_FALSE(out.trace.front().empty());
  for (int r = 1; r < c.ranks; ++r) {
    ASSERT_EQ(out.trace[static_cast<std::size_t>(r)].size(),
              out.trace.front().size());
    for (std::size_t p = 0; p < out.trace.front().size(); ++p) {
      EXPECT_EQ(out.trace[static_cast<std::size_t>(r)][p].name,
                out.trace.front()[p].name);
    }
  }
  // Every phase's work validates and at least one timed phase did real work.
  double timed_work = 0.0;
  for (const auto& phase : out.trace.front()) {
    EXPECT_NO_THROW(phase.work.validate()) << c.app << "/" << phase.name;
    if (phase.timed) {
      timed_work += phase.work.flops + phase.work.int_ops;
    }
  }
  EXPECT_GT(timed_work, 0.0) << c.app;
}

std::vector<AppCase> all_cases() {
  std::vector<AppCase> cases;
  for (const auto& name : registry_names()) {
    for (const auto& [p, t] : std::vector<std::pair<int, int>>{
             {1, 1}, {2, 2}, {4, 3}, {6, 1}}) {
      cases.push_back({name, p, t});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Suite, MiniappRun, ::testing::ValuesIn(all_cases()),
                         [](const auto& param_info) {
                           const auto& c = param_info.param;
                           return c.app + "_" + std::to_string(c.ranks) +
                                  "x" + std::to_string(c.threads);
                         });

class WorkInvariance : public ::testing::TestWithParam<std::string> {};

// The MPI x OMP sweep is only meaningful if the total work is independent of
// the decomposition (strong scaling).
TEST_P(WorkInvariance, TotalWorkIndependentOfDecomposition) {
  const std::string app = GetParam();
  const double w1 = total_timed_flops(run_app(app, 1, 2).trace);
  const double w4 = total_timed_flops(run_app(app, 4, 1).trace);
  const double w6 = total_timed_flops(run_app(app, 6, 2).trace);
  ASSERT_GT(w1, 0.0);
  // Allow a few percent for surface effects / uneven remainders.
  EXPECT_NEAR(w4 / w1, 1.0, 0.05) << app;
  EXPECT_NEAR(w6 / w1, 1.0, 0.05) << app;
}

INSTANTIATE_TEST_SUITE_P(Suite, WorkInvariance,
                         ::testing::ValuesIn(registry_names()),
                         [](const auto& param_info) {
                           return param_info.param;
                         });

class Determinism : public ::testing::TestWithParam<std::string> {};

// Same configuration + same seed => bitwise identical verification value.
TEST_P(Determinism, RepeatedRunsAgree) {
  const std::string app = GetParam();
  const auto a = run_app(app, 2, 2);
  const auto b = run_app(app, 2, 2);
  EXPECT_EQ(a.results[0].check_value, b.results[0].check_value) << app;
  EXPECT_EQ(total_timed_flops(a.trace), total_timed_flops(b.trace));
}

INSTANTIATE_TEST_SUITE_P(Suite, Determinism,
                         ::testing::ValuesIn(registry_names()),
                         [](const auto& param_info) {
                           return param_info.param;
                         });

class SeedSensitivity : public ::testing::TestWithParam<std::string> {};

// A different seed must change the generated problem (guards against
// accidentally ignoring the seed).
TEST_P(SeedSensitivity, SeedChangesProblem) {
  const std::string app = GetParam();
  const auto a = run_app(app, 2, 1, Dataset::kSmall, 2, 42);
  const auto b = run_app(app, 2, 1, Dataset::kSmall, 2, 43);
  // Some inputs are index-derived by design; their checks are seed
  // independent.
  if (app == "ffvc" || app == "ffb" || app == "nicam") {
    GTEST_SKIP() << app << " generates its input from grid indices";
  }
  EXPECT_NE(a.results[0].check_value, b.results[0].check_value) << app;
}

INSTANTIATE_TEST_SUITE_P(Suite, SeedSensitivity,
                         ::testing::ValuesIn(registry_names()),
                         [](const auto& param_info) {
                           return param_info.param;
                         });

TEST(Miniapps, LargeDatasetAlsoVerifies) {
  // One representative decomposition per app on the large dataset.
  for (const auto& name : registry_names()) {
    const auto out = run_app(name, 2, 2, Dataset::kLarge, 1);
    EXPECT_TRUE(out.results[0].verified) << name;
  }
}

TEST(Miniapps, LargeDatasetDoesMoreWork) {
  for (const auto& name : registry_names()) {
    const double small =
        total_timed_flops(run_app(name, 2, 1, Dataset::kSmall, 1).trace);
    const double large =
        total_timed_flops(run_app(name, 2, 1, Dataset::kLarge, 1).trace);
    EXPECT_GT(large, 1.5 * small) << name;
  }
}

class WeakScaling : public ::testing::TestWithParam<std::string> {};

// weak_scale = k must multiply total work by ~k and keep verification green.
TEST_P(WeakScaling, DoublesWorkAndStillVerifies) {
  const std::string app = GetParam();
  const auto base = run_app(app, 2, 1, Dataset::kSmall, 1, 42, 1);
  const auto scaled = run_app(app, 2, 1, Dataset::kSmall, 1, 42, 2);
  EXPECT_TRUE(scaled.results[0].verified) << app;
  const double ratio =
      total_timed_flops(scaled.trace) / total_timed_flops(base.trace);
  // ngsa's k-mer pass is population independent, hence the loose lower
  // bound; everything else should be very close to 2.
  EXPECT_GT(ratio, 1.6) << app;
  EXPECT_LT(ratio, 2.4) << app;
}

INSTANTIATE_TEST_SUITE_P(Suite, WeakScaling,
                         ::testing::ValuesIn(registry_names()),
                         [](const auto& param_info) {
                           return param_info.param;
                         });

TEST(Miniapps, IterationsScaleTimedWork) {
  // ntchem's loop body is uniform: work must scale exactly with iterations.
  const double n1 =
      total_timed_flops(run_app("ntchem", 2, 1, Dataset::kSmall, 1).trace);
  const double n3 =
      total_timed_flops(run_app("ntchem", 2, 1, Dataset::kSmall, 3).trace);
  EXPECT_NEAR(n3 / n1, 3.0, 0.05);
  // ffvc has a one-off diagnostic prologue, so the ratio is below 3 but the
  // work must still grow substantially.
  const double f1 =
      total_timed_flops(run_app("ffvc", 2, 1, Dataset::kSmall, 1).trace);
  const double f3 =
      total_timed_flops(run_app("ffvc", 2, 1, Dataset::kSmall, 3).trace);
  EXPECT_GT(f3 / f1, 2.0);
  EXPECT_LT(f3 / f1, 3.0);
}

// Golden check values: the exact bits every app reports at fixed inputs,
// full and collapsed. An app's check value folds its global reductions, so
// any change to a collective's fold order (or to a kernel) moves these bits
// even where the predictions, which depend on the trace shape only, stay.
struct GoldenCase {
  const char* app;
  int ranks;
  int threads;
  int nodes;
  bool collapse;
  std::uint64_t bits;
};

constexpr GoldenCase kGolden[] = {
    {"ccs_qcd", 4, 12, 1, false, 0x3ce7bc7d332f1713},
    {"ccs_qcd", 48, 1, 1, false, 0x3ce7bc7d332f170e},
    {"ccs_qcd", 16, 2, 2, true, 0x3ce31b4c3c1ae621},
    {"ffvc", 4, 12, 1, false, 0xc0e3240e9b2b7c85},
    {"ffvc", 48, 1, 1, false, 0xc0e3240e9b2b7c84},
    {"ffvc", 16, 2, 2, true, 0xc0df187f0fe1139e},
    {"nicam", 4, 12, 1, false, 0x3cb7bba790af502f},
    {"nicam", 48, 1, 1, false, 0x3ca7bba790af502e},
    {"nicam", 16, 2, 2, true, 0x3caaf9e3e83ccd20},
    {"mvmc", 4, 12, 1, false, 0x3d9329c000000000},
    {"mvmc", 48, 1, 1, false, 0x3d9329c000000000},
    {"mvmc", 16, 2, 2, true, 0x3d49128000000000},
    {"ngsa", 4, 12, 1, false, 0x4043000000000000},
    {"ngsa", 48, 1, 1, false, 0x4043000000000000},
    {"ngsa", 16, 2, 2, true, 0x4043000000000000},
    {"modylas", 4, 12, 1, false, 0x3dba1d0d49180fc7},
    {"modylas", 48, 1, 1, false, 0x3dba1d0d49180fc7},
    {"modylas", 16, 2, 2, true, 0x3dbc20cca1212ce1},
    {"ntchem", 4, 12, 1, false, 0x3ccbabccff123a5d},
    {"ntchem", 48, 1, 1, false, 0x3cb6230a65a82eb5},
    {"ntchem", 16, 2, 2, true, 0x3cc61d643f355817},
    {"ffb", 4, 12, 1, false, 0x3f30848445020b35},
    {"ffb", 48, 1, 1, false, 0x3f30848445020b32},
    {"ffb", 16, 2, 2, true, 0x3f26b8219847535b},
};

TEST(Miniapps, CheckValuesMatchTheirGoldenBits) {
  core::Runner runner;
  for (const GoldenCase& g : kGolden) {
    core::ExperimentConfig cfg;
    cfg.app = g.app;
    cfg.ranks = g.ranks;
    cfg.threads = g.threads;
    cfg.nodes = g.nodes;
    cfg.collapse = g.collapse;
    const std::size_t native_before = runner.collapse_native_ranks();
    const core::ExperimentResult res = runner.run(cfg);
    const auto bits = std::bit_cast<std::uint64_t>(res.check_value);
    const std::string label = std::string(g.app) + " " +
                              std::to_string(g.ranks) + "x" +
                              std::to_string(g.threads) +
                              (g.collapse ? " collapsed" : "");
    EXPECT_TRUE(res.verified) << label;
    EXPECT_EQ(bits, g.bits) << label << ": got 0x" << std::hex << bits;
    if (g.collapse) {
      // The case must really have run collapsed, not fallen back to full.
      EXPECT_LT(runner.collapse_native_ranks() - native_before,
                static_cast<std::size_t>(g.ranks))
          << label;
    }
  }
}

}  // namespace
}  // namespace fibersim::apps

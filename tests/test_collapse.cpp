// The byte-identity contract of collapsed simulation (DESIGN.md "Collapsed
// simulation and the hierarchical network model"): wherever a full
// simulation is feasible, executing one representative rank per symmetry
// class and replicating the rest analytically must reproduce the full run's
// trace, its prediction and its report output bit for bit — across every
// miniapp and dataset. These tests pin that contract at rank counts where
// both paths run, which is what licenses trusting the collapsed path at
// 10^5-10^6 ranks where the full path cannot.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "cg/compile_options.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/reports.hpp"
#include "core/runner.hpp"
#include "machine/descriptor.hpp"
#include "machine/processor.hpp"
#include "miniapps/miniapp.hpp"
#include "mp/job.hpp"
#include "mp/symmetry.hpp"
#include "rt/thread_team.hpp"
#include "trace/collapsed.hpp"
#include "trace/predict.hpp"
#include "trace/recorder.hpp"
#include "trace/trace_store.hpp"

namespace fibersim {
namespace {

namespace fs = std::filesystem;

/// Unique scratch directory, removed on destruction.
struct TempDir {
  explicit TempDir(const std::string& tag) {
    static std::atomic<int> counter{0};
    path = fs::temp_directory_path() /
           ("fibersim-test-" + tag + "-" +
            std::to_string(static_cast<long>(::getpid())) + "-" +
            std::to_string(counter.fetch_add(1)));
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  fs::path path;
  std::string str() const { return path.string(); }
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// 16 ranks is the smallest count where every app in the suite collapses:
// the 3-D cart apps (ffvc, ffb) land on a 4x2x2 grid with interior x
// coordinates (12 classes), the 1-D counts apps all divide evenly (1 class).
constexpr int kRanks = 16;
constexpr int kThreads = 2;
constexpr int kIterations = 1;
constexpr std::uint64_t kSeed = 42;

trace::JobTrace run_full(const std::string& name, apps::Dataset dataset,
                         int ranks = kRanks, int threads = kThreads) {
  trace::JobTrace trace(static_cast<std::size_t>(ranks));
  mp::Job::run(ranks, [&](mp::Comm& comm) {
    rt::ThreadTeam team(threads);
    trace::Recorder rec(&comm);
    apps::RunContext ctx;
    ctx.comm = &comm;
    ctx.team = &team;
    ctx.recorder = &rec;
    ctx.dataset = dataset;
    ctx.seed = kSeed;
    ctx.iterations = kIterations;
    const auto app = apps::create_miniapp(name);
    (void)app->run(ctx);
    trace[static_cast<std::size_t>(comm.rank())] = rec.phases();
  });
  return trace;
}

trace::CollapsedTrace run_collapsed(const std::string& name,
                                    apps::Dataset dataset,
                                    int ranks = kRanks,
                                    int threads = kThreads) {
  const mp::CollapseSpec spec =
      apps::create_miniapp(name)->collapse_spec(dataset, /*weak_scale=*/1);
  EXPECT_TRUE(spec.collapsible()) << name << " declares no collapse spec";
  mp::RankSymmetry symmetry = mp::RankSymmetry::build(spec, ranks);
  trace::JobTrace reps(static_cast<std::size_t>(symmetry.classes()));
  mp::Job::run_collapsed(symmetry, [&](mp::Comm& comm) {
    rt::ThreadTeam team(threads);
    trace::Recorder rec(&comm);
    apps::RunContext ctx;
    ctx.comm = &comm;
    ctx.team = &team;
    ctx.recorder = &rec;
    ctx.dataset = dataset;
    ctx.seed = kSeed;
    ctx.iterations = kIterations;
    const auto app = apps::create_miniapp(name);
    (void)app->run(ctx);
    reps[static_cast<std::size_t>(symmetry.class_of(comm.rank()))] =
        rec.phases();
  });
  return trace::CollapsedTrace::assemble(std::move(symmetry), reps);
}

/// One 3-path comparison: an app/dataset recorded at ranks x threads,
/// predicted on `processor` under `compile`, placed on `nodes` nodes. The
/// defaults are the single-node kRanks x kThreads a64fx/simd_sched/block/
/// compact point every app and dataset is pinned at; seeded cases vary the
/// rest.
struct CollapseCase {
  std::string app;
  apps::Dataset dataset;
  std::string label;  ///< test-name prefix ("" for the fixed cases)
  machine::ProcessorConfig processor = machine::a64fx();
  cg::CompileOptions compile = cg::CompileOptions::simd_sched();
  topo::RankAllocPolicy alloc = topo::RankAllocPolicy::kBlock;
  topo::ThreadBindPolicy bind = topo::ThreadBindPolicy::compact();
  int nodes = 1;
  int ranks = kRanks;
  int threads = kThreads;
};

void PrintTo(const CollapseCase& c, std::ostream* os) {
  *os << c.label << c.app << "_"
      << (c.dataset == apps::Dataset::kSmall ? "small" : "large");
}

/// Every comparison-set processor plus each -boost/-eco mode it declares.
std::vector<machine::ProcessorConfig> processors_with_modes() {
  std::vector<machine::ProcessorConfig> out;
  for (const machine::ProcessorConfig& base : machine::comparison_set()) {
    out.push_back(base);
    for (const machine::PowerMode mode :
         {machine::PowerMode::kBoost, machine::PowerMode::kEco}) {
      const machine::ProcessorConfig modal =
          machine::with_power_mode(base, mode);
      if (!(modal == base)) out.push_back(modal);
    }
  }
  return out;
}

// Seeded multi-node cases: the fixed cases all sit on one node, so only
// these reach the torus-contention (kRemoteNode) branch of the comm model.
constexpr int kSeededCases = 12;
constexpr std::uint64_t kCaseSeed = 20210917;

/// `p` with every real-valued parameter scaled by a seeded factor in
/// [0.8, 1.25) and clamped into validate()'s ranges: a processor no
/// built-in matches, for the descriptor round trip and all three paths.
machine::ProcessorConfig perturbed(machine::ProcessorConfig p,
                                   Xoshiro256& rng) {
  for (double* v :
       {&p.freq_hz, &p.boost_freq_hz, &p.vec.gather_lanes_per_cycle,
        &p.fp_latency_cycles, &p.scalar_ipc, &p.mem_overlap,
        &p.branch_miss_penalty_cycles, &p.l1.capacity_bytes,
        &p.l1.bytes_per_cycle, &p.l1.latency_cycles, &p.l2.capacity_bytes,
        &p.l2.bytes_per_cycle, &p.l2.latency_cycles, &p.numa_mem_bw,
        &p.numa_mem_latency_ns, &p.inter_numa_bw, &p.inter_numa_latency_ns,
        &p.inter_socket_bw, &p.inter_socket_latency_ns, &p.net.injection_bw,
        &p.net.link_bw, &p.net.base_latency_us, &p.net.hop_latency_ns,
        &p.intra_node_msg_latency_ns, &p.barrier_hop_ns_same_numa,
        &p.barrier_hop_ns_cross_numa, &p.barrier_hop_ns_cross_socket,
        &p.watts_base, &p.watts_per_core_active, &p.watts_per_GBps_dram,
        &p.freq_power_exponent, &p.eco_core_power_scale}) {
    *v *= rng.uniform(0.8, 1.25);
  }
  p.fp_latency_cycles = std::max(p.fp_latency_cycles, 1.0);
  p.mem_overlap = std::min(p.mem_overlap, 1.0);
  p.freq_power_exponent = std::max(p.freq_power_exponent, 1.0);
  p.eco_core_power_scale = std::min(p.eco_core_power_scale, 1.0);
  p.validate();
  return p;
}

std::vector<CollapseCase> all_cases() {
  std::vector<CollapseCase> cases;
  const std::vector<std::string> names = apps::registry_names();
  for (const auto& name : names) {
    cases.push_back({name, apps::Dataset::kSmall, ""});
    cases.push_back({name, apps::Dataset::kLarge, ""});
  }
  const std::vector<machine::ProcessorConfig> procs = processors_with_modes();
  const std::vector<cg::CompileOptions> presets = cg::search_presets();
  const auto pick = [](Xoshiro256& rng, const auto& items) {
    return items[static_cast<std::size_t>(rng.bounded(items.size()))];
  };
  Xoshiro256 rng(kCaseSeed);
  for (int i = 0; i < kSeededCases; ++i) {
    // Apps round-robin so every app, both grid apps included, gets a case.
    CollapseCase c{names[static_cast<std::size_t>(i) % names.size()],
                   rng.bounded(2) ? apps::Dataset::kLarge
                                  : apps::Dataset::kSmall,
                   "seeded" + std::to_string(i) + "_"};
    c.processor = pick(rng, procs);
    c.compile = pick(rng, presets);
    c.alloc = rng.bounded(2) ? topo::RankAllocPolicy::kScatter
                             : topo::RankAllocPolicy::kBlock;
    c.bind = rng.bounded(2) ? topo::ThreadBindPolicy::scatter()
                            : topo::ThreadBindPolicy::compact();
    c.nodes = 2 << rng.bounded(3);  // 2, 4 or 8: every rank count divides
    c.ranks = pick(rng, std::vector<int>{8, 16, 32});
    // A non-periodic 2x2x2 grid keeps all 8 ranks distinct; every app
    // collapses from 16 ranks (see kRanks).
    const mp::CollapseSpec spec =
        apps::create_miniapp(c.app)->collapse_spec(c.dataset, 1);
    if (mp::RankSymmetry::build(spec, c.ranks).classes() == c.ranks) {
      c.ranks *= 2;
    }
    std::vector<int> fits;
    for (const int t : {1, 2, 4, 12}) {
      if (c.ranks / c.nodes * t <= c.processor.shape.cores_per_node()) {
        fits.push_back(t);
      }
    }
    c.threads = pick(rng, fits);
    c.label += std::to_string(c.ranks) + "x" + std::to_string(c.threads) + "_";
    cases.push_back(std::move(c));
  }
  // Drawn after every other field so those keep their values.
  for (std::size_t i = cases.size() - kSeededCases; i < cases.size(); ++i) {
    cases[i].processor = perturbed(cases[i].processor, rng);
  }
  return cases;
}

class CollapseByteIdentity : public ::testing::TestWithParam<CollapseCase> {};

// The core contract: CollapsedTrace::expand() equals the JobTrace a full
// run records, bit for bit, for every rank and phase.
TEST_P(CollapseByteIdentity, ExpandEqualsFullRun) {
  const CollapseCase c = GetParam();
  const trace::JobTrace full = run_full(c.app, c.dataset, c.ranks, c.threads);
  const trace::CollapsedTrace collapsed =
      run_collapsed(c.app, c.dataset, c.ranks, c.threads);
  EXPECT_GT(collapsed.native_ranks(), 0);
  EXPECT_LT(collapsed.native_ranks(), c.ranks)
      << c.app << " collapse saved nothing at " << c.ranks << " ranks";
  const trace::JobTrace expanded = collapsed.expand();
  ASSERT_EQ(expanded.size(), full.size());
  for (std::size_t r = 0; r < full.size(); ++r) {
    ASSERT_EQ(expanded[r].size(), full[r].size()) << "rank " << r;
    for (std::size_t p = 0; p < full[r].size(); ++p) {
      EXPECT_TRUE(trace::records_equal(expanded[r][p], full[r][p]))
          << c.app << " rank " << r << " phase " << full[r][p].name;
    }
  }
}

// The collapsed prediction path never materialises the expansion; it must
// still produce bit-identical numbers to the naive and canonical paths.
TEST_P(CollapseByteIdentity, PredictionBitsAgreeAcrossAllThreePaths) {
  const CollapseCase c = GetParam();
  const trace::JobTrace full = run_full(c.app, c.dataset, c.ranks, c.threads);
  const trace::CollapsedTrace collapsed =
      run_collapsed(c.app, c.dataset, c.ranks, c.threads);

  // Every processor goes through its descriptor first: the shortest-form
  // doubles must read back bit-exactly, or the paths below would disagree
  // with the processor the case was drawn with.
  const machine::ProcessorConfig cfg =
      machine::parse_descriptor(machine::to_descriptor(c.processor));
  ASSERT_TRUE(cfg == c.processor) << machine::to_descriptor(c.processor);
  const cg::CompileOptions& opts = c.compile;
  const topo::Topology topo(cfg.shape, c.nodes);
  const topo::Binding binding =
      topo::Binding::make(topo, c.ranks, c.threads, c.alloc, c.bind);
  if (c.nodes > 1) {
    ASSERT_EQ(binding.job_span(), topo::Distance::kRemoteNode);
    // An app with point-to-point traffic must send across nodes here, or
    // the case never reaches the torus-contention branch.
    bool any_send = false;
    bool remote_send = false;
    for (std::size_t r = 0; r < full.size(); ++r) {
      for (const trace::PhaseRecord& rec : full[r]) {
        for (const auto& [dst, flow] : rec.comm.sends) {
          any_send = true;
          remote_send |= binding.rank_distance(static_cast<int>(r), dst) ==
                         topo::Distance::kRemoteNode;
        }
      }
    }
    EXPECT_EQ(remote_send, any_send);
  }

  const auto naive = trace::predict_job(cfg, opts, binding, full);
  const auto canonical = trace::predict_job(
      cfg, opts, binding, trace::CanonicalTrace::build(full));
  const auto coll = trace::predict_job(cfg, opts, binding, collapsed);

  for (const auto* pred : {&canonical, &coll}) {
    EXPECT_TRUE(same_bits(pred->total_s, naive.total_s));
    EXPECT_TRUE(same_bits(pred->compute_s, naive.compute_s));
    EXPECT_TRUE(same_bits(pred->memory_s, naive.memory_s));
    EXPECT_TRUE(same_bits(pred->comm_s, naive.comm_s));
    EXPECT_TRUE(same_bits(pred->barrier_s, naive.barrier_s));
    EXPECT_TRUE(same_bits(pred->setup_s, naive.setup_s));
    EXPECT_TRUE(same_bits(pred->flops, naive.flops));
    ASSERT_EQ(pred->phases.size(), naive.phases.size());
    for (std::size_t p = 0; p < naive.phases.size(); ++p) {
      EXPECT_EQ(pred->phases[p].name, naive.phases[p].name);
      EXPECT_TRUE(same_bits(pred->phases[p].comm_s, naive.phases[p].comm_s))
          << c.app << " phase " << naive.phases[p].name;
      EXPECT_TRUE(same_bits(pred->phases[p].total_s, naive.phases[p].total_s))
          << c.app << " phase " << naive.phases[p].name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllAppsAllDatasets, CollapseByteIdentity,
                         ::testing::ValuesIn(all_cases()),
                         ::testing::PrintToStringParamName());

// rank_sends must agree with the per-rank maps of the expansion (same dsts,
// same counts, ascending order) — the prediction path consumes it directly.
TEST(CollapsedTrace, RankSendsMatchExpandedRecords) {
  const trace::CollapsedTrace collapsed =
      run_collapsed("ffvc", apps::Dataset::kSmall);
  const trace::JobTrace expanded = collapsed.expand();
  std::vector<trace::CollapsedTrace::RankSend> sends;
  for (std::size_t p = 0; p < collapsed.phase_count(); ++p) {
    for (int r = 0; r < collapsed.ranks(); ++r) {
      collapsed.rank_sends(p, r, &sends);
      const auto& map = expanded[static_cast<std::size_t>(r)][p].comm.sends;
      ASSERT_EQ(sends.size(), map.size()) << "rank " << r << " phase " << p;
      std::size_t i = 0;
      for (const auto& [dst, flow] : map) {
        EXPECT_EQ(sends[i].dst, dst);
        EXPECT_EQ(sends[i].messages, flow.messages);
        EXPECT_EQ(sends[i].bytes, flow.bytes);
        ++i;
      }
    }
  }
}

// ----- runner integration -----

core::ExperimentConfig collapse_config(const std::string& app,
                                       bool collapse) {
  core::ExperimentConfig cfg;
  cfg.app = app;
  cfg.dataset = apps::Dataset::kSmall;
  cfg.ranks = kRanks;
  cfg.threads = kThreads;
  cfg.iterations = kIterations;
  cfg.collapse = collapse;
  return cfg;
}

TEST(RunnerCollapse, PredictionMatchesFullRunBitForBit) {
  core::Runner runner;
  const auto full = runner.run(collapse_config("ffvc", false));
  const auto coll = runner.run(collapse_config("ffvc", true));
  EXPECT_TRUE(coll.verified);
  EXPECT_TRUE(same_bits(coll.seconds(), full.seconds()));
  EXPECT_TRUE(same_bits(coll.prediction.comm_s, full.prediction.comm_s));
  EXPECT_TRUE(same_bits(coll.prediction.flops, full.prediction.flops));
  // Distinct cache keys: the two runs must not have shared an execution.
  EXPECT_EQ(runner.native_runs(), 2u);
}

TEST(RunnerCollapse, CountersReportClassesAndReplicatedRanks) {
  core::Runner runner;
  (void)runner.run(collapse_config("ffvc", true));
  const std::size_t classes = runner.collapse_classes();
  EXPECT_GT(classes, 0u);
  EXPECT_LT(classes, static_cast<std::size_t>(kRanks));
  EXPECT_EQ(runner.collapse_native_ranks(), classes);
  EXPECT_EQ(runner.collapse_replicated_ranks(),
            static_cast<std::size_t>(kRanks) - classes);
  // A full run must not move the collapse counters.
  (void)runner.run(collapse_config("ffvc", false));
  EXPECT_EQ(runner.collapse_classes(), classes);
}

TEST(RunnerCollapse, StoreRoundTripRehydratesCollapsedExecution) {
  TempDir dir("collapse-store");
  const auto store = std::make_shared<trace::TraceStore>(dir.str());

  core::Runner cold;
  cold.set_trace_store(store);
  const auto first = cold.run(collapse_config("modylas", true));
  EXPECT_EQ(cold.native_runs(), 1u);
  EXPECT_EQ(cold.disk_writes(), 1u);
  const std::size_t classes = cold.collapse_classes();
  EXPECT_GT(classes, 0u);

  // A warm runner loads the representative traces from disk, re-derives the
  // symmetry and replicates — no native execution, identical prediction.
  core::Runner warm;
  warm.set_trace_store(store);
  const auto second = warm.run(collapse_config("modylas", true));
  EXPECT_EQ(warm.native_runs(), 0u);
  EXPECT_EQ(warm.disk_hits(), 1u);
  EXPECT_TRUE(same_bits(second.seconds(), first.seconds()));
  EXPECT_EQ(warm.collapse_classes(), classes);
  EXPECT_EQ(warm.collapse_native_ranks(), 0u);  // nothing executed natively
  EXPECT_EQ(warm.collapse_replicated_ranks(),
            static_cast<std::size_t>(kRanks) - classes);
}

TEST(RunnerCollapse, CollapsedAndFullStoreEntriesAreDistinct) {
  TempDir dir("collapse-key");
  const auto store = std::make_shared<trace::TraceStore>(dir.str());
  core::Runner runner;
  runner.set_trace_store(store);
  (void)runner.run(collapse_config("ffvc", true));
  (void)runner.run(collapse_config("ffvc", false));
  // The collapse flag is part of the store key: two writes, no false hit.
  EXPECT_EQ(runner.disk_writes(), 2u);
  EXPECT_EQ(runner.disk_hits(), 0u);
}

// ----- report byte-identity -----

std::string render(const TextTable& t) {
  std::ostringstream os;
  t.print(os);
  return os.str();
}

// The choke point every report funnels through (run_experiments_resilient)
// flips ExperimentConfig::collapse; the rendered bytes must not move. CI
// diffs full reports the same way — this is the in-process pin.
TEST(ReportCollapse, RenderedBytesIdenticalWithAndWithoutCollapse) {
  core::Runner runner;
  core::ReportContext ctx;
  ctx.runner = &runner;
  ctx.app_names = {"ffvc", "modylas"};
  ctx.dataset = apps::Dataset::kSmall;
  ctx.iterations = 1;

  const std::string full = render(core::multinode_scaling_table(ctx, {1, 2}));
  ctx.collapse = true;
  const std::string collapsed =
      render(core::multinode_scaling_table(ctx, {1, 2}));
  EXPECT_EQ(full, collapsed);
  EXPECT_GT(runner.collapse_classes(), 0u);

  ctx.collapse = false;
  const std::string weak_full =
      render(core::weak_scaling_table(ctx, {1, 2}));
  ctx.collapse = true;
  const std::string weak_collapsed =
      render(core::weak_scaling_table(ctx, {1, 2}));
  EXPECT_EQ(weak_full, weak_collapsed);
}

}  // namespace
}  // namespace fibersim

// micro_fault_overhead — cost of the fault-injection hooks.
//
// The fault hooks sit on three hot paths: every mp message delivery and
// communication op (null Session check), every rt parallel-region entry
// (null Session check), and every Runner::run (one relaxed atomic load).
// This bench times each path in two modes on an identical workload:
//
//   * off:   no plan installed — the shipping default. The hook cost is the
//            check itself; this is the number the "~zero overhead when no
//            plan is active" claim in DESIGN.md rests on.
//   * armed: a plan with vanishingly small probabilities (1e-12) installed,
//            so every site performs its full deterministic draw but no fault
//            ever fires — the worst-case bookkeeping cost of active
//            injection.
//
// Results (wall seconds, ops/s and the armed/off overhead ratio per path) go
// to stdout and a JSON file (default BENCH_fault.json in the current
// directory — run from the repo root to refresh the committed artifact).
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/parse_num.hpp"
#include "common/report_emit.hpp"
#include "common/string_util.hpp"
#include "common/timer.hpp"
#include "core/runner.hpp"
#include "fault/fault.hpp"
#include "mp/job.hpp"
#include "rt/thread_team.hpp"

namespace {

using namespace fibersim;

/// Median-of-repeats wall time of `fn()`.
template <typename Fn>
double time_best(int repeats, Fn&& fn) {
  double best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    WallTimer timer;
    fn();
    const double t = timer.elapsed();
    if (r == 0 || t < best) best = t;
  }
  return best;
}

struct PathResult {
  double off_s = 0.0;
  double armed_s = 0.0;
  double ops = 0.0;
};

double overhead(const PathResult& r) {
  return r.off_s > 0.0 ? r.armed_s / r.off_s - 1.0 : 0.0;
}

double off_ops_per_s(const PathResult& r) {
  return r.off_s > 0.0 ? r.ops / r.off_s : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  int repeats = 5;
  std::string out_path = "BENCH_fault.json";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << a << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--repeats") {
      const std::string v = value();
      const std::optional<int> n = fibersim::parse_i32(v);
      if (!n || *n < 1) {
        std::cerr << "--repeats: expected an integer >= 1, got '" << v
                  << "'\n";
        std::exit(2);
      }
      repeats = *n;
    } else if (a == "--out") {
      out_path = value();
    } else {
      std::cerr << "unknown argument: " << a << "\n";
      std::exit(2);
    }
  }

  // The armed plan: full draw bookkeeping at every site, zero fired faults.
  const fault::Plan armed_plan = fault::Plan::parse(
      "mp.drop=1e-12;mp.dup=1e-12;mp.delay=1e-12;mp.rankdeath=1e-12;"
      "rt.throw=1e-12");

  // --- mp path: ring p2p + allreduce rounds over one 4-rank job ----------
  constexpr int kRanks = 4;
  constexpr int kRounds = 500;
  const auto mp_workload = [](const fault::Session* faults) {
    mp::Job::run(
        kRanks,
        [](mp::Comm& comm) {
          const int next = (comm.rank() + 1) % comm.size();
          const int prev = (comm.rank() + comm.size() - 1) % comm.size();
          double acc = 0.0;
          for (int round = 0; round < kRounds; ++round) {
            comm.send_value(next, 0, static_cast<double>(round));
            acc += comm.recv_value<double>(prev, 0);
            acc = comm.allreduce_sum(acc);
          }
          static_cast<void>(acc);
        },
        faults);
  };
  PathResult mp_result;
  // sends + recvs + allreduce per round, per rank: the op count the hook
  // executes on (allreduce fans out internally, counted as one op here).
  mp_result.ops = static_cast<double>(kRanks) * kRounds * 3;
  mp_result.off_s = time_best(repeats, [&] { mp_workload(nullptr); });
  {
    fault::ScopedPlan scoped(armed_plan);
    const fault::Session session(fault::active(), 1, 0);
    mp_result.armed_s = time_best(repeats, [&] { mp_workload(&session); });
  }

  // --- rt path: parallel-region storm on a 4-thread team -----------------
  constexpr int kRegions = 2000;
  PathResult rt_result;
  rt_result.ops = static_cast<double>(kRegions);
  {
    rt::ThreadTeam team(4);
    rt_result.off_s = time_best(repeats, [&] {
      for (int i = 0; i < kRegions; ++i) {
        team.parallel([](int) {});
      }
    });
  }
  {
    fault::ScopedPlan scoped(armed_plan);
    const fault::Session session(fault::active(), 2, 0);
    rt::ThreadTeam team(4);
    team.set_faults(&session, 0);
    rt_result.armed_s = time_best(repeats, [&] {
      for (int i = 0; i < kRegions; ++i) {
        team.parallel([](int) {});
      }
    });
  }

  // --- runner path: cached-run (predict) throughput -----------------------
  constexpr int kPredictions = 100;
  core::ExperimentConfig cfg;
  cfg.app = "ffvc";
  cfg.dataset = apps::Dataset::kSmall;
  cfg.ranks = 2;
  cfg.threads = 2;
  cfg.iterations = 1;
  PathResult runner_result;
  runner_result.ops = static_cast<double>(kPredictions);
  {
    core::Runner runner;
    (void)runner.run(cfg);  // warm the execution cache
    runner_result.off_s = time_best(repeats, [&] {
      for (int i = 0; i < kPredictions; ++i) (void)runner.run(cfg);
    });
  }
  {
    fault::ScopedPlan scoped(armed_plan);
    core::Runner runner;
    (void)runner.run(cfg);
    runner_result.armed_s = time_best(repeats, [&] {
      for (int i = 0; i < kPredictions; ++i) (void)runner.run(cfg);
    });
  }

  // Stdout summary goes through the shared report emitter (same renderer as
  // the experiment registry); the JSON artifact gets the same rows.
  ReportArtifact artifact;
  artifact.id = "micro_fault_overhead";
  TextTable table({"path", "off s", "off ops/s", "armed s", "overhead"});
  json::Writer json(json::Writer::Layout::kIndented);
  json.begin_object().field("repeats", repeats);
  const auto report = [&](const char* name, const PathResult& r) {
    table.add_row({name, strfmt("%g", r.off_s), strfmt("%g", off_ops_per_s(r)),
                   strfmt("%g", r.armed_s),
                   strfmt("%g%%", overhead(r) * 100.0)});
    artifact.metrics.push_back(
        {std::string(name) + "_armed_overhead", overhead(r), "fraction"});
    json.key(name)
        .begin_object()
        .field("ops", r.ops)
        .field("off_seconds", r.off_s)
        .field("off_ops_per_s", off_ops_per_s(r))
        .field("armed_seconds", r.armed_s)
        .field("armed_overhead", overhead(r))
        .end_object();
  };
  report("mp", mp_result);
  report("rt", rt_result);
  report("runner", runner_result);
  artifact.add_table("micro_fault_overhead: hook cost with no plan active",
                     table);
  EmitOptions emit_opts;
  emit_opts.framed = true;
  emit_report(artifact, emit_opts, std::cout);

  json.end_object();
  std::ofstream out(out_path);
  out << std::move(json).take();
  if (!out) {
    std::cerr << "failed to write " << out_path << "\n";
    return 1;
  }
  std::cout << "wrote " << out_path << "\n";
  return 0;
}

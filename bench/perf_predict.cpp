// perf_predict — raw vs memoized sweep prediction cost.
//
// Records one native trace (the expensive part a sweep amortises), then
// evaluates a T2/F1-style sweep — processors x compile options x bindings on
// a fixed (app, dataset, ranks, threads) point — twice:
//
//   * naive:    predict_job on the raw JobTrace, re-running codegen and the
//               exec model per rank x thread for every config;
//   * memoized: predict_job on the CanonicalTrace through shared
//               CodegenCache/EvalCache memo layers (the Runner path).
//
// Both paths must agree bitwise on every prediction; the bench aborts if they
// do not. Results (wall seconds, predictions/s, eval counts and their
// reduction ratios) go to stdout and to a JSON file (default
// BENCH_predict.json in the current directory — run from the repo root to
// refresh the committed artifact).
#include <bit>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cg/codegen_cache.hpp"
#include "common/json.hpp"
#include "common/parse_num.hpp"
#include "common/report_emit.hpp"
#include "common/string_util.hpp"
#include "common/timer.hpp"
#include "core/runner.hpp"
#include "core/sweep.hpp"
#include "machine/eval_cache.hpp"
#include "trace/canonical.hpp"
#include "trace/predict.hpp"

namespace {

using namespace fibersim;

struct SweepPoint {
  machine::ProcessorConfig processor;
  cg::CompileOptions compile;
  topo::Binding binding;
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool identical(const trace::JobPrediction& a, const trace::JobPrediction& b) {
  if (a.phases.size() != b.phases.size()) return false;
  bool ok = same_bits(a.total_s, b.total_s) &&
            same_bits(a.compute_s, b.compute_s) &&
            same_bits(a.memory_s, b.memory_s) &&
            same_bits(a.comm_s, b.comm_s) &&
            same_bits(a.barrier_s, b.barrier_s) &&
            same_bits(a.flops, b.flops) &&
            same_bits(a.dram_bytes, b.dram_bytes) &&
            same_bits(a.setup_s, b.setup_s);
  for (std::size_t p = 0; ok && p < a.phases.size(); ++p) {
    ok = a.phases[p].name == b.phases[p].name &&
         same_bits(a.phases[p].total_s, b.phases[p].total_s) &&
         same_bits(a.phases[p].comm_s, b.phases[p].comm_s) &&
         same_bits(a.phases[p].time.total_s, b.phases[p].time.total_s);
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::string app = "ffvc";
  apps::Dataset dataset = apps::Dataset::kSmall;
  int ranks = 4;
  int threads = 12;
  int repeats = 4;
  std::string out_path = "BENCH_predict.json";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << a << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--app") {
      app = value();
    } else if (a == "--dataset") {
      dataset = value() == "large" ? apps::Dataset::kLarge
                                   : apps::Dataset::kSmall;
    } else if (a == "--repeats") {
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

  // One native run supplies the trace every sweep point re-evaluates.
  core::Runner runner;
  core::ExperimentConfig base;
  base.app = app;
  base.dataset = dataset;
  base.ranks = ranks;
  base.threads = threads;
  const core::ExperimentResult seed_result = runner.run(base);
  const trace::JobTrace& raw = seed_result.job_trace;
  const trace::CanonicalTrace canonical = trace::CanonicalTrace::build(raw);

  // The sweep: processors x compile presets x (alloc x bind) placements.
  // 3 x 3 x 3 x 2 = 54 configs, all sharing the single trace above.
  const std::vector<cg::CompileOptions> option_presets = {
      cg::CompileOptions::as_is(), cg::CompileOptions::simd_enhanced(),
      cg::CompileOptions::simd_sched()};
  const std::vector<topo::ThreadBindPolicy> binds = {
      topo::ThreadBindPolicy::compact(), topo::ThreadBindPolicy::scatter()};
  std::vector<SweepPoint> points;
  for (const machine::ProcessorConfig& proc : machine::comparison_set()) {
    const topo::Topology topology(proc.shape, 1);
    for (const cg::CompileOptions& opts : option_presets) {
      for (const topo::RankAllocPolicy alloc : core::alloc_policies()) {
        for (const topo::ThreadBindPolicy& bind : binds) {
          points.push_back(SweepPoint{
              proc, opts,
              topo::Binding::make(topology, ranks, threads, alloc, bind)});
        }
      }
    }
  }

  // Naive eval counts per pass, derived from the loop structure of the raw
  // predictor: codegen runs once per rank per phase; the exec model once per
  // thread entry (ranks x threads for parallel phases, ranks for serial).
  std::size_t naive_codegen_per_pass = 0;
  std::size_t naive_exec_per_pass = 0;
  for (const trace::PhaseRecord& rec : raw.front()) {
    naive_codegen_per_pass += static_cast<std::size_t>(ranks);
    naive_exec_per_pass += static_cast<std::size_t>(ranks) *
                           (rec.parallel && threads > 1
                                ? static_cast<std::size_t>(threads)
                                : 1u);
  }
  naive_codegen_per_pass *= points.size();
  naive_exec_per_pass *= points.size();

  // Agreement check first: every sweep point, both paths, compared bitwise.
  cg::CodegenCache codegen_cache;
  machine::EvalCache eval_cache;
  const trace::PredictMemo memo{&codegen_cache, &eval_cache};
  for (const SweepPoint& pt : points) {
    const trace::JobPrediction a =
        trace::predict_job(pt.processor, pt.compile, pt.binding, raw);
    const trace::JobPrediction b = trace::predict_job(
        pt.processor, pt.compile, pt.binding, canonical, memo);
    if (!identical(a, b)) {
      std::cerr << "FATAL: memoized prediction diverged from naive path\n";
      return 1;
    }
  }
  const std::size_t codegen_evals = codegen_cache.evals();
  const std::size_t exec_evals = eval_cache.evals();

  // Timing passes. The memo pass reuses the (now warm) caches, which is the
  // steady state a long sweep runs in; the canonicalization cost is timed
  // separately and paid once per trace.
  WallTimer timer;
  for (int r = 0; r < repeats; ++r) {
    for (const SweepPoint& pt : points) {
      const trace::JobPrediction p =
          trace::predict_job(pt.processor, pt.compile, pt.binding, raw);
      static_cast<void>(p);
    }
  }
  const double naive_s = timer.elapsed() / repeats;

  timer.reset();
  const trace::CanonicalTrace rebuilt = trace::CanonicalTrace::build(raw);
  const double canonicalize_s = timer.elapsed();
  static_cast<void>(rebuilt);

  timer.reset();
  for (int r = 0; r < repeats; ++r) {
    for (const SweepPoint& pt : points) {
      const trace::JobPrediction p = trace::predict_job(
          pt.processor, pt.compile, pt.binding, canonical, memo);
      static_cast<void>(p);
    }
  }
  const double memo_s = timer.elapsed() / repeats;

  const double speedup = memo_s > 0.0 ? naive_s / memo_s : 0.0;
  const double codegen_ratio =
      codegen_evals > 0
          ? static_cast<double>(naive_codegen_per_pass) /
                static_cast<double>(codegen_evals)
          : 0.0;
  const double exec_ratio =
      exec_evals > 0 ? static_cast<double>(naive_exec_per_pass) /
                           static_cast<double>(exec_evals)
                     : 0.0;

  // Stdout summary goes through the shared report emitter (same renderer as
  // the experiment registry).
  ReportArtifact artifact;
  artifact.id = "perf_predict";
  TextTable table({"quantity", "value"});
  table.add_row({"trace", app + "/" + apps::dataset_name(dataset) + " " +
                             std::to_string(ranks) + "x" +
                             std::to_string(threads)});
  table.add_row({"phases / classes",
                 std::to_string(canonical.phase_count()) + " / " +
                     std::to_string(canonical.class_count())});
  table.add_row({"sweep", strfmt("%zu configs, %d timing passes",
                                 points.size(), repeats)});
  table.add_row({"naive", strfmt("%g s/pass (%g predictions/s)", naive_s,
                                 static_cast<double>(points.size()) / naive_s)});
  table.add_row({"memoized",
                 strfmt("%g s/pass (%g predictions/s)", memo_s,
                        static_cast<double>(points.size()) / memo_s)});
  table.add_row({"canonicalize once", strfmt("%g s", canonicalize_s)});
  table.add_row({"speedup", strfmt("%gx", speedup)});
  table.add_row({"codegen evals",
                 strfmt("%zu -> %zu (%gx fewer)", naive_codegen_per_pass,
                        codegen_evals, codegen_ratio)});
  table.add_row({"exec evals",
                 strfmt("%zu -> %zu (%gx fewer)", naive_exec_per_pass,
                        exec_evals, exec_ratio)});
  ReportSection& section = artifact.add_table(
      "perf_predict: raw vs memoized sweep prediction", table);
  section.notes.push_back("both paths agree bitwise on every prediction");
  artifact.metrics.push_back({"speedup", speedup, "x"});
  artifact.metrics.push_back({"naive_seconds_per_pass", naive_s, "s"});
  artifact.metrics.push_back({"memoized_seconds_per_pass", memo_s, "s"});
  EmitOptions emit_opts;
  emit_opts.framed = true;
  emit_report(artifact, emit_opts, std::cout);

  json::Writer json(json::Writer::Layout::kIndented);
  json.begin_object()
      .field("app", app)
      .field("dataset", apps::dataset_name(dataset))
      .field("ranks", ranks)
      .field("threads", threads)
      .field("configs", points.size())
      .field("phases", canonical.phase_count())
      .field("classes", canonical.class_count())
      .field("bit_identical", true)
      .key("naive")
      .begin_object()
      .field("seconds_per_pass", naive_s)
      .field("codegen_evals", naive_codegen_per_pass)
      .field("exec_evals", naive_exec_per_pass)
      .end_object()
      .key("memoized")
      .begin_object()
      .field("seconds_per_pass", memo_s)
      .field("canonicalize_seconds", canonicalize_s)
      .field("codegen_evals", codegen_evals)
      .field("codegen_lookups", codegen_cache.lookups())
      .field("codegen_hits", codegen_cache.hits())
      .field("exec_evals", exec_evals)
      .field("exec_lookups", eval_cache.lookups())
      .field("exec_hits", eval_cache.hits())
      .end_object()
      .field("speedup", speedup)
      .field("codegen_eval_reduction", codegen_ratio)
      .field("exec_eval_reduction", exec_ratio)
      .end_object();

  std::ofstream out(out_path);
  out << std::move(json).take();
  if (!out) {
    std::cerr << "failed to write " << out_path << "\n";
    return 1;
  }
  std::cout << "wrote " << out_path << "\n";
  return 0;
}

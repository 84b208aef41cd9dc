// perf_tune — successive-halving autotuner vs exhaustive enumeration.
//
// Runs core::Tuner over the full configuration cross-product (every MPI x
// OMP divisor pair x thread stride x rank allocation x compile preset
// [ladder x compiler profile x unroll x fission] x processor) and compares
// it against exhaustively enumerating the same space at the target budget:
//
//   * argmin:   the tuner's recommended config must match the exhaustive
//               optimum's predicted time bitwise;
//   * evals:    the tuner's actual native-run and codegen-eval counts must
//               be >= 50x below what naive exhaustive enumeration would
//               cost (one native run per config; codegen per rank x phase,
//               exec model per thread entry — the loop structure of the
//               naive predict_job path);
//   * determinism: the rendered tune report must be byte-identical for
//               --jobs 1 and --jobs N at the same seed.
//
// The bench exits nonzero if any invariant fails. Results go to stdout and
// to a JSON artifact (default BENCH_tune.json — run from the repo root to
// refresh the committed file; CI re-checks the invariants from the JSON).
#include <bit>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/parse_num.hpp"
#include "common/report_emit.hpp"
#include "common/string_util.hpp"
#include "common/timer.hpp"
#include "core/sweep_pool.hpp"
#include "core/tuner.hpp"

namespace {

using namespace fibersim;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::string render(const core::TuneOutcome& outcome,
                   const core::TunerOptions& opts, ReportFormat format) {
  std::ostringstream os;
  EmitOptions emit_opts;
  emit_opts.format = format;
  emit_report(core::tune_artifact(outcome, opts), emit_opts, os);
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  core::TunerOptions opts;
  opts.app = "ffvc";
  opts.dataset = apps::Dataset::kSmall;
  opts.iterations = 3;
  opts.seed = 42;
  opts.generations = 2;
  int jobs = 4;
  std::string out_path = "BENCH_tune.json";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << a << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    auto int_value = [&](int min) {
      const std::string v = value();
      const std::optional<int> n = fibersim::parse_i32(v);
      if (!n || *n < min) {
        std::cerr << a << ": expected an integer >= " << min << ", got '" << v
                  << "'\n";
        std::exit(2);
      }
      return *n;
    };
    if (a == "--app") {
      opts.app = value();
    } else if (a == "--dataset") {
      opts.dataset = value() == "large" ? apps::Dataset::kLarge
                                        : apps::Dataset::kSmall;
    } else if (a == "--iterations") {
      opts.iterations = int_value(1);
    } else if (a == "--seed") {
      const std::string v = value();
      const std::optional<std::uint64_t> n = fibersim::parse_u64(v);
      if (!n) {
        std::cerr << "--seed: expected a non-negative integer, got '" << v
                  << "'\n";
        std::exit(2);
      }
      opts.seed = *n;
    } else if (a == "--jobs") {
      jobs = int_value(1);
    } else if (a == "--generations") {
      opts.generations = int_value(0);
    } else if (a == "--out") {
      out_path = value();
    } else {
      std::cerr << "unknown argument: " << a << "\n";
      std::exit(2);
    }
  }

  // --- Tuner pass, serial. ---
  opts.jobs = 1;
  WallTimer timer;
  core::Runner tuner_runner;
  core::Tuner tuner(tuner_runner, opts);
  const core::TuneOutcome outcome = tuner.run();
  const double tune_s = timer.elapsed();
  const std::string report_j1 = render(outcome, opts, ReportFormat::kText);
  const std::string report_json = render(outcome, opts, ReportFormat::kJson);

  // --- Determinism pass: same seed, --jobs N, fresh runner. ---
  core::TunerOptions opts_jn = opts;
  opts_jn.jobs = jobs;
  core::Runner jn_runner;
  core::Tuner tuner_jn(jn_runner, opts_jn);
  const core::TuneOutcome outcome_jn = tuner_jn.run();
  // Render under the serial options label so only the results can differ.
  const std::string report_jn = render(outcome_jn, opts, ReportFormat::kText);
  const bool jobs_identical =
      report_j1 == report_jn &&
      same_bits(outcome.best.seconds, outcome_jn.best.seconds) &&
      outcome.evaluations == outcome_jn.evaluations &&
      outcome.deduped == outcome_jn.deduped;

  // --- Exhaustive reference: every config at the target budget. ---
  timer.reset();
  core::Runner exhaustive_runner;
  core::Tuner enumerator(exhaustive_runner, opts);
  const std::vector<core::TuneCandidate> space = enumerator.space();
  const core::TuneBudget target{opts.dataset, opts.iterations};
  std::vector<core::ExperimentConfig> configs;
  configs.reserve(space.size());
  for (const core::TuneCandidate& candidate : space) {
    configs.push_back(enumerator.make_config(candidate, target));
  }
  const std::vector<core::ExperimentResult> exhaustive =
      core::SweepPool(jobs).run(exhaustive_runner, configs);
  const double exhaustive_s = timer.elapsed();

  // Exhaustive argmin (first strictly-smaller wins: enumeration-order ties).
  std::size_t best_i = 0;
  for (std::size_t i = 1; i < exhaustive.size(); ++i) {
    if (exhaustive[i].seconds() < exhaustive[best_i].seconds()) best_i = i;
  }
  const double exhaustive_best_s = exhaustive[best_i].seconds();

  // Naive enumeration cost of the same space, derived from the loop
  // structure of the un-memoized path: one native run per config, codegen
  // once per rank x phase, the exec model once per thread entry.
  std::size_t naive_codegen = 0;
  std::size_t naive_exec = 0;
  for (const core::ExperimentResult& res : exhaustive) {
    const auto ranks = static_cast<std::size_t>(res.config.ranks);
    const auto threads = static_cast<std::size_t>(res.config.threads);
    for (const trace::PhaseRecord& rec : res.job_trace.front()) {
      naive_codegen += ranks;
      naive_exec += ranks * (rec.parallel && threads > 1 ? threads : 1u);
    }
  }
  const std::size_t naive_native = space.size();

  const bool argmin_match =
      same_bits(outcome.best.seconds, exhaustive_best_s);
  const bool beats_baseline = outcome.best.seconds < outcome.baseline.seconds;
  const double native_reduction =
      outcome.native_runs > 0
          ? static_cast<double>(naive_native) /
                static_cast<double>(outcome.native_runs)
          : 0.0;
  const double codegen_reduction =
      outcome.codegen_evals > 0
          ? static_cast<double>(naive_codegen) /
                static_cast<double>(outcome.codegen_evals)
          : 0.0;
  const bool reduction_ok = native_reduction >= 50.0 &&
                            codegen_reduction >= 50.0;
  const bool ok =
      argmin_match && jobs_identical && reduction_ok && beats_baseline;

  // Stdout: the tune report itself, then the bench verdict table.
  EmitOptions framed;
  framed.framed = true;
  emit_report(core::tune_artifact(outcome, opts), framed, std::cout);

  ReportArtifact verdict;
  verdict.id = "perf_tune";
  TextTable table({"quantity", "value"});
  table.add_row({"space", strfmt("%zu configs", outcome.space_size)});
  table.add_row({"tuner", strfmt("%g s (%zu evaluations, %zu deduped)",
                                 tune_s, outcome.evaluations,
                                 outcome.deduped)});
  table.add_row({"exhaustive", strfmt("%g s (%zu evaluations)", exhaustive_s,
                                      exhaustive.size())});
  table.add_row({"native runs",
                 strfmt("%zu -> %zu (%gx fewer)", naive_native,
                        outcome.native_runs, native_reduction)});
  table.add_row({"codegen evals",
                 strfmt("%zu -> %zu (%gx fewer)", naive_codegen,
                        outcome.codegen_evals, codegen_reduction)});
  table.add_row({"exec evals",
                 strfmt("%zu -> %zu", naive_exec, outcome.exec_evals)});
  table.add_row({"argmin match", argmin_match ? "yes" : "NO"});
  table.add_row({"jobs 1 == jobs N", jobs_identical ? "yes" : "NO"});
  table.add_row({"beats as-is baseline", beats_baseline ? "yes" : "NO"});
  verdict.add_table("perf_tune: successive halving vs exhaustive", table);
  verdict.metrics.push_back({"native_reduction", native_reduction, "x"});
  verdict.metrics.push_back({"codegen_reduction", codegen_reduction, "x"});
  emit_report(verdict, framed, std::cout);

  json::Writer json(json::Writer::Layout::kIndented);
  json.begin_object()
      .field("bench", "tune")
      .field("app", opts.app)
      .field("dataset", apps::dataset_name(opts.dataset))
      .field("iterations", opts.iterations)
      .field("seed", opts.seed)
      .field("jobs", jobs)
      .field("space", outcome.space_size)
      .key("tuner")
      .begin_object()
      .field("seconds", tune_s)
      .field("evaluations", outcome.evaluations)
      .field("deduped", outcome.deduped)
      .field("native_runs", outcome.native_runs)
      .field("codegen_evals", outcome.codegen_evals)
      .field("exec_evals", outcome.exec_evals)
      .field("best_seconds", outcome.best.seconds)
      .field("baseline_seconds", outcome.baseline.seconds)
      .field("pareto_size", outcome.pareto.size())
      .end_object()
      .key("exhaustive")
      .begin_object()
      .field("seconds", exhaustive_s)
      .field("best_seconds", exhaustive_best_s)
      .field("naive_native_runs", naive_native)
      .field("naive_codegen_evals", naive_codegen)
      .field("naive_exec_evals", naive_exec)
      .end_object()
      .field("native_reduction", native_reduction)
      .field("codegen_reduction", codegen_reduction)
      .field("argmin_match", argmin_match)
      .field("jobs_identical", jobs_identical)
      .field("best_beats_baseline", beats_baseline)
      .field("reduction_ok", reduction_ok)
      .field("ok", ok)
      .end_object();
  static_cast<void>(report_json);

  std::ofstream out(out_path);
  out << std::move(json).take();
  if (!out) {
    std::cerr << "failed to write " << out_path << "\n";
    return 1;
  }
  std::cout << "wrote " << out_path << "\n";

  if (!ok) {
    std::cerr << "FATAL: perf_tune invariants violated (argmin_match="
              << argmin_match << ", jobs_identical=" << jobs_identical
              << ", reduction_ok=" << reduction_ok
              << ", beats_baseline=" << beats_baseline << ")\n";
    return 1;
  }
  return 0;
}

#include "core/tuner.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/error.hpp"
#include "common/string_util.hpp"
#include "core/experiment_registry.hpp"
#include "core/reports.hpp"
#include "core/sweep_pool.hpp"

namespace fibersim::core {

void TunerOptions::validate() const {
  FS_REQUIRE(!app.empty(), "tuner needs an app");
  FS_REQUIRE(iterations >= 1, "tuner iterations must be >= 1");
  FS_REQUIRE(jobs >= 1, "tuner jobs must be >= 1");
  FS_REQUIRE(eta >= 2, "successive-halving eta must be >= 2");
  FS_REQUIRE(min_survivors >= 1, "min_survivors must be >= 1");
  FS_REQUIRE(generations >= 0, "generations must be >= 0");
  FS_REQUIRE(population >= 1, "population must be >= 1");
  for (const cg::CompileOptions& preset : presets) preset.validate();
  for (const machine::ProcessorConfig& proc : processors) proc.validate();
}

Tuner::Tuner(Runner& runner, TunerOptions opts)
    : runner_(runner), opts_(std::move(opts)) {
  opts_.validate();
  processors_ =
      opts_.processors.empty() ? machine::comparison_set() : opts_.processors;
  presets_ = opts_.presets.empty() ? cg::search_presets() : opts_.presets;
}

std::vector<TuneCandidate> Tuner::space() const {
  std::vector<TuneCandidate> out;
  for (std::size_t p = 0; p < processors_.size(); ++p) {
    const machine::ProcessorConfig& proc = processors_[p];
    const auto combos = opts_.full_mpi_omp
                            ? mpi_omp_combinations(proc.cores())
                            : representative_combos(proc);
    const auto strides = stride_policies(proc.shape);
    const auto allocs = alloc_policies();
    for (const auto& [ranks, threads] : combos) {
      for (const topo::ThreadBindPolicy& bind : strides) {
        for (const topo::RankAllocPolicy alloc : allocs) {
          for (const cg::CompileOptions& compile : presets_) {
            out.push_back({ranks, threads, alloc, bind, compile, p});
          }
        }
      }
    }
  }
  return out;
}

std::vector<TuneBudget> Tuner::budgets() const {
  // Native-run and prediction cost both grow with dataset and iteration
  // count, so the ladder races everyone at (small, 1 iteration) first and
  // only survivors pay the bigger budgets. The last rung is always exactly
  // the target, so the winner's predicted time is a target-budget number.
  std::vector<TuneBudget> ladder;
  const TuneBudget target{opts_.dataset, opts_.iterations};
  const TuneBudget scout{apps::Dataset::kSmall, 1};
  if (!(scout == target)) ladder.push_back(scout);
  if (opts_.dataset == apps::Dataset::kLarge && opts_.iterations > 1) {
    ladder.push_back({apps::Dataset::kSmall, opts_.iterations});
  }
  ladder.push_back(target);
  return ladder;
}

ExperimentConfig Tuner::make_config(const TuneCandidate& candidate,
                                    const TuneBudget& budget) const {
  ExperimentConfig cfg;
  cfg.app = opts_.app;
  cfg.dataset = budget.dataset;
  cfg.ranks = candidate.ranks;
  cfg.threads = candidate.threads;
  cfg.nodes = 1;
  cfg.alloc = candidate.alloc;
  cfg.bind = candidate.bind;
  cfg.compile = candidate.compile;
  cfg.processor = processors_.at(candidate.processor);
  cfg.seed = opts_.seed;
  cfg.iterations = budget.iterations;
  cfg.collapse = opts_.collapse;
  cfg.validate();
  return cfg;
}

Tuner::EvalKey Tuner::key_of(const TuneCandidate& c, const TuneBudget& b) {
  return {static_cast<int>(b.dataset),
          b.iterations,
          c.ranks,
          c.threads,
          static_cast<int>(c.alloc),
          static_cast<int>(c.bind.kind),
          c.bind.stride,
          c.compile.fingerprint(),
          c.processor};
}

std::vector<TuneEvaluation> Tuner::evaluate(
    const std::vector<TuneCandidate>& candidates, const TuneBudget& budget) {
  // Split the batch into already-known keys and fresh work. Duplicate
  // proposals inside one batch (evolution can re-draw a sibling) collapse
  // onto the first occurrence.
  std::vector<const TuneCandidate*> fresh;
  std::map<EvalKey, std::size_t> batch_slots;
  std::vector<EvalKey> keys;
  keys.reserve(candidates.size());
  for (const TuneCandidate& candidate : candidates) {
    EvalKey key = key_of(candidate, budget);
    if (memo_.count(key) != 0 || batch_slots.count(key) != 0) {
      ++deduped_;
    } else {
      batch_slots.emplace(key, fresh.size());
      fresh.push_back(&candidate);
    }
    keys.push_back(std::move(key));
  }

  if (!fresh.empty()) {
    // Each task keeps only its slot's numbers: predict() skips the trace
    // copy, and no ExperimentResult outlives its task.
    std::vector<TuneEvaluation> evals(fresh.size());
    SweepPool(opts_.jobs).for_each(fresh.size(), [&](std::size_t i) {
      const ExperimentResult result =
          runner_.predict(make_config(*fresh[i], budget));
      TuneEvaluation& eval = evals[i];
      eval.candidate = *fresh[i];
      eval.seconds = result.seconds();
      eval.gflops = result.gflops();
      eval.bw_pressure = result.prediction.bw_pressure();
    });
    const bool target_budget = budget.dataset == opts_.dataset &&
                               budget.iterations == opts_.iterations;
    for (const TuneEvaluation& eval : evals) {
      memo_.emplace(key_of(eval.candidate, budget), eval);
      if (target_budget) target_evals_.push_back(eval);
    }
    evaluations_ += evals.size();
  }

  std::vector<TuneEvaluation> out;
  out.reserve(candidates.size());
  for (const EvalKey& key : keys) out.push_back(memo_.at(key));
  return out;
}

TuneCandidate Tuner::mutate(const TuneCandidate& parent,
                            Xoshiro256& rng) const {
  TuneCandidate child = parent;
  const machine::ProcessorConfig* proc = &processors_[child.processor];
  switch (rng.bounded(5)) {
    case 0: {  // processor: re-draw the split too so the pair stays valid
      child.processor = static_cast<std::size_t>(
          rng.bounded(static_cast<std::uint64_t>(processors_.size())));
      proc = &processors_[child.processor];
      [[fallthrough]];
    }
    case 1: {  // MPI x OMP split
      const auto combos = opts_.full_mpi_omp
                              ? mpi_omp_combinations(proc->cores())
                              : representative_combos(*proc);
      const auto& [ranks, threads] =
          combos[rng.bounded(static_cast<std::uint64_t>(combos.size()))];
      child.ranks = ranks;
      child.threads = threads;
      break;
    }
    case 2: {  // thread-bind stride
      const auto strides = stride_policies(proc->shape);
      child.bind =
          strides[rng.bounded(static_cast<std::uint64_t>(strides.size()))];
      break;
    }
    case 3: {  // rank allocation
      const auto allocs = alloc_policies();
      child.alloc =
          allocs[rng.bounded(static_cast<std::uint64_t>(allocs.size()))];
      break;
    }
    case 4: {  // compile preset
      child.compile =
          presets_[rng.bounded(static_cast<std::uint64_t>(presets_.size()))];
      break;
    }
  }
  return child;
}

TuneOutcome Tuner::run() {
  TuneOutcome outcome;
  const std::size_t native0 = runner_.native_runs();
  const std::size_t codegen0 = runner_.codegen_evals();
  const std::size_t exec0 = runner_.exec_evals();

  std::vector<TuneCandidate> alive = space();
  outcome.space_size = alive.size();
  FS_REQUIRE(!alive.empty(), "tuner search space is empty");

  const std::vector<TuneBudget> ladder = budgets();
  const TuneBudget target = ladder.back();

  for (std::size_t r = 0; r < ladder.size(); ++r) {
    const bool last = r + 1 == ladder.size();
    const std::vector<TuneEvaluation> evals = evaluate(alive, ladder[r]);

    // Rank the rung. The stable sort keeps enumeration order on exact ties,
    // so the ranking is deterministic regardless of jobs.
    std::vector<std::size_t> order(alive.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return evals[a].seconds < evals[b].seconds;
                     });

    std::size_t keep = alive.size();
    if (!last && !opts_.unbounded) {
      keep = (alive.size() + opts_.eta - 1) /
             static_cast<std::size_t>(opts_.eta);
      keep = std::max(keep, static_cast<std::size_t>(opts_.min_survivors));
      keep = std::min(keep, alive.size());
    }
    outcome.rungs.push_back({ladder[r], alive.size(), keep});

    if (!last) {
      // Survivors, restored to enumeration order for the next rung.
      std::vector<std::size_t> kept(order.begin(),
                                    order.begin() + static_cast<long>(keep));
      std::sort(kept.begin(), kept.end());
      std::vector<TuneCandidate> next;
      next.reserve(keep);
      for (const std::size_t i : kept) next.push_back(alive[i]);
      alive = std::move(next);
    } else if (opts_.generations > 0) {
      // Seed the evolutionary pool with the rung's elites, best first.
      std::vector<TuneCandidate> pool;
      const std::size_t elites = std::min(
          alive.size(), static_cast<std::size_t>(opts_.population));
      for (std::size_t i = 0; i < elites; ++i) pool.push_back(alive[order[i]]);
      for (int g = 0; g < opts_.generations; ++g) {
        // One stream per generation: the draw sequence depends only on
        // (seed, generation) and the deterministic pool order.
        Xoshiro256 rng(opts_.seed, 0x7a5e0000ull + static_cast<std::uint64_t>(g));
        std::vector<TuneCandidate> children;
        children.reserve(pool.size());
        for (const TuneCandidate& parent : pool) {
          children.push_back(mutate(parent, rng));
        }
        const std::vector<TuneEvaluation> child_evals =
            evaluate(children, target);
        // Merge parents + children on target-budget seconds; stable sort
        // prefers parents (earlier slots) on exact ties.
        std::vector<TuneCandidate> merged = pool;
        merged.insert(merged.end(), children.begin(), children.end());
        const std::vector<TuneEvaluation> merged_evals =
            evaluate(merged, target);
        std::vector<std::size_t> rank(merged.size());
        std::iota(rank.begin(), rank.end(), std::size_t{0});
        std::stable_sort(rank.begin(), rank.end(),
                         [&](std::size_t a, std::size_t b) {
                           return merged_evals[a].seconds <
                                  merged_evals[b].seconds;
                         });
        std::vector<TuneCandidate> next_pool;
        const std::size_t keep_pool = std::min(
            merged.size(), static_cast<std::size_t>(opts_.population));
        for (std::size_t i = 0; i < keep_pool; ++i) {
          next_pool.push_back(merged[rank[i]]);
        }
        pool = std::move(next_pool);
        (void)child_evals;
      }
    }
  }

  // The baseline the paper starts from: "as-is" compile at one rank per
  // NUMA domain, default placement, on the first processor.
  {
    const machine::ProcessorConfig& proc = processors_.front();
    TuneCandidate base;
    base.ranks = proc.shape.numa_per_node();
    base.threads = proc.cores() / base.ranks;
    base.compile = cg::CompileOptions::as_is();
    base.processor = 0;
    outcome.baseline = evaluate({base}, target).front();
  }

  // Final reductions over everything seen at the target budget, in
  // evaluation order (deterministic): argmin and the Pareto front over
  // (predicted time, memory-BW pressure).
  FS_REQUIRE(!target_evals_.empty(), "tuner evaluated nothing at the target");
  std::vector<std::size_t> by_time(target_evals_.size());
  std::iota(by_time.begin(), by_time.end(), std::size_t{0});
  std::stable_sort(by_time.begin(), by_time.end(),
                   [&](std::size_t a, std::size_t b) {
                     const TuneEvaluation& ea = target_evals_[a];
                     const TuneEvaluation& eb = target_evals_[b];
                     if (ea.seconds != eb.seconds) {
                       return ea.seconds < eb.seconds;
                     }
                     return ea.bw_pressure < eb.bw_pressure;
                   });
  outcome.best = target_evals_[by_time.front()];
  double best_bw = std::numeric_limits<double>::infinity();
  for (const std::size_t i : by_time) {
    const TuneEvaluation& eval = target_evals_[i];
    if (eval.bw_pressure < best_bw) {
      outcome.pareto.push_back(eval);
      best_bw = eval.bw_pressure;
    }
  }

  outcome.evaluations = evaluations_;
  outcome.deduped = deduped_;
  outcome.native_runs = runner_.native_runs() - native0;
  outcome.codegen_evals = runner_.codegen_evals() - codegen0;
  outcome.exec_evals = runner_.exec_evals() - exec0;
  return outcome;
}

namespace {

std::string candidate_label(const TuneEvaluation& eval,
                            const std::vector<machine::ProcessorConfig>& procs) {
  const TuneCandidate& c = eval.candidate;
  return strfmt("%s %dx%d %s/%s %s", procs.at(c.processor).name.c_str(),
                c.ranks, c.threads, c.bind.name().c_str(),
                rank_alloc_name(c.alloc), c.compile.name().c_str());
}

}  // namespace

ReportArtifact tune_artifact(const TuneOutcome& outcome,
                             const TunerOptions& opts) {
  // Everything rendered here is model-level (seconds, GFLOPS, BW pressure,
  // tuner counters) — deterministic for any jobs count and invariant under
  // rank collapse, so the registry's byte-identity CI legs hold.
  ReportArtifact artifact;

  TextTable schedule({"rung", "dataset", "iterations", "candidates",
                      "survivors"});
  for (std::size_t r = 0; r < outcome.rungs.size(); ++r) {
    const TuneRung& rung = outcome.rungs[r];
    schedule.add_row({std::to_string(r + 1),
                      apps::dataset_name(rung.budget.dataset),
                      std::to_string(rung.budget.iterations),
                      std::to_string(rung.candidates),
                      std::to_string(rung.survivors)});
  }
  auto& sched_section = artifact.add_table(
      strfmt("autotune %s (%s, %d iterations, seed %llu)", opts.app.c_str(),
             apps::dataset_name(opts.dataset), opts.iterations,
             static_cast<unsigned long long>(opts.seed)),
      std::move(schedule));
  const std::string coverage = strfmt(
      "space %zu configs, %zu evaluations (%zu deduped)", outcome.space_size,
      outcome.evaluations, outcome.deduped);
  sched_section.notes.push_back(coverage);
  sched_section.cli_notes.push_back(coverage);

  const auto procs = opts.processors.empty() ? machine::comparison_set()
                                             : opts.processors;
  TextTable best({"quantity", "value"});
  best.add_row({"best config", candidate_label(outcome.best, procs)});
  best.add_row({"predicted time", strfmt("%.6f ms", outcome.best.seconds * 1e3)});
  best.add_row({"performance", strfmt("%.2f GFLOPS", outcome.best.gflops)});
  best.add_row({"BW pressure", strfmt("%.3f", outcome.best.bw_pressure)});
  best.add_row({"as-is baseline", candidate_label(outcome.baseline, procs)});
  best.add_row(
      {"baseline time", strfmt("%.6f ms", outcome.baseline.seconds * 1e3)});
  auto& best_section =
      artifact.add_table("best configuration", std::move(best));
  const bool beats = outcome.best.seconds < outcome.baseline.seconds;
  const std::string verdict = strfmt(
      "best beats as-is baseline: %s (%.2fx)", beats ? "yes" : "no",
      outcome.best.seconds > 0.0
          ? outcome.baseline.seconds / outcome.best.seconds
          : 0.0);
  best_section.notes.push_back(verdict);
  best_section.cli_notes.push_back(verdict);

  TextTable pareto({"config", "time ms", "GFLOPS", "BW pressure"});
  for (const TuneEvaluation& eval : outcome.pareto) {
    pareto.add_row({candidate_label(eval, procs),
                    strfmt("%.6f", eval.seconds * 1e3),
                    strfmt("%.2f", eval.gflops),
                    strfmt("%.3f", eval.bw_pressure)});
  }
  artifact.add_table("Pareto front (time vs memory-BW pressure)",
                     std::move(pareto));

  artifact.metrics.push_back({"space", static_cast<double>(outcome.space_size), ""});
  artifact.metrics.push_back(
      {"evaluations", static_cast<double>(outcome.evaluations), ""});
  artifact.metrics.push_back(
      {"deduped", static_cast<double>(outcome.deduped), ""});
  artifact.metrics.push_back({"best_seconds", outcome.best.seconds, "s"});
  artifact.metrics.push_back(
      {"baseline_seconds", outcome.baseline.seconds, "s"});
  artifact.metrics.push_back(
      {"best_bw_pressure", outcome.best.bw_pressure, ""});
  artifact.metrics.push_back(
      {"pareto_size", static_cast<double>(outcome.pareto.size()), ""});
  return artifact;
}

void register_tune_experiments(ExperimentRegistry& registry) {
  Experiment tn1;
  tn1.id = "TN1";
  tn1.title = "successive-halving autotune demo (first app, trimmed space)";
  tn1.paper_ref = "extension (autotuner)";
  tn1.default_dataset = apps::Dataset::kSmall;
  tn1.build = [](const ReportContext& ctx) {
    ctx.validate();
    TunerOptions opts;
    opts.app = ctx.apps_or_default().front();
    opts.dataset = ctx.dataset;
    opts.iterations = ctx.iterations;
    opts.seed = ctx.seed;
    opts.jobs = ctx.jobs;
    opts.collapse = ctx.collapse;
    // Trimmed demo space: one processor, representative splits only, with
    // a short evolutionary tail so the seeded path is exercised (and kept
    // byte-identical across jobs/collapse) on every CI report leg.
    opts.processors = {machine::a64fx()};
    opts.full_mpi_omp = false;
    opts.generations = 2;
    opts.population = 8;
    Tuner tuner(*ctx.runner, opts);
    return tune_artifact(tuner.run(), opts);
  };
  registry.add(std::move(tn1));
}

}  // namespace fibersim::core

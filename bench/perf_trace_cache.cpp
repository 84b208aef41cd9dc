// perf_trace_cache — cold vs warm sweep through the persistent trace store.
//
// Sweep leg: the same multi-app sweep (apps x rank/thread splits x the
// processor comparison set — processors share native runs, so the store is
// exercised exactly once per execution key) is evaluated twice against one
// trace-cache directory:
//
//   * cold: empty store. Every execution key runs natively and publishes.
//   * warm: fresh Runner, same directory. Every native run must be replayed
//           from disk — native_runs() == 0 — and every serialized result
//           (prediction + raw trace + check value bits) must be byte-
//           identical to the cold pass.
//
// Both legs run with --jobs 1 and --jobs 4; all four serialized outputs must
// agree bytewise (the determinism contract extends to the disk tier). The
// bench aborts with a nonzero exit if any invariant fails. Results go to
// stdout and a JSON file (default BENCH_trace_cache.json — run from the
// repo root to refresh the committed artifact).
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/report_emit.hpp"
#include "common/string_util.hpp"
#include "common/timer.hpp"
#include "core/runner.hpp"
#include "core/sweep_pool.hpp"
#include "machine/processor.hpp"
#include "trace/serialize.hpp"
#include "trace/trace_store.hpp"

namespace {

using namespace fibersim;
namespace fs = std::filesystem;

/// Serialize a sweep's results into one comparable byte string: prediction,
/// raw per-rank trace, and the verification value by bit pattern.
std::string serialize_results(const std::vector<core::ExperimentResult>& rs) {
  std::ostringstream out;
  for (const core::ExperimentResult& r : rs) {
    out << r.config.label() << "\n"
        << trace::to_json(r.prediction) << "\n"
        << trace::to_json(r.job_trace) << "\n"
        << (r.verified ? "ok " : "FAIL ")
        << std::bit_cast<std::uint64_t>(r.check_value) << " "
        << r.check_description << "\n";
  }
  return out.str();
}

struct PassStats {
  double seconds = 0.0;
  std::size_t native_runs = 0;
  std::size_t disk_hits = 0;
  std::size_t disk_writes = 0;
  std::string bytes;
};

PassStats run_pass(const std::vector<core::ExperimentConfig>& configs,
                   const fs::path& cache_dir, int jobs) {
  core::Runner runner;
  runner.set_trace_store(
      std::make_shared<trace::TraceStore>(cache_dir.string()));
  const core::SweepPool pool(jobs);
  WallTimer timer;
  const std::vector<core::ExperimentResult> results =
      pool.run(runner, configs);
  PassStats stats;
  stats.seconds = timer.elapsed();
  stats.native_runs = runner.native_runs();
  stats.disk_hits = runner.disk_hits();
  stats.disk_writes = runner.disk_writes();
  stats.bytes = serialize_results(results);
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> app_names = {"ffvc", "ffb", "modylas"};
  apps::Dataset dataset = apps::Dataset::kSmall;
  std::string out_path = "BENCH_trace_cache.json";
  std::string cache_root;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << a << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--apps") {
      app_names = fibersim::split(value(), ',');
    } else if (a == "--dataset") {
      dataset = value() == "large" ? apps::Dataset::kLarge
                                   : apps::Dataset::kSmall;
    } else if (a == "--out") {
      out_path = value();
    } else if (a == "--cache-dir") {
      cache_root = value();
    } else {
      std::cerr << "unknown argument: " << a << "\n";
      std::exit(2);
    }
  }

  // Sweep: apps x (ranks, threads) x comparison processors. Processors do
  // not enter the execution key, so unique native runs = apps x splits.
  const std::vector<std::pair<int, int>> splits = {{2, 2}, {4, 2}};
  std::vector<core::ExperimentConfig> configs;
  for (const machine::ProcessorConfig& proc : machine::comparison_set()) {
    for (const std::string& app : app_names) {
      for (const auto& [ranks, threads] : splits) {
        core::ExperimentConfig cfg;
        cfg.app = app;
        cfg.dataset = dataset;
        cfg.ranks = ranks;
        cfg.threads = threads;
        cfg.iterations = 1;
        cfg.processor = proc;
        configs.push_back(cfg);
      }
    }
  }
  const std::size_t unique_keys = app_names.size() * splits.size();

  if (cache_root.empty()) {
    cache_root = (fs::temp_directory_path() /
                  ("fibersim-bench-cache-" +
                   std::to_string(static_cast<long>(::getpid()))))
                     .string();
  }

  bool ok = true;
  struct Leg {
    int jobs;
    PassStats cold;
    PassStats warm;
  };
  std::vector<Leg> legs;
  for (const int jobs : {1, 4}) {
    const fs::path dir = fs::path(cache_root) / ("jobs" + std::to_string(jobs));
    std::error_code ec;
    fs::remove_all(dir, ec);
    Leg leg;
    leg.jobs = jobs;
    leg.cold = run_pass(configs, dir, jobs);
    leg.warm = run_pass(configs, dir, jobs);
    if (leg.cold.native_runs != unique_keys ||
        leg.cold.disk_writes != unique_keys) {
      std::cerr << "FATAL: cold pass (--jobs " << jobs << ") expected "
                << unique_keys << " native runs/writes, got "
                << leg.cold.native_runs << "/" << leg.cold.disk_writes << "\n";
      ok = false;
    }
    if (leg.warm.native_runs != 0 || leg.warm.disk_hits != unique_keys) {
      std::cerr << "FATAL: warm pass (--jobs " << jobs
                << ") ran natively: native_runs=" << leg.warm.native_runs
                << " disk_hits=" << leg.warm.disk_hits << "\n";
      ok = false;
    }
    if (leg.warm.bytes != leg.cold.bytes) {
      std::cerr << "FATAL: warm output diverged from cold (--jobs " << jobs
                << ")\n";
      ok = false;
    }
    legs.push_back(std::move(leg));
    fs::remove_all(dir, ec);
  }
  for (std::size_t i = 1; i < legs.size(); ++i) {
    if (legs[i].cold.bytes != legs[0].cold.bytes) {
      std::cerr << "FATAL: --jobs " << legs[i].jobs
                << " output diverged from --jobs " << legs[0].jobs << "\n";
      ok = false;
    }
  }
  {
    std::error_code ec;
    fs::remove_all(cache_root, ec);
  }

  // Stdout summary goes through the shared report emitter (same renderer as
  // the experiment registry).
  ReportArtifact artifact;
  artifact.id = "perf_trace_cache";
  TextTable table({"jobs", "cold s", "native runs", "warm s", "disk hits",
                   "speedup"});
  for (const Leg& leg : legs) {
    const double speedup =
        leg.warm.seconds > 0.0 ? leg.cold.seconds / leg.warm.seconds : 0.0;
    table.add_row({std::to_string(leg.jobs), strfmt("%g", leg.cold.seconds),
                   std::to_string(leg.cold.native_runs),
                   strfmt("%g", leg.warm.seconds),
                   std::to_string(leg.warm.disk_hits),
                   strfmt("%gx", speedup)});
    artifact.metrics.push_back({"warm_speedup_jobs" + std::to_string(leg.jobs),
                                speedup, "x"});
  }
  ReportSection& section = artifact.add_table(
      "perf_trace_cache: cold vs warm sweep through the store", table);
  section.notes.push_back(strfmt("sweep: %zu configs, %zu unique execution keys",
                                 configs.size(), unique_keys));
  EmitOptions emit_opts;
  emit_opts.framed = true;
  emit_report(artifact, emit_opts, std::cout);

  json::Writer json(json::Writer::Layout::kIndented);
  json.begin_object()
      .field("dataset", apps::dataset_name(dataset))
      .field("configs", configs.size())
      .field("unique_execution_keys", unique_keys)
      .field("byte_identical", ok)
      .key("legs")
      .begin_array();
  for (const Leg& leg : legs) {
    const double speedup =
        leg.warm.seconds > 0.0 ? leg.cold.seconds / leg.warm.seconds : 0.0;
    json.begin_object()
        .field("jobs", leg.jobs)
        .field("cold_seconds", leg.cold.seconds)
        .field("cold_native_runs", leg.cold.native_runs)
        .field("cold_disk_writes", leg.cold.disk_writes)
        .field("warm_seconds", leg.warm.seconds)
        .field("warm_native_runs", leg.warm.native_runs)
        .field("warm_disk_hits", leg.warm.disk_hits)
        .field("warm_speedup", speedup)
        .end_object();
  }
  json.end_array().end_object();

  std::ofstream out(out_path);
  out << std::move(json).take();
  if (!out) {
    std::cerr << "failed to write " << out_path << "\n";
    return 1;
  }
  std::cout << "wrote " << out_path << "\n";
  return ok ? 0 : 1;
}

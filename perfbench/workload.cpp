// perfbench_workload — runs one fibersim benchmark workload in its own
// process and prints its raw measurements as one JSON object on the last
// line of stdout. perfbench/run.py builds this binary, runs it, checks the
// output digests against perfbench/digests.json and turns the raw numbers
// into the benchmark's metrics.
//
//   perfbench_workload --workload paper-small|scale-e2x|tune-ffvc|serve-mix
//                      --seed N --seconds S --trace 0|1
//                      [--setup-only] [--spans FILE] [--dump DIR]
//
// Every time here is host time: wall clock (std::chrono::steady_clock) or
// process CPU time (getrusage, every thread). Simulated seconds are outputs:
// they enter only the digests, never a timing.
//
// A run measures whole passes of the workload until --seconds have elapsed
// (at least kMinPasses). With --trace 1 untraced and traced passes alternate
// (the difference of their medians is the tracing overhead), spans are
// recorded around the calls into each module, and after the passes the
// workload's layer probes run: calls into the modules' public functions,
// timed from here, plus the modules' public counters. An untraced run also
// starts this program again with --setup-only around every pass: each such
// process times the workload's set-up from its own start (setup_s).
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/parse_num.hpp"
#include "common/report_emit.hpp"
#include "common/rng.hpp"
#include "common/string_util.hpp"
#include "core/experiment_registry.hpp"
#include "core/runner.hpp"
#include "core/serve.hpp"
#include "core/serve_codec.hpp"
#include "core/tuner.hpp"
#include "machine/network_model.hpp"
#include "machine/registry.hpp"
#include "miniapps/miniapp.hpp"
#include "mp/job.hpp"
#include "rt/thread_team.hpp"
#include "trace/serialize.hpp"

namespace {

using namespace fibersim;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// Taken during static initialisation, before main(): setup_s runs from here.
const Clock::time_point g_process_start = Clock::now();

constexpr int kMinPasses = 3;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// FNV-1a 64 of the bytes, as 16 hex digits.
std::string digest_of(std::string_view text) {
  Fnv1a h;
  for (const char c : text) h.byte(static_cast<unsigned char>(c));
  return strfmt("%016llx", static_cast<unsigned long long>(h.value()));
}

std::string jnum(double v) {
  return std::isfinite(v) ? strfmt("%.9g", v) : std::string("null");
}

std::string jstr(std::string_view s) { return "\"" + json_escape(s) + "\""; }

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double max_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Spans: recorded from this file around calls into the modules. Kept in
// memory; written out as Chrome trace events when the run ends.

class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;
    std::size_t tid = 0;
  };

  /// RAII span; a no-op when the tracer is off. Spans opened while another
  /// span of the same thread is open record it as their parent.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name) : tracer_(tracer) {
      if (!tracer_.on_) return;
      index_ = tracer_.open(std::move(name));
    }
    ~Scope() {
      if (index_ >= 0) tracer_.close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_ = -1;
  };

  void set_on(bool on) { on_ = on; }
  std::size_t mark() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  /// Self seconds per span name over spans [from, end): duration minus the
  /// part covered by direct children.
  std::map<std::string, double> self_seconds(std::size_t from) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> self(spans_.size(), 0.0);
    for (std::size_t i = from; i < spans_.size(); ++i) {
      self[i] += spans_[i].end_s - spans_[i].start_s;
      if (spans_[i].parent >= 0) {
        self[static_cast<std::size_t>(spans_[i].parent)] -=
            spans_[i].end_s - spans_[i].start_s;
      }
    }
    std::map<std::string, double> out;
    for (std::size_t i = from; i < spans_.size(); ++i) {
      out[spans_[i].name] += self[i];
    }
    return out;
  }

  void write_chrome_trace(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream os(path);
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i ? ",\n" : "\n") << "{\"name\":" << jstr(s.name)
         << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
         << ",\"ts\":" << jnum(s.start_s * 1e6)
         << ",\"dur\":" << jnum((s.end_s - s.start_s) * 1e6)
         << ",\"args\":{\"parent\":" << s.parent << "}}";
    }
    os << "\n]}\n";
  }

 private:
  int open(std::string name) {
    const double now = seconds_since(g_process_start);
    std::lock_guard<std::mutex> lock(mu_);
    Span s;
    s.name = std::move(name);
    s.start_s = now;
    s.parent = current_;
    s.tid = std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000;
    spans_.push_back(std::move(s));
    current_ = static_cast<int>(spans_.size() - 1);
    return current_;
  }
  void close(int index) {
    const double now = seconds_since(g_process_start);
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(index)].end_s = now;
    current_ = spans_[static_cast<std::size_t>(index)].parent;
  }

  bool on_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  static thread_local int current_;
};
thread_local int Tracer::current_ = -1;

// ---------------------------------------------------------------------------
// Raw measurements of one run.

struct ServeSample {
  double us = 0.0;
  std::string status;  ///< "OK", a typed error code, or "TRANSPORT"
  bool first_touch = false;
};

struct Output {
  double setup_s = 0.0;
  std::vector<double> setup_samples;  ///< fresh-process set-ups (--trace 0)
  double peak_rss_mb = 0.0;
  std::vector<double> passes;         ///< untraced pass seconds
  std::vector<double> traced_passes;  ///< traced pass seconds
  std::vector<double> pass_cpu;  ///< process CPU seconds per untraced pass
  std::size_t attempted = 0;
  std::map<std::string, std::size_t> failures;  ///< kind -> count
  struct Digest {
    std::string value;
    std::size_t ops = 0;
  };
  std::map<std::string, Digest> digests;  ///< output name -> digest
  std::vector<ServeSample> cold, warm;
  std::vector<double> cold_s, warm_s;  ///< serve sub-pass seconds
  std::map<std::string, double> layers;
  std::string dump_dir;

  void fail(const std::string& kind, std::size_t n = 1) { failures[kind] += n; }

  /// Digest the output of one operation. The same name must digest
  /// identically every time it is produced (pass to pass, traced or not).
  void digest(const std::string& name, std::string_view text) {
    const std::string d = digest_of(text);
    auto [it, fresh] = digests.try_emplace(name, Digest{d, 0});
    if (!fresh && it->second.value != d) fail("nondeterministic");
    ++it->second.ops;
    if (fresh) dump(name, text);
  }

  /// With --dump, keep the digested text for diffing against the CLI.
  void dump(std::string name, std::string_view text) const {
    if (dump_dir.empty()) return;
    std::replace(name.begin(), name.end(), '/', '_');
    std::ofstream(dump_dir + "/" + name + ".txt") << text;
  }

  std::string to_json() const {
    std::string out = "{\"setup_s\":" + jnum(setup_s);
    const auto arr = [](const std::vector<double>& v) {
      std::string s = "[";
      for (std::size_t i = 0; i < v.size(); ++i) {
        s += (i ? "," : "") + jnum(v[i]);
      }
      return s + "]";
    };
    out += ",\"setup_samples\":" + arr(setup_samples);
    out += ",\"passes\":" + arr(passes);
    out += ",\"traced_passes\":" + arr(traced_passes);
    out += ",\"pass_cpu\":" + arr(pass_cpu);
    out += ",\"peak_rss_mb\":" + jnum(peak_rss_mb);
    out += ",\"attempted\":" + std::to_string(attempted);
    out += ",\"failures\":{";
    bool first = true;
    for (const auto& [k, v] : failures) {
      out += (first ? "" : ",") + jstr(k) + ":" + std::to_string(v);
      first = false;
    }
    out += "},\"digests\":{";
    first = true;
    for (const auto& [k, d] : digests) {
      out += (first ? "" : ",") + jstr(k) + ":{\"digest\":" + jstr(d.value) +
             ",\"ops\":" + std::to_string(d.ops) + "}";
      first = false;
    }
    const auto samples = [](const std::vector<ServeSample>& v) {
      std::string s = "[";
      for (std::size_t i = 0; i < v.size(); ++i) {
        s += (i ? "," : "") + std::string("[") + jnum(v[i].us) + "," +
             jstr(v[i].status) + "," + (v[i].first_touch ? "1" : "0") + "]";
      }
      return s + "]";
    };
    out += "},\"serve\":{\"cold\":" + samples(cold) +
           ",\"warm\":" + samples(warm) + ",\"cold_s\":" + arr(cold_s) +
           ",\"warm_s\":" + arr(warm_s) + "}";
    out += ",\"layers\":{";
    first = true;
    for (const auto& [k, v] : layers) {
      out += (first ? "" : ",") + jstr(k) + ":" + jnum(v);
      first = false;
    }
    return out + "}}";
  }
};

struct Options {
  std::string self;  ///< this program, as it was started (argv[0])
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  std::string spans_path;
};

/// Set-up samples taken before every pass and after the last one, untraced
/// runs only. A set-up lasts about a millisecond, and on a shared host the
/// speed of so short a cold start swings by a fifth from one minute to the
/// next; samples spread over the whole run give a median that follows the
/// run, as the pass medians do, rather than one moment of it.
constexpr int kSetupSamplesPerPass = 4;

/// Runs this program again with --setup-only (same workload and seed, same
/// directory) and returns the set-up time that fresh process measured.
double sample_setup(const Options& opt) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("set-up sample: pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::vector<std::string> args = {opt.self,    "--workload",
                                   opt.workload, "--seed",
                                   std::to_string(opt.seed), "--setup-only"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int spawned = posix_spawn(&pid, opt.self.c_str(), &actions, nullptr,
                                  argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string text;
  char buf[4096];
  while (spawned == 0) {
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n > 0) {
      text.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  if (spawned != 0) throw std::runtime_error("set-up sample: cannot start");
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("set-up sample: process failed");
  }
  const std::string key = "{\"setup_s\":";
  const std::size_t end = text.find(',');
  const std::optional<double> v =
      text.rfind(key, 0) == 0 && end != std::string::npos
          ? parse_f64(text.substr(key.size(), end - key.size()))
          : std::nullopt;
  if (!v) throw std::runtime_error("set-up sample: no setup_s in its output");
  return *v;
}

void sample_setups(const Options& opt, Output& out) {
  if (opt.trace) return;
  for (int k = 0; k < kSetupSamplesPerPass; ++k) {
    out.setup_samples.push_back(sample_setup(opt));
  }
}

/// Runs passes until the time budget is spent. In traced mode untraced and
/// traced passes alternate, so drift on a shared host hits both alike.
/// `after(traced)` runs untimed after each pass (traced-run probes that need
/// the pass's warm state).
///
/// peak_rss_mb covers set-up and the first `rss_passes` passes, which every
/// run makes: a fixed amount of work, so the figure does not depend on how
/// many passes the time budget allowed (allocator fragmentation keeps
/// growing with them). Each workload passes the window where its figure
/// repeats best: the first pass alone runs on an empty heap, where
/// thread-arena placement varies run to run.
template <typename Pass, typename After>
void run_passes(const Options& opt, Output& out, Tracer& tracer,
                std::map<std::string, std::vector<double>>& span_totals,
                int rss_passes, Pass&& pass, After&& after) {
  const Clock::time_point t0 = Clock::now();
  const int min_passes = std::max(
      rss_passes, opt.trace ? 2 * kMinPasses - 2 : kMinPasses);
  for (int i = 0; i < min_passes || seconds_since(t0) < opt.seconds; ++i) {
    sample_setups(opt, out);
    const bool traced = opt.trace && i % 2 == 1;
    tracer.set_on(traced);
    const std::size_t mark = tracer.mark();
    const Clock::time_point p0 = Clock::now();
    const double c0 = cpu_seconds();
    pass(i, traced);
    const double s = seconds_since(p0);
    if (!traced) out.pass_cpu.push_back(cpu_seconds() - c0);
    tracer.set_on(false);
    (traced ? out.traced_passes : out.passes).push_back(s);
    if (i == rss_passes - 1) out.peak_rss_mb = max_rss_mb();
    if (traced) {
      for (const auto& [name, self] : tracer.self_seconds(mark)) {
        span_totals[name].push_back(self);
      }
    }
    after(traced);
  }
  sample_setups(opt, out);
}

template <typename Pass>
void run_passes(const Options& opt, Output& out, Tracer& tracer,
                std::map<std::string, std::vector<double>>& span_totals,
                int rss_passes, Pass&& pass) {
  run_passes(opt, out, tracer, span_totals, rss_passes, pass, [](bool) {});
}

/// peak_rss_mb windows (see run_passes). Batch workloads repeat within 2%
/// from their second pass on; serve-mix's many short-lived threads need four
/// passes before its figure settles to about ±8%.
constexpr int kBatchRssPasses = 2;
constexpr int kServeRssPasses = 4;

void record_span_layers(
    const std::map<std::string, std::vector<double>>& totals, Output& out) {
  for (const auto& [name, v] : totals) out.layers[name + "_s"] = median(v);
}

/// Counters of a Runner's memo layers (cg codegen cache, machine exec cache).
void record_memo_layers(const core::Runner& runner, Output& out) {
  const auto ratio = [](std::size_t hits, std::size_t lookups) {
    return lookups ? static_cast<double>(hits) / static_cast<double>(lookups)
                   : 0.0;
  };
  out.layers["runner.native_runs"] = static_cast<double>(runner.native_runs());
  out.layers["cg.codegen_evals"] = static_cast<double>(runner.codegen_evals());
  out.layers["cg.codegen_lookups"] =
      static_cast<double>(runner.codegen_lookups());
  out.layers["cg.codegen_hit_ratio"] =
      ratio(runner.codegen_hits(), runner.codegen_lookups());
  out.layers["machine.exec_evals"] = static_cast<double>(runner.exec_evals());
  out.layers["machine.exec_lookups"] =
      static_cast<double>(runner.exec_lookups());
  out.layers["machine.exec_hit_ratio"] =
      ratio(runner.exec_hits(), runner.exec_lookups());
  out.layers["runner.collapse_classes"] =
      static_cast<double>(runner.collapse_classes());
  out.layers["runner.collapse_native_ranks"] =
      static_cast<double>(runner.collapse_native_ranks());
  out.layers["runner.collapse_replicated_ranks"] =
      static_cast<double>(runner.collapse_replicated_ranks());
}

/// Registry and processor-registry initialisation (static, once per process).
void init_registries() {
  (void)core::ExperimentRegistry::instance();
  (void)machine::ProcessorRegistry::instance().comparison_set();
}

/// The placement Runner::run predicts a config under.
topo::Binding binding_of(const core::ExperimentConfig& cfg) {
  const topo::Topology topology(cfg.processor.shape, cfg.nodes);
  return topo::Binding::make(topology, cfg.ranks, cfg.threads, cfg.alloc,
                             cfg.bind);
}

std::string render_text(const ReportArtifact& artifact) {
  std::ostringstream os;
  EmitOptions opts;  // text, bare: what `fibersim report <id>` prints
  emit_report(artifact, opts, os);
  return os.str();
}

/// Builds and renders every id under `ctx`, digesting each text; returns the
/// seconds spent in ExperimentRegistry::build.
double build_ids(const std::vector<std::string>& ids,
                 const core::ReportContext& ctx, Tracer& tracer, Output& out) {
  const core::ExperimentRegistry& registry =
      core::ExperimentRegistry::instance();
  double build_s = 0.0;
  for (const std::string& id : ids) {
    ++out.attempted;
    try {
      const Clock::time_point t0 = Clock::now();
      ReportArtifact artifact;
      {
        Tracer::Scope span(tracer, "registry.build");
        artifact = registry.build(id, ctx);
      }
      build_s += seconds_since(t0);
      std::string text;
      {
        Tracer::Scope span(tracer, "report_emit.render");
        text = render_text(artifact);
      }
      out.digest("report/" + id, text);
    } catch (const std::exception& e) {
      std::cerr << "perfbench: " << id << " failed: " << e.what() << "\n";
      out.fail("report_threw");
    }
  }
  return build_s;
}

// ---------------------------------------------------------------------------
// paper-small: the 16 paper/ablation/extension ids on the small dataset.

const std::vector<std::string> kPaperIds = {"T1", "T2", "F1", "F2", "F3", "T3",
                                            "F4", "F5", "T4", "A1", "A2", "A3",
                                            "A4", "A5", "E1", "E2"};

/// Sums over a job trace of the mp and rt counts the native run produced.
void add_trace_counts(const trace::JobTrace& job, double* messages,
                      double* bytes, double* fork_joins) {
  for (const trace::RankTrace& rank : job) {
    for (const trace::PhaseRecord& rec : rank) {
      *messages += static_cast<double>(rec.comm.total_p2p_messages());
      *bytes += static_cast<double>(rec.comm.total_p2p_bytes());
      for (const auto& [kind, coll] : rec.comm.collectives) {
        *messages += static_cast<double>(coll.calls);
        *bytes += static_cast<double>(coll.bytes);
      }
      if (rec.parallel) *fork_joins += static_cast<double>(rec.entries);
    }
  }
}

void paper_small(const Options& opt, Output& out) {
  init_registries();
  auto runner = std::make_unique<core::Runner>();
  out.setup_s = seconds_since(g_process_start);
  if (opt.setup_only) return;

  // The seed only permutes the id order; the Runner is shared across ids, so
  // the order moves which id pays for a native run, not the total work.
  std::vector<std::string> ids = kPaperIds;
  Xoshiro256 rng(opt.seed);
  for (std::size_t i = ids.size(); i > 1; --i) {
    std::swap(ids[i - 1], ids[rng.bounded(i)]);
  }

  core::ReportContext ctx;
  ctx.dataset = apps::Dataset::kSmall;
  ctx.jobs = 1;
  Tracer tracer;
  std::map<std::string, std::vector<double>> span_totals;
  std::vector<double> native_s;
  double cold_build_s = 0.0;
  run_passes(
      opt, out, tracer, span_totals, kBatchRssPasses,
      [&](int i, bool) {
        if (i > 0) runner = std::make_unique<core::Runner>();
        ctx.runner = runner.get();
        cold_build_s = build_ids(ids, ctx, tracer, out);
      },
      [&](bool traced) {
        if (!traced) return;
        // The same ids again on the now-warm Runner: cold minus warm build
        // time is the native execution the pass paid for.
        Tracer idle;
        native_s.push_back(cold_build_s - build_ids(ids, ctx, idle, out));
      });
  if (!opt.trace) return;
  record_span_layers(span_totals, out);
  record_memo_layers(*runner, out);
  out.layers["runner.native_s"] = median(native_s);

  // Per-app probes: one native run each at small 4x12 on a fresh Runner,
  // native seconds = first run minus a memo repeat of the same config.
  double messages = 0.0, bytes = 0.0, fork_joins = 0.0;
  double canon_s = 0.0, classes = 0.0, predict_s = 0.0, predict_calls = 0.0;
  for (const std::string& app : apps::registry_names()) {
    core::Runner probe;
    core::ExperimentConfig cfg;
    cfg.app = app;
    ++out.attempted;
    Clock::time_point t0 = Clock::now();
    const core::ExperimentResult res = probe.run(cfg);
    const double cold = seconds_since(t0);
    t0 = Clock::now();
    (void)probe.run(cfg);
    out.layers["miniapps." + app + ".native_s"] = cold - seconds_since(t0);
    if (!res.verified) out.fail("unverified");
    add_trace_counts(res.job_trace, &messages, &bytes, &fork_joins);

    t0 = Clock::now();
    const trace::CanonicalTrace canonical =
        trace::CanonicalTrace::build(res.job_trace);
    canon_s += seconds_since(t0);
    classes += static_cast<double>(canonical.class_count());

    const topo::Binding binding = binding_of(cfg);
    cg::CodegenCache codegen;
    machine::EvalCache exec;
    const trace::PredictMemo memo{&codegen, &exec};
    (void)trace::predict_job(cfg.processor, cfg.compile, binding, canonical,
                             memo);  // warms the memo
    t0 = Clock::now();
    const trace::JobPrediction p = trace::predict_job(
        cfg.processor, cfg.compile, binding, canonical, memo);
    predict_s += seconds_since(t0);
    predict_calls += 1.0;
    if (trace::to_json(p) != trace::to_json(res.prediction)) {
      out.fail("predict_mismatch");
    }
  }
  out.layers["mp.messages"] = messages;
  out.layers["mp.bytes"] = bytes;
  out.layers["rt.fork_joins"] = fork_joins;
  out.layers["trace.canonicalize_s"] = canon_s;
  out.layers["trace.classes"] = classes;
  out.layers["trace.predict_s"] = predict_s;
  out.layers["trace.predict_calls"] = predict_calls;
  if (!opt.spans_path.empty()) tracer.write_chrome_trace(opt.spans_path);
}

// ---------------------------------------------------------------------------
// scale-e2x: the E2X weak-scaling sweep, ffvc/large, collapsed, to 102400
// ranks.

const std::vector<int> kE2xNodes = {1, 16, 256, 4096, 25600};

core::ExperimentConfig e2x_config(int nodes) {
  core::ExperimentConfig cfg;  // what E2X's weak_scaling_table builds
  cfg.app = "ffvc";
  cfg.dataset = apps::Dataset::kLarge;
  cfg.nodes = nodes;
  cfg.ranks = 4 * nodes;
  cfg.threads = 12;
  cfg.weak_scale = nodes;
  cfg.collapse = true;
  return cfg;
}

/// A collapsed native run of `cfg`, assembled from outside the Runner with
/// the same public calls the Runner makes.
trace::CollapsedTrace collapsed_trace(const core::ExperimentConfig& cfg,
                                      trace::JobTrace* reps) {
  const mp::CollapseSpec spec = apps::create_miniapp(cfg.app)->collapse_spec(
      cfg.dataset, cfg.weak_scale);
  mp::RankSymmetry symmetry = mp::RankSymmetry::build(spec, cfg.ranks);
  reps->assign(static_cast<std::size_t>(symmetry.classes()), {});
  mp::Job::run_collapsed(symmetry, [&](mp::Comm& comm) {
    rt::ThreadTeam team(cfg.threads);
    trace::Recorder recorder(&comm);
    apps::RunContext ctx;
    ctx.comm = &comm;
    ctx.team = &team;
    ctx.recorder = &recorder;
    ctx.dataset = cfg.dataset;
    ctx.seed = cfg.seed;
    ctx.iterations = cfg.iterations;
    ctx.weak_scale = cfg.weak_scale;
    (void)apps::create_miniapp(cfg.app)->run(ctx);
    (*reps)[static_cast<std::size_t>(symmetry.class_of(comm.rank()))] =
        recorder.phases();
  });
  return trace::CollapsedTrace::assemble(std::move(symmetry), *reps);
}

void scale_e2x(const Options& opt, Output& out) {
  init_registries();
  auto runner = std::make_unique<core::Runner>();
  core::ReportContext ctx;
  ctx.app_names = {"ffvc"};
  ctx.dataset = apps::Dataset::kLarge;
  ctx.jobs = 1;
  out.setup_s = seconds_since(g_process_start);
  if (opt.setup_only) return;

  Tracer tracer;
  std::map<std::string, std::vector<double>> span_totals;
  run_passes(opt, out, tracer, span_totals, kBatchRssPasses, [&](int i, bool) {
    if (i > 0) {
      runner.reset();  // free the last pass's traces before the next one
      runner = std::make_unique<core::Runner>();
    }
    ctx.runner = runner.get();
    build_ids({"E2X"}, ctx, tracer, out);
  });
  if (!opt.trace) return;
  record_span_layers(span_totals, out);
  record_memo_layers(*runner, out);
  runner.reset();

  // Runner probe: every sweep point on a fresh Runner (native tier), then
  // again (memo tier); the difference is the native execution.
  {
    core::Runner probe;
    double native_s = 0.0;
    for (const int nodes : kE2xNodes) {
      const core::ExperimentConfig cfg = e2x_config(nodes);
      ++out.attempted;
      core::RunTier tier = core::RunTier::kMemo;
      Clock::time_point t0 = Clock::now();
      const core::ExperimentResult res = probe.run(cfg, 0, &tier);
      const double cold = seconds_since(t0);
      t0 = Clock::now();
      (void)probe.run(cfg);
      if (tier == core::RunTier::kNative) native_s += cold - seconds_since(t0);
      if (!res.verified) out.fail("unverified");
    }
    out.layers["runner.native_s"] = native_s;
  }

  // Prediction probes on collapsed traces built from outside the Runner.
  double predict_s = 0.0, canon_s = 0.0, classes = 0.0;
  for (const int nodes : kE2xNodes) {
    const core::ExperimentConfig cfg = e2x_config(nodes);
    trace::JobTrace reps;
    const trace::CollapsedTrace collapsed = collapsed_trace(cfg, &reps);
    Clock::time_point t0 = Clock::now();
    const trace::CanonicalTrace canonical = trace::CanonicalTrace::build(reps);
    canon_s += seconds_since(t0);
    classes += static_cast<double>(canonical.class_count());

    const topo::Binding binding = binding_of(cfg);
    cg::CodegenCache codegen;
    machine::EvalCache exec;
    const trace::PredictMemo memo{&codegen, &exec};
    (void)trace::predict_job(cfg.processor, cfg.compile, binding, collapsed,
                             memo);  // warms the memo
    t0 = Clock::now();
    (void)trace::predict_job(cfg.processor, cfg.compile, binding, collapsed,
                             memo);
    const double point_predict_s = seconds_since(t0);
    predict_s += point_predict_s;
    if (nodes != kE2xNodes.back()) continue;

    // The peak point, layer by layer: the remapped sends of every rank and
    // phase, then the torus routing and link contention of their flows.
    std::vector<trace::CollapsedTrace::RankSend> sends;
    std::vector<std::vector<std::pair<int, int>>> remote_pairs(
        collapsed.phase_count());
    std::vector<std::vector<std::uint64_t>> remote_bytes(
        collapsed.phase_count());
    t0 = Clock::now();
    for (std::size_t p = 0; p < collapsed.phase_count(); ++p) {
      for (int rank = 0; rank < collapsed.ranks(); ++rank) {
        collapsed.rank_sends(p, rank, &sends);
      }
    }
    const double rank_sends_s = seconds_since(t0);
    for (std::size_t p = 0; p < collapsed.phase_count(); ++p) {
      for (int rank = 0; rank < collapsed.ranks(); ++rank) {
        collapsed.rank_sends(p, rank, &sends);
        for (const auto& s : sends) {
          if (binding.rank_distance(rank, s.dst) ==
              topo::Distance::kRemoteNode) {
            remote_pairs[p].emplace_back(binding.node_of(rank),
                                         binding.node_of(s.dst));
            remote_bytes[p].push_back(s.bytes);
          }
        }
      }
    }
    const machine::TorusMap torus(binding.topology().nodes());
    double route_s = 0.0, contention_s = 0.0, flows = 0.0, max_load = 0.0;
    for (std::size_t p = 0; p < collapsed.phase_count(); ++p) {
      machine::LinkContention contention(&torus);
      t0 = Clock::now();
      for (std::size_t f = 0; f < remote_pairs[p].size(); ++f) {
        contention.add_flow(remote_pairs[p][f].first, remote_pairs[p][f].second,
                            remote_bytes[p][f]);
      }
      contention_s += seconds_since(t0);
      t0 = Clock::now();
      contention.seal();  // routes every distinct node pair once
      route_s += seconds_since(t0);
      t0 = Clock::now();
      for (const auto& [a, b] : remote_pairs[p]) {
        (void)contention.foreign_bytes(a, b);
      }
      contention_s += seconds_since(t0);
      std::vector<std::pair<int, int>> distinct = remote_pairs[p];
      std::sort(distinct.begin(), distinct.end());
      distinct.erase(std::unique(distinct.begin(), distinct.end()),
                     distinct.end());
      flows += static_cast<double>(distinct.size());
      max_load = std::max(max_load,
                          static_cast<double>(contention.max_link_load()));
    }
    out.layers["trace.rank_sends_s"] = rank_sends_s;
    out.layers["machine.route_s"] = route_s;
    out.layers["machine.contention_s"] = contention_s;
    out.layers["machine.flows"] = flows;
    out.layers["machine.max_link_load"] = max_load;
    // predict_job walks rank_sends twice per rank and phase (contention pass
    // and placement replay); what remains is the placement replay.
    out.layers["machine.placement_s"] =
        point_predict_s - route_s - contention_s - 2.0 * rank_sends_s;
  }
  out.layers["trace.predict_s"] = predict_s;
  out.layers["trace.predict_calls"] = static_cast<double>(kE2xNodes.size());
  out.layers["trace.canonicalize_s"] = canon_s;
  out.layers["trace.classes"] = classes;
  if (!opt.spans_path.empty()) tracer.write_chrome_trace(opt.spans_path);
}

// ---------------------------------------------------------------------------
// tune-ffvc: core::Tuner over the full space on ffvc/small.

core::TunerOptions tune_options() {
  core::TunerOptions topts;  // what `fibersim tune --app ffvc` searches
  topts.app = "ffvc";
  topts.dataset = apps::Dataset::kSmall;
  topts.jobs = 1;
  return topts;
}

void tune_ffvc(const Options& opt, Output& out) {
  init_registries();
  const core::TunerOptions topts = tune_options();
  auto runner = std::make_unique<core::Runner>();
  auto tuner = std::make_unique<core::Tuner>(*runner, topts);
  const std::size_t space_size = tuner->space().size();
  out.setup_s = seconds_since(g_process_start);
  if (opt.setup_only) return;

  Tracer tracer;
  std::map<std::string, std::vector<double>> span_totals;
  std::vector<double> native_s;
  core::TuneOutcome outcome;
  double cold = 0.0;
  run_passes(
      opt, out, tracer, span_totals, kBatchRssPasses,
      [&](int i, bool) {
        if (i > 0) {
          tuner.reset();
          runner = std::make_unique<core::Runner>();
          Tracer::Scope span(tracer, "tuner.construct");
          tuner = std::make_unique<core::Tuner>(*runner, topts);
        }
        ++out.attempted;
        try {
          const Clock::time_point t0 = Clock::now();
          {
            Tracer::Scope span(tracer, "tuner.run");
            outcome = tuner->run();
          }
          cold = seconds_since(t0);
          std::string text;
          {
            Tracer::Scope span(tracer, "report_emit.render");
            text = render_text(core::tune_artifact(outcome, topts));
          }
          out.digest("tune/ffvc", text);
        } catch (const std::exception& e) {
          std::cerr << "perfbench: tune failed: " << e.what() << "\n";
          out.fail("tune_threw");
        }
      },
      [&](bool traced) {
        if (!traced) return;
        // The same search on the now-warm Runner: cold minus warm search
        // time is the native execution the pass paid for.
        const Clock::time_point t0 = Clock::now();
        core::Tuner warm(*runner, topts);
        (void)warm.run();
        native_s.push_back(cold - seconds_since(t0));
      });
  if (!opt.trace) return;
  record_span_layers(span_totals, out);
  record_memo_layers(*runner, out);
  out.layers["runner.native_s"] = median(native_s);
  out.layers["tuner.evaluations"] = static_cast<double>(outcome.evaluations);
  out.layers["tuner.deduped"] = static_cast<double>(outcome.deduped);
  {
    const Clock::time_point t0 = Clock::now();
    const std::size_t n = tuner->space().size();
    out.layers["tuner.space_s"] = seconds_since(t0);
    if (n != space_size) out.fail("space_changed");
  }

  // Reference leg: every candidate at the target budget on a fresh Runner.
  // The tuner's recommendation must be this exhaustive argmin.
  const std::vector<core::TuneCandidate> space = tuner->space();
  const core::TuneBudget target = tuner->budgets().back();
  std::vector<core::ExperimentConfig> configs;
  configs.reserve(space.size());
  for (const auto& c : space) configs.push_back(tuner->make_config(c, target));
  core::Runner exhaustive;
  std::vector<double> seconds(space.size());
  std::map<std::pair<int, int>, trace::CanonicalTrace> canonical;
  Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < configs.size(); ++i) {
    seconds[i] = exhaustive.run(configs[i]).seconds();
  }
  out.layers["tuner.exhaustive_s"] = seconds_since(t0);
  const std::size_t argmin = static_cast<std::size_t>(
      std::min_element(seconds.begin(), seconds.end()) - seconds.begin());
  ++out.attempted;
  if (!(space[argmin] == outcome.best.candidate)) out.fail("tuner_not_argmin");

  // Prediction probe: the canonical path over the whole space with a warm
  // memo (native time excluded), checked against the exhaustive leg.
  double canon_s = 0.0, classes = 0.0;
  for (const auto& cfg : configs) {
    const std::pair<int, int> key{cfg.ranks, cfg.threads};
    if (canonical.count(key)) continue;
    const core::ExperimentResult res = exhaustive.run(cfg);
    t0 = Clock::now();
    canonical.emplace(key, trace::CanonicalTrace::build(res.job_trace));
    canon_s += seconds_since(t0);
    classes += static_cast<double>(canonical.at(key).class_count());
  }
  cg::CodegenCache codegen;
  machine::EvalCache exec;
  const trace::PredictMemo memo{&codegen, &exec};
  double predict_s = 0.0;
  for (int round = 0; round < 2; ++round) {  // round 0 warms the memo
    t0 = Clock::now();
    for (std::size_t i = 0; i < configs.size(); ++i) {
      const core::ExperimentConfig& cfg = configs[i];
      const topo::Binding binding = binding_of(cfg);
      const trace::CanonicalTrace& canon =
          canonical.at({cfg.ranks, cfg.threads});
      const double s =
          trace::predict_job(cfg.processor, cfg.compile, binding, canon, memo)
              .total_s;
      if (round == 1 && s != seconds[i]) out.fail("predict_mismatch");
    }
    predict_s = seconds_since(t0);
  }
  out.layers["trace.predict_s"] = predict_s;
  out.layers["trace.predict_calls"] = static_cast<double>(configs.size());
  out.layers["trace.canonicalize_s"] = canon_s;
  out.layers["trace.classes"] = classes;
  if (!opt.spans_path.empty()) tracer.write_chrome_trace(opt.spans_path);
}

// ---------------------------------------------------------------------------
// serve-mix: an in-process core::Server driven closed-loop by 4 clients.

constexpr int kServeClients = 4;
constexpr int kServeWorkers = 4;
/// Requests per pass: p99 then has at least ten samples beyond it, and the
/// 48 execution keys of the universe are about 4% of the schedule.
constexpr std::size_t kServeRequests = 1200;

struct ServeRequestLine {
  std::string key;    ///< digest name: the request without its id
  std::string exec;   ///< execution key: what a first touch runs natively
  std::string line;
  bool first_touch = false;
};

/// The request universe: 8 apps x 3 MPI x OMP splits x 2 input seeds (48
/// execution keys), each under 3 processors x 2 compile presets x 2 thread
/// bindings (memo-tier variants of the same execution).
std::vector<ServeRequestLine> serve_universe() {
  const std::vector<std::pair<int, int>> splits = {{4, 12}, {8, 6}, {2, 24}};
  const std::vector<int> seeds = {42, 7};
  const std::vector<std::string> processors = {"a64fx", "skylake", "thunderx2"};
  const std::vector<std::string> compiles = {"simd+swp", "as-is"};
  const std::vector<std::string> binds = {"compact", "scatter"};
  std::vector<ServeRequestLine> out;
  for (const std::string& app : apps::registry_names()) {
    for (const auto& [ranks, threads] : splits) {
      for (const int seed : seeds) {
        const std::string exec = strfmt("%s/%dx%d/s%d", app.c_str(), ranks,
                                        threads, seed);
        for (const std::string& proc : processors) {
          for (const std::string& compile : compiles) {
            for (const std::string& bind : binds) {
              ServeRequestLine r;
              r.exec = exec;
              r.key = exec + "/" + proc + "/" + compile + "/" + bind;
              r.line = strfmt(
                  "{\"verb\":\"predict\",\"app\":\"%s\",\"dataset\":\"small\","
                  "\"ranks\":%d,\"threads\":%d,\"seed\":%d,"
                  "\"processor\":\"%s\",\"compile\":\"%s\",\"bind\":\"%s\"}",
                  app.c_str(), ranks, threads, seed, proc.c_str(),
                  compile.c_str(), bind.c_str());
              out.push_back(std::move(r));
            }
          }
        }
      }
    }
  }
  return out;
}

/// The seeded schedule: execution key uniform over the universe, then one of
/// its variants uniformly. The generator marks each key's first request.
std::vector<ServeRequestLine> serve_schedule(std::uint64_t seed) {
  const std::vector<ServeRequestLine> universe = serve_universe();
  std::map<std::string, std::vector<std::size_t>> by_exec;
  for (std::size_t i = 0; i < universe.size(); ++i) {
    by_exec[universe[i].exec].push_back(i);
  }
  std::vector<const std::vector<std::size_t>*> execs;
  for (const auto& [k, v] : by_exec) execs.push_back(&v);
  Xoshiro256 rng(seed, 1);
  std::vector<ServeRequestLine> out;
  std::map<std::string, bool> seen;
  for (std::size_t i = 0; i < kServeRequests; ++i) {
    const auto& variants = *execs[rng.bounded(execs.size())];
    ServeRequestLine r = universe[variants[rng.bounded(variants.size())]];
    r.first_touch = !seen[r.exec];
    seen[r.exec] = true;
    out.push_back(std::move(r));
  }
  return out;
}

/// Status of one response line: "OK", the typed error code, or "UNVERIFIED";
/// `payload` receives the predict payload of an OK response.
std::string response_status(const std::string& line, std::string* payload) {
  if (line.rfind("{\"ok\":true", 0) == 0) {
    const std::size_t at = line.find("\"payload\":");
    if (at == std::string::npos || line.back() != '}') return "MALFORMED";
    *payload = line.substr(at + 10, line.size() - at - 11);
    return line.find(",\"verified\":true,") == std::string::npos ? "UNVERIFIED"
                                                                  : "OK";
  }
  const std::size_t at = line.find("\"code\":\"");
  if (at == std::string::npos) return "MALFORMED";
  const std::size_t end = line.find('"', at + 8);
  return line.substr(at + 8, end - at - 8);
}

core::ServeOptions serve_options(const std::string& store_dir) {
  core::ServeOptions o;
  o.socket_path = "perfbench.sock";  // relative: the run's scratch directory
  o.workers = kServeWorkers;
  o.trace_cache_dir = store_dir;
  return o;
}

/// One closed-loop pass of the schedule against a running server: each
/// client sends its next request only after its previous reply. Returns the
/// pass's seconds.
double drive(const std::string& socket,
             const std::vector<ServeRequestLine>& schedule, Tracer& tracer,
             std::vector<ServeSample>* samples,
             std::vector<std::string>* digests) {
  samples->assign(schedule.size(), {});
  digests->assign(schedule.size(), {});
  std::atomic<std::size_t> next{0};
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < kServeClients; ++c) {
    clients.emplace_back([&] {
      std::unique_ptr<core::ServeClient> client;
      for (std::size_t i; (i = next.fetch_add(1)) < schedule.size();) {
        ServeSample& s = (*samples)[i];
        s.first_touch = schedule[i].first_touch;
        const Clock::time_point t0 = Clock::now();
        try {
          Tracer::Scope span(tracer, "serve.request");
          if (!client) client = std::make_unique<core::ServeClient>(socket);
          const std::string response = client->request(schedule[i].line);
          std::string payload;
          s.status = response_status(response, &payload);
          (*digests)[i] = digest_of(payload);
        } catch (const std::exception&) {
          s.status = "TRANSPORT";
          client.reset();
        }
        s.us = seconds_since(t0) * 1e6;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  return seconds_since(start);
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

void serve_mix(const Options& opt, Output& out) {
  init_registries();
  const fs::path scratch = fs::current_path();
  std::string store_dir = (scratch / "store-setup").string();
  {
    core::Server server(serve_options(store_dir));
    server.start();
    core::ServeClient client(server.socket_path());
    const std::string pong = client.request("{\"verb\":\"ping\"}");
    out.setup_s = seconds_since(g_process_start);
    if (pong.rfind("{\"ok\":true", 0) != 0) out.fail("ping");
    server.stop();
    server.wait();
  }
  fs::remove_all(store_dir);
  if (opt.setup_only) return;

  const std::vector<ServeRequestLine> schedule = serve_schedule(opt.seed);
  Tracer tracer;
  std::map<std::string, std::vector<double>> span_totals;
  std::map<std::string, std::vector<std::string>> payload_digests;
  std::vector<double> server_p50, server_p99;
  double tier_memo = 0, tier_disk = 0, tier_native = 0, busy = 0;
  std::size_t store_hits = 0, store_writes = 0;
  const auto record = [&](const std::vector<ServeSample>& s,
                          const std::vector<std::string>& d,
                          std::vector<ServeSample>* into) {
    out.attempted += s.size();
    for (std::size_t i = 0; i < s.size(); ++i) {
      into->push_back(s[i]);
      if (s[i].status == "OK") payload_digests[schedule[i].key].push_back(d[i]);
    }
  };
  const auto tally = [&](const core::Server& server) {
    const core::ServeStats st = server.stats_snapshot();
    tier_memo += static_cast<double>(st.tier_memo);
    tier_disk += static_cast<double>(st.tier_disk);
    tier_native += static_cast<double>(st.tier_native);
    busy += static_cast<double>(st.busy);
    server_p50.push_back(st.latency_p50_us);
    server_p99.push_back(st.latency_p99_us);
  };

  int pass_no = 0;
  run_passes(opt, out, tracer, span_totals, kServeRssPasses, [&](int, bool) {
    store_dir = (scratch / strfmt("store-%d", pass_no++)).string();
    std::vector<ServeSample> samples;
    std::vector<std::string> digests;
    {
      core::Server cold(serve_options(store_dir));  // empty store
      cold.start();
      out.cold_s.push_back(
          drive(cold.socket_path(), schedule, tracer, &samples, &digests));
      cold.stop();
      cold.wait();
      tally(cold);
      store_writes += cold.runner().trace_store()->writes();
    }
    record(samples, digests, &out.cold);
    {
      core::Server warm(serve_options(store_dir));  // same store, new server
      warm.start();
      out.warm_s.push_back(
          drive(warm.socket_path(), schedule, tracer, &samples, &digests));
      warm.stop();
      warm.wait();
      tally(warm);
      store_hits += warm.runner().trace_store()->hits();
    }
    record(samples, digests, &out.warm);
  }, [&](bool) {
    // The probes below read the last pass's store; older ones go. Left in
    // the scratch directory, they made the server start of later set-up
    // samples (which bind and make their store there) slower pass by pass.
    if (pass_no >= 2) {
      fs::remove_all(scratch / strfmt("store-%d", pass_no - 2));
    }
  });

  // Correctness: every payload of a request equals trace::to_json of an
  // in-process Runner's prediction for it (the `fibersim run --json`
  // contract), and repeats of a request are byte-identical. The reference
  // covers the whole universe, so the digest file is seed-independent.
  core::Runner reference;
  std::vector<trace::JobPrediction> predictions;
  for (const ServeRequestLine& r : serve_universe()) {
    core::ServeRequest req;
    const std::string problem = core::parse_serve_request(r.line, req);
    FS_REQUIRE(problem.empty(), "bad universe line: " + problem);
    const core::ExperimentResult res = reference.run(req.config);
    const std::string payload = trace::to_json(res.prediction);
    predictions.push_back(res.prediction);
    const std::string want = digest_of(payload);
    const std::vector<std::string>& got = payload_digests[r.key];
    const std::size_t bad = static_cast<std::size_t>(
        std::count_if(got.begin(), got.end(),
                      [&](const std::string& d) { return d != want; }));
    if (bad) out.fail("payload_mismatch", bad);
    if (!res.verified) out.fail("unverified");
    out.digests["predict/" + r.key] = Output::Digest{want, got.size() - bad};
    out.dump("predict/" + r.key, payload);
  }

  if (opt.trace) {
    // Client request spans overlap across threads; they go to the span file
    // only, not into a layer sum.
    out.layers["serve.tier_memo"] = tier_memo;
    out.layers["serve.tier_disk"] = tier_disk;
    out.layers["serve.tier_native"] = tier_native;
    out.layers["serve.busy"] = busy;
    out.layers["serve.server_p50_us"] = median(server_p50);
    out.layers["serve.server_p99_us"] = median(server_p99);
    out.layers["trace_store.hits"] = static_cast<double>(store_hits);
    out.layers["trace_store.writes"] = static_cast<double>(store_writes);

    // Trace store probes on the last pass's store: load every stored
    // execution, then publish each into a second store.
    trace::TraceStore store(store_dir);
    trace::TraceStore copy((scratch / "store-copy").string());
    double load_s = 0.0, store_s = 0.0;
    std::map<std::string, bool> done;
    for (const ServeRequestLine& r : schedule) {
      if (done[r.exec]) continue;
      done[r.exec] = true;
      core::ServeRequest req;
      if (!core::parse_serve_request(r.line, req).empty()) continue;
      trace::StoreKey key;
      key.app = req.config.app;
      key.dataset = static_cast<int>(req.config.dataset);
      key.ranks = req.config.ranks;
      key.threads = req.config.threads;
      key.iterations = req.config.iterations;
      key.weak_scale = req.config.weak_scale;
      key.seed = req.config.seed;
      Clock::time_point t0 = Clock::now();
      const std::optional<trace::StoredExecution> exec = store.load(key);
      load_s += seconds_since(t0);
      if (!exec) {
        out.fail("store_miss");
        continue;
      }
      t0 = Clock::now();
      if (!copy.store(key, *exec)) out.fail("store_write");
      store_s += seconds_since(t0);
    }
    out.layers["trace_store.load_s"] = load_s;
    out.layers["trace_store.store_s"] = store_s;
    out.layers["trace_store.bytes"] = static_cast<double>(dir_bytes(store_dir));

    // Inline verb floor: transport, codec and dispatch without any work.
    {
      core::Server server(serve_options((scratch / "store-ping").string()));
      server.start();
      core::ServeClient client(server.socket_path());
      std::vector<double> ping_us;
      for (int i = 0; i < 400; ++i) {
        const Clock::time_point t0 = Clock::now();
        (void)client.request("{\"verb\":\"ping\"}");
        ping_us.push_back(seconds_since(t0) * 1e6);
      }
      out.layers["serve.ping_p50_us"] = median(ping_us);
      server.stop();
      server.wait();
    }

    // Codec and serialiser costs per call.
    Clock::time_point t0 = Clock::now();
    for (const ServeRequestLine& r : schedule) {
      core::ServeRequest req;
      (void)core::parse_serve_request(r.line, req);
    }
    out.layers["serve_codec.parse_us"] =
        seconds_since(t0) * 1e6 / static_cast<double>(schedule.size());
    std::size_t json_bytes = 0;
    t0 = Clock::now();
    for (int round = 0; round < 20; ++round) {
      for (const trace::JobPrediction& p : predictions) {
        json_bytes += trace::to_json(p).size();
      }
    }
    out.layers["trace.to_json_us"] =
        predictions.empty() ? 0.0
                            : seconds_since(t0) * 1e6 /
                                  static_cast<double>(20 * predictions.size());
    if (json_bytes == 0) out.fail("to_json_empty");
    if (!opt.spans_path.empty()) tracer.write_chrome_trace(opt.spans_path);
  }
  for (const auto& e : fs::directory_iterator(scratch)) {
    if (e.path().filename().string().rfind("store-", 0) == 0) {
      fs::remove_all(e.path());
    }
  }
}

int parse_args(int argc, char** argv, Options* opt, Output* out) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--setup-only") {
      opt->setup_only = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << key << "\n";
      return 2;
    }
    const std::string value = argv[++i];
    if (key == "--workload") {
      opt->workload = value;
    } else if (key == "--seed") {
      const std::optional<std::uint64_t> v = parse_u64(value);
      if (!v) return std::cerr << "--seed: expected an integer\n", 2;
      opt->seed = *v;
    } else if (key == "--seconds") {
      const std::optional<double> v = parse_f64(value);
      if (!v || *v <= 0.0) return std::cerr << "--seconds: expected > 0\n", 2;
      opt->seconds = *v;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        return std::cerr << "--trace: 0 or 1\n", 2;
      }
      opt->trace = value == "1";
    } else if (key == "--spans") {
      opt->spans_path = value;
    } else if (key == "--dump") {
      out->dump_dir = value;
      fs::create_directories(value);
    } else {
      std::cerr << "unknown flag: " << key << "\n";
      return 2;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  Output out;
  opt.self = argv[0];
  if (const int rc = parse_args(argc, argv, &opt, &out); rc != 0) return rc;
  try {
    if (opt.workload == "paper-small") {
      paper_small(opt, out);
    } else if (opt.workload == "scale-e2x") {
      scale_e2x(opt, out);
    } else if (opt.workload == "tune-ffvc") {
      tune_ffvc(opt, out);
    } else if (opt.workload == "serve-mix") {
      serve_mix(opt, out);
    } else {
      std::cerr << "unknown workload: '" << opt.workload << "'\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench_workload: " << e.what() << "\n";
    return 1;
  }
  std::cout << out.to_json() << std::endl;
  return 0;
}

// perf_calibrate — host calibration cost and fit-pipeline invariants.
//
// Measures the real micro-kernel pass on this host (wall time is the cost a
// `fibersim calibrate` user pays), then checks the properties CI relies on:
//
//   * determinism: fitting the same measurements twice — and fitting two
//     synthetic measurement sets derived from the same seed — must produce
//     byte-identical descriptors;
//   * round-trip:  parse(to_descriptor(fitted)) must equal the fitted config
//     field-for-field and re-serialise to the same bytes;
//   * fidelity:    fitting the synthetic measurements of the analytic A64FX
//     must land its clock and DRAM bandwidth within the injected 2% noise
//     plus 3-significant-digit quantisation (5% gate). Peak is reported but
//     not gated: the fit expresses peak through the *host* ISA's pipe count,
//     which saturates for wide analytic machines on narrow hosts.
//
// The bench exits nonzero if any invariant fails. Results go to stdout and
// to a JSON artifact (default BENCH_calibrate.json — run from the repo root
// to refresh the committed file; CI re-checks the invariants from the JSON).
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>

#include "common/json.hpp"
#include "common/parse_num.hpp"
#include "common/report_emit.hpp"
#include "common/string_util.hpp"
#include "common/timer.hpp"
#include "machine/calibrate.hpp"
#include "machine/descriptor.hpp"

namespace {

using namespace fibersim;

bool within(double value, double target, double tolerance) {
  return value >= target * (1.0 - tolerance) &&
         value <= target * (1.0 + tolerance);
}

}  // namespace

int main(int argc, char** argv) {
  machine::CalibrationOptions opt;
  opt.quick = true;
  std::string out_path = "BENCH_calibrate.json";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << a << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--seed") {
      const std::string v = value();
      const std::optional<std::uint64_t> n = fibersim::parse_u64(v);
      if (!n) {
        std::cerr << "--seed: expected a non-negative integer, got '" << v
                  << "'\n";
        std::exit(2);
      }
      opt.seed = *n;
    } else if (a == "--trials") {
      const std::string v = value();
      const std::optional<int> n = fibersim::parse_i32(v);
      if (!n || *n < 1) {
        std::cerr << "--trials: expected an integer >= 1, got '" << v << "'\n";
        std::exit(2);
      }
      opt.trials = *n;
    } else if (a == "--full") {
      opt.quick = false;
    } else if (a == "--out") {
      out_path = value();
    } else {
      std::cerr << "unknown argument: " << a << "\n";
      std::exit(2);
    }
  }

  // --- Real measurement pass: the cost a calibrate user pays. ---
  WallTimer timer;
  const machine::CalibrationMeasurements host = machine::measure(opt);
  const double measure_s = timer.elapsed();

  // --- Determinism: same measurements -> byte-identical descriptors. ---
  opt.name = "perf-calibrate-host";
  const machine::ProcessorConfig host_a = machine::fit_descriptor(host, opt);
  const machine::ProcessorConfig host_b = machine::fit_descriptor(host, opt);
  const std::string host_desc_a = machine::to_descriptor(host_a);
  const std::string host_desc_b = machine::to_descriptor(host_b);
  const bool fit_deterministic =
      host_a == host_b && host_desc_a == host_desc_b;

  const machine::ProcessorConfig analytic = machine::a64fx();
  const machine::CalibrationMeasurements syn_a =
      machine::synthetic_measurements(analytic, opt.seed, 0.02);
  const machine::CalibrationMeasurements syn_b =
      machine::synthetic_measurements(analytic, opt.seed, 0.02);
  machine::CalibrationOptions syn_opt = opt;
  syn_opt.name = "a64fx-synthetic";
  const machine::ProcessorConfig fit_syn_a =
      machine::fit_descriptor(syn_a, syn_opt);
  const machine::ProcessorConfig fit_syn_b =
      machine::fit_descriptor(syn_b, syn_opt);
  const bool synthetic_deterministic =
      syn_a == syn_b && machine::to_descriptor(fit_syn_a) ==
                            machine::to_descriptor(fit_syn_b);

  // --- Round-trip: fitted config survives serialise/parse bit-exactly. ---
  const machine::ProcessorConfig reparsed =
      machine::parse_descriptor(host_desc_a);
  const bool round_trip = reparsed == host_a &&
                          machine::to_descriptor(reparsed) == host_desc_a;

  // --- Fidelity: synthetic fit vs the analytic model it was derived from.
  const double freq_ratio = fit_syn_a.freq_hz / analytic.freq_hz;
  const double dram_ratio = fit_syn_a.node_mem_bw() / analytic.node_mem_bw();
  const double peak_ratio =
      fit_syn_a.peak_flops_node() / analytic.peak_flops_node();
  const bool fidelity_ok =
      within(freq_ratio, 1.0, 0.05) && within(dram_ratio, 1.0, 0.05);

  const bool ok = fit_deterministic && synthetic_deterministic && round_trip &&
                  fidelity_ok;

  ReportArtifact verdict;
  verdict.id = "perf_calibrate";
  TextTable table({"quantity", "value"});
  table.add_row({"measure wall time",
                 strfmt("%.3f s (%s, %d trials)", measure_s,
                        opt.quick ? "quick" : "full", opt.trials)});
  table.add_row({"host clock", si_format(host.freq_hz) + "Hz"});
  table.add_row({"host DRAM BW", si_format(host.dram_bw) + "B/s"});
  table.add_row({"host FMA peak", si_format(host.fma_flops) + "flop/s"});
  table.add_row({"fit deterministic", fit_deterministic ? "yes" : "NO"});
  table.add_row(
      {"synthetic deterministic", synthetic_deterministic ? "yes" : "NO"});
  table.add_row({"descriptor round-trip", round_trip ? "yes" : "NO"});
  table.add_row({"synthetic freq ratio", strfmt("%.3f", freq_ratio)});
  table.add_row({"synthetic DRAM ratio", strfmt("%.3f", dram_ratio)});
  table.add_row({"synthetic peak ratio",
                 strfmt("%.3f (informational)", peak_ratio)});
  EmitOptions framed;
  framed.framed = true;
  verdict.add_table("perf_calibrate: measurement cost and fit invariants",
                    table);
  verdict.metrics.push_back({"measure_seconds", measure_s, "s"});
  verdict.metrics.push_back({"freq_ratio", freq_ratio, ""});
  verdict.metrics.push_back({"dram_ratio", dram_ratio, ""});
  emit_report(verdict, framed, std::cout);

  json::Writer json(json::Writer::Layout::kIndented);
  json.begin_object()
      .field("bench", "calibrate")
      .field("quick", opt.quick)
      .field("seed", opt.seed)
      .field("trials", opt.trials)
      .field("measure_seconds", measure_s)
      .key("host")
      .begin_object()
      .field("freq_hz", host.freq_hz)
      .field("l1_bw", host.l1_bw)
      .field("l2_bw", host.l2_bw)
      .field("dram_bw", host.dram_bw)
      .field("fma_flops", host.fma_flops)
      .field("numa_remote_penalty", host.numa_remote_penalty)
      .field("barrier_ns", host.barrier_ns)
      .field("threads", host.threads)
      .field("numa_domains", host.numa_domains)
      .end_object()
      .key("synthetic")
      .begin_object()
      .field("freq_ratio", freq_ratio)
      .field("dram_ratio", dram_ratio)
      .field("peak_ratio", peak_ratio)
      .end_object()
      .field("fit_deterministic", fit_deterministic)
      .field("synthetic_deterministic", synthetic_deterministic)
      .field("round_trip", round_trip)
      .field("fidelity_ok", fidelity_ok)
      .field("ok", ok)
      .end_object();

  std::ofstream out(out_path);
  out << std::move(json).take();
  if (!out) {
    std::cerr << "failed to write " << out_path << "\n";
    return 1;
  }
  std::cout << "wrote " << out_path << "\n";

  if (!ok) {
    std::cerr << "FATAL: perf_calibrate invariants violated"
              << " (fit_deterministic=" << fit_deterministic
              << ", synthetic_deterministic=" << synthetic_deterministic
              << ", round_trip=" << round_trip
              << ", fidelity_ok=" << fidelity_ok << ")\n";
    return 1;
  }
  return 0;
}

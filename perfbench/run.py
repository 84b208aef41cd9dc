#!/usr/bin/env python3
"""The fibersim benchmark: builds perfbench_workload from the repo's sources,
runs one workload in its own process, checks every output against
perfbench/digests.json and prints the metrics BENCHMARK.json declares.

    python3 perfbench/run.py --workload paper-small --seed 1 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one table

Run from the repository root. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; a human summary with the
host provenance goes to stderr. --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer ones. Every time is host time; simulated seconds are
outputs and only enter the digests.

--update-digests rewrites the digests of the workload's outputs in
digests.json after the run; use it only when an output change is intended.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout clean
import benchlib  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-small", "scale-e2x", "tune-ffvc", "serve-mix")
RUN_TIMEOUT_S = 170
# Variables through which a user's environment would change the workload
# (a warm trace store, an installed fault plan).
SCRUBBED_ENV = ("FIBERSIM_TRACE_CACHE", "FIBERSIM_TRACE_CACHE_MAX_MB",
                "FIBERSIM_FAULT_PLAN")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then build the workload binary (a no-op when fresh)."""
    if not (build_dir / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "perfbench_workload", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return build_dir / "perfbench_workload"


def provenance(build_dir):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    build_type = "unknown"
    cache = build_dir / "CMakeCache.txt"
    if cache.is_file():
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1]
    rev = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short",
                              "HEAD"], capture_output=True, text=True)
        if got.returncode == 0:
            rev = got.stdout.strip()
    return (f"host: {cpu}, nproc {os.cpu_count()}; build: {build_type}; "
            f"rev: {rev}")


def run_workload(binary, args, scratch, extra):
    """Runs the workload in a process group of its own, so that on a timeout
    the set-up-only processes it starts are stopped with it."""
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    with subprocess.Popen(cmd, cwd=scratch, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise RuntimeError(f"perfbench_workload exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def serve_metrics(raw):
    """Client-side serve latencies (failed requests count as +inf) and the
    warm-pass predict rate."""
    cold = raw["serve"]["cold"]
    warm = raw["serve"]["warm"]
    if not cold:
        return {}, []
    out = {}
    notes = []
    for phase, samples in (("cold", cold), ("warm", warm)):
        values = benchlib.latency((s[0], s[1]) for s in samples)
        summary = benchlib.summarize(values)
        out[f"serve.{phase}_p50_us"] = summary["p50"]
        enough = benchlib.beyond(len(values), 99.0) >= benchlib.MIN_BEYOND
        out[f"serve.{phase}_p99_us"] = (benchlib.percentile(values, 99.0)
                                        if enough else None)
        notes.append(f"{phase}: n={summary['n']}, rule's tail percentile "
                     f"p{summary['tail_p']}")
    first = benchlib.latency((s[0], s[1]) for s in cold if s[2])
    repeat = benchlib.latency((s[0], s[1]) for s in cold + warm if not s[2])
    out["serve.first_touch_p50_us"] = benchlib.percentile(first, 50.0)
    out["serve.memo_p50_us"] = benchlib.percentile(repeat, 50.0)
    ok_warm = sum(1 for s in warm if s[1] == "OK")
    out["serve.predict_rps"] = ok_warm / sum(raw["serve"]["warm_s"])
    return out, notes


def metrics_of(args, raw, failed):
    """Every metric one run measured (name -> value). setup_s is the median
    of the measured process's own set-up and of the fresh set-up-only
    processes it started around each pass (untraced runs only)."""
    values = {
        "setup_s": statistics.median([raw["setup_s"], *raw["setup_samples"]]),
        "cpu_s": statistics.median(raw["pass_cpu"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "perfbench.wall_s": statistics.median(raw["passes"]),
        "perfbench.failed_frac": failed / raw["attempted"],
    }
    serve, notes = serve_metrics(raw)
    values.update(serve)
    if args.trace:
        traced = statistics.median(raw["traced_passes"])
        values["perfbench.traced_wall_s"] = traced
        values["perfbench.trace_overhead_s"] = (traced
                                                - values["perfbench.wall_s"])
        values.update(raw["layers"])
    return values, notes


def finite(value):
    """None for a percentile that landed on a failed request (+inf)."""
    return value if value is not None and value < float("inf") else None


def run_one(args, binary, build_dir, bench, committed):
    scratch = Path(tempfile.mkdtemp(prefix="perfbench-", dir=build_dir))
    try:
        extra = []
        if args.trace:
            spans = build_dir / f"spans-{args.workload}.json"
            extra += ["--spans", str(spans)]
        if args.dump:
            extra += ["--dump", str(Path(args.dump).resolve())]
        raw = run_workload(binary, args, scratch, extra)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = benchlib.failed_ops(raw, committed)
    mismatches = sorted(benchlib.digest_mismatches(raw["digests"],
                                                   committed).items())
    for name, ops in mismatches[:10]:
        log(f"  digest mismatch: {name} ({ops} operations)")
    if len(mismatches) > 10:
        log(f"  ... and {len(mismatches) - 10} more digest mismatches")
    measured, notes = metrics_of(args, raw, failed)
    shown = {}
    declared = bench["per_layer" if args.trace else "end_to_end"]
    # A layer the workload does not exercise did no work in it: 0.
    values = {m["name"]: finite(measured.get(m["name"], 0.0))
              for m in declared}
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    if not args.trace:
        # Shown beside the end-to-end metrics; reported in the traced run.
        for name in ("perfbench.wall_s", "perfbench.failed_frac",
                     "serve.cold_p50_us",
                     "serve.cold_p99_us", "serve.warm_p50_us",
                     "serve.warm_p99_us", "serve.predict_rps"):
            if name in measured:
                shown[name] = finite(measured[name])

    log(f"perfbench {args.workload} seed={args.seed} trace={args.trace}  "
        f"{provenance(build_dir)}")
    log(f"  passes: {len(raw['passes'])} untraced"
        + (f", {len(raw['traced_passes'])} traced" if args.trace else "")
        + f"; set-ups: {len(raw['setup_samples']) + 1}; cpu_s and wall_s "
        "are per-pass "
        "medians")
    log(f"  failed {failed} of {raw['attempted']} operations"
        + (f"; workload-counted failures {raw['failures']}"
           if raw["failures"] else ""))
    for note in notes:
        log(f"  serve {note}")
    for name, value in {**values, **shown}.items():
        text = "n/a" if value is None else f"{value:.6g}"
        log(f"  {name:34s} {text:>14s} {units[name]}")
    if args.update_digests:
        for name, entry in raw["digests"].items():
            committed[name] = entry["digest"]
        (HERE / "digests.json").write_text(
            json.dumps(committed, indent=1, sort_keys=True) + "\n")
        log("  digests.json updated")
    return {
        "correct": failed == 0,
        "attempted": raw["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dump", help="write every digested output here")
    parser.add_argument("--update-digests", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"perfbench: fibersim sources not found under {ROOT / 'src'}")
        return 1
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        committed = json.loads((HERE / "digests.json").read_text())
        build_dir = (ROOT / os.environ.get("CARGO_TARGET_DIR",
                                           ".bench_build")).resolve()
        build_dir.mkdir(parents=True, exist_ok=True)
        binary = build(build_dir)
        if args.workload != "all":
            result = run_one(args, binary, build_dir, bench, committed)
        else:
            result = {"correct": True, "attempted": 0, "failed": 0,
                      "metrics": {}}
            for workload in WORKLOADS:
                args.workload = workload
                one = run_one(args, binary, build_dir, bench, committed)
                result["correct"] = result["correct"] and one["correct"]
                result["attempted"] += one["attempted"]
                result["failed"] += one["failed"]
                for name, metric in one["metrics"].items():
                    result["metrics"][f"{workload}.{name}"] = metric
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env sh
# CI gate: tier-1 verify (full build + full test suite), then the
# concurrency/fault-labelled tests rebuilt under ThreadSanitizer and
# UndefinedBehaviorSanitizer, and the failure/fault-injection suites under
# AddressSanitizer.
#
# Usage: tools/ci.sh            (from the repo root)
#   BUILD_DIR=...  override the tier-1 build dir   (default: build)
#   TSAN_DIR=...   override the TSan build dir     (default: build-tsan)
#   ASAN_DIR=...   override the ASan build dir     (default: build-asan)
#   UBSAN_DIR=...  override the UBSan build dir    (default: build-ubsan)
set -eu

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"
TSAN_DIR="${TSAN_DIR:-build-tsan}"
ASAN_DIR="${ASAN_DIR:-build-asan}"
UBSAN_DIR="${UBSAN_DIR:-build-ubsan}"

echo "== tier-1: build (warnings are errors) + full test suite =="
cmake -B "$BUILD_DIR" -S . -DFIBERSIM_WERROR=ON
cmake --build "$BUILD_DIR" -j
ctest --test-dir "$BUILD_DIR" --output-on-failure -j

echo "== perfbench: harness unit tests =="
PYTHONDONTWRITEBYTECODE=1 python3 -m unittest discover -s perfbench \
    -p 'test_*.py'

echo "== perfbench: every workload once against the committed digests =="
# perfbench/digests.json pins the bytes of every report, tune artifact and
# serve payload the workloads produce, so this is the gate that compares
# native-run output with the commit that recorded the digests. A 1-second
# run still makes every workload's passes once.
PERFBENCH_LAST="$(PYTHONDONTWRITEBYTECODE=1 python3 perfbench/run.py \
    --workload all --seconds 1 --trace 0 | tail -n 1)"
printf '%s\n' "$PERFBENCH_LAST" | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
sys.exit(0 if r.get("correct") is True and r.get("failed") == 0 else 1)
' || {
  echo "perfbench: a workload failed or moved its digest: $PERFBENCH_LAST" >&2
  exit 1
}

echo "== trace store: cold -> warm replay must be byte-identical =="
CACHE_DIR="$(mktemp -d)"
trap 'rm -rf "$CACHE_DIR"' EXIT
FIBERSIM="$BUILD_DIR/tools/fibersim"
RUN_ARGS="run --app ffvc --dataset small --ranks 4 --threads 2 --json"
"$FIBERSIM" $RUN_ARGS --trace-cache "$CACHE_DIR" > "$CACHE_DIR/cold.json"
"$FIBERSIM" $RUN_ARGS --trace-cache "$CACHE_DIR" > "$CACHE_DIR/warm.json"
diff "$CACHE_DIR/cold.json" "$CACHE_DIR/warm.json"
# The warm pass must replay from disk: a second cache dir would have forced
# a native run, so assert the store actually holds the published trace.
[ "$(ls "$CACHE_DIR" | grep -c '\.fstrace$')" -eq 1 ]
# The bench drives a full cold/warm sweep and exits nonzero unless the warm
# pass runs with native_runs == 0 and byte-identical output for jobs 1 and 4.
"$BUILD_DIR/bench/perf_trace_cache" --out "$CACHE_DIR/BENCH_trace_cache.json" \
    --cache-dir "$CACHE_DIR/bench-cache"

echo "== report registry: --all must be jobs-invariant and documented =="
REPORT_ARGS="report --all --apps ffvc --dataset small --iterations 1"
"$FIBERSIM" $REPORT_ARGS > "$CACHE_DIR/report.cold.txt"
"$FIBERSIM" $REPORT_ARGS --jobs 4 > "$CACHE_DIR/report.j4.txt"
diff "$CACHE_DIR/report.cold.txt" "$CACHE_DIR/report.j4.txt"
# Every registered experiment id must have a section in EXPERIMENTS.md.
"$FIBERSIM" list | awk '/^reports:/{flag=1; next} /^[^ ]/{flag=0} flag && NF {print $1}' \
  | while read -r id; do
      grep -Eq "^## [A-Z0-9 /]*\b$id\b" EXPERIMENTS.md || {
        echo "registered experiment $id missing from EXPERIMENTS.md" >&2
        exit 1
      }
    done

echo "== descriptors: checked-in files == constructors == loaded registry =="
# Each committed descriptor must be byte-identical to what the compiled-in
# constructor serialises to (the registry asserts the reverse direction —
# parse(file) == constructor — at load time).
for pair in "a64fx a64fx.json" "skylake skylake8168x2.json" \
    "thunderx2 thunderx2.json" "broadwell broadwell.json"; do
  set -- $pair
  "$FIBERSIM" describe "$1" > "$CACHE_DIR/describe.$1.json"
  diff "$CACHE_DIR/describe.$1.json" "descriptors/$2"
done
# Every descriptor passes the deep field-range check.
"$BUILD_DIR/tools/json_check" descriptors/*.json
# Swapping the built-ins for the checked-in descriptors must not move a
# single byte of any report, at any job count (report.cold.txt ran with the
# compiled-in registry at jobs 1).
"$FIBERSIM" $REPORT_ARGS --jobs 4 --processor-dir descriptors \
    > "$CACHE_DIR/report.descriptors.txt"
diff "$CACHE_DIR/report.cold.txt" "$CACHE_DIR/report.descriptors.txt"

echo "== calibrate: host micro-kernels -> valid, loadable descriptor =="
# The quick pass must emit a descriptor that survives the strict parser and
# immediately works as a --processor argument (1x1: the CI host may expose
# a single core).
"$FIBERSIM" calibrate --quick --out "$CACHE_DIR/host.json" \
    --measurements "$CACHE_DIR/host-measurements.json" > /dev/null
"$BUILD_DIR/tools/json_check" "$CACHE_DIR/host.json" \
    "$CACHE_DIR/host-measurements.json"
"$FIBERSIM" run --app ffvc --dataset small --ranks 1 --threads 1 \
    --processor "$CACHE_DIR/host.json" --json > /dev/null
# Refitting the same measurements must reproduce the descriptor bytes.
"$FIBERSIM" calibrate --from-measurements "$CACHE_DIR/host-measurements.json" \
    > "$CACHE_DIR/host.refit.json"
"$FIBERSIM" calibrate --from-measurements "$CACHE_DIR/host-measurements.json" \
    > "$CACHE_DIR/host.refit2.json"
diff "$CACHE_DIR/host.refit.json" "$CACHE_DIR/host.refit2.json"
# The bench re-checks fit determinism, the serialise/parse round trip and
# the synthetic-fit fidelity gates, and exits nonzero on any violation.
"$BUILD_DIR/bench/perf_calibrate" --out "$CACHE_DIR/BENCH_calibrate.json"
for invariant in '"fit_deterministic": true' '"synthetic_deterministic": true' \
    '"round_trip": true' '"fidelity_ok": true' '"ok": true'; do
  grep -q "$invariant" "$CACHE_DIR/BENCH_calibrate.json" || {
    echo "BENCH_calibrate.json missing invariant: $invariant" >&2
    exit 1
  }
done

echo "== collapse: every report byte-identical with --collapse-ranks on =="
# report.cold.txt above ran with the default (--collapse-ranks off). The
# rank-symmetry contract says collapsed execution changes wall time only,
# never a trace, prediction, or rendered table — so the same sweep with
# collapse forced on must produce the same bytes for every registered
# experiment (E1X/E2X force collapse internally and are identical trivially).
"$FIBERSIM" $REPORT_ARGS --collapse-ranks on > "$CACHE_DIR/report.collapse.txt"
diff "$CACHE_DIR/report.cold.txt" "$CACHE_DIR/report.collapse.txt"
# The collapsed data plane (weighted allreduces, the allgather expansion)
# is exercised hardest by modylas and ntchem, so the same diff runs over
# all eight apps.
ALL_APPS_ARGS="report --all --dataset small --iterations 1"
LEG_START="$(date +%s%N)"
"$FIBERSIM" $ALL_APPS_ARGS > "$CACHE_DIR/report.all.txt"
"$FIBERSIM" $ALL_APPS_ARGS --collapse-ranks on \
    > "$CACHE_DIR/report.all.collapse.txt"
diff "$CACHE_DIR/report.all.txt" "$CACHE_DIR/report.all.collapse.txt"
echo "collapse, all apps: $(( ($(date +%s%N) - LEG_START) / 1000000 )) ms"
# The scale bench re-checks the structural invariant (one native rank per
# symmetry class at every point) and the >= 20x trend bar, and exits
# nonzero on any violation. --max-nodes keeps the CI leg at 16384 ranks.
"$BUILD_DIR/bench/perf_scale" --out "$CACHE_DIR/BENCH_scale.json" \
    --max-nodes 4096
if grep -q '"native_equals_classes": false' "$CACHE_DIR/BENCH_scale.json"; then
  echo "BENCH_scale.json: a collapsed pass ran native ranks != classes" >&2
  exit 1
fi
grep -q '"ok": true' "$CACHE_DIR/BENCH_scale.json" || {
  echo "BENCH_scale.json: bench did not report ok" >&2
  exit 1
}

echo "== serve: daemon smoke (predict parity, chaos, clean shutdown) =="
SERVE_SOCK="$CACHE_DIR/serve.sock"
SERVE_CACHE="$CACHE_DIR/serve-cache"
SERVE_LOG="$CACHE_DIR/serve.log"
PERF_SERVE="$BUILD_DIR/bench/perf_serve"
SERVE_JOURNAL="$CACHE_DIR/serve.journal"
"$FIBERSIM" serve --socket "$SERVE_SOCK" --workers 2 \
    --trace-cache "$SERVE_CACHE" --journal "$SERVE_JOURNAL" \
    > "$SERVE_LOG" 2>&1 &
SERVE_PID=$!
# Readiness via the retrying client (connect failures back off and retry —
# no hand-rolled sleep/grep polling).
"$PERF_SERVE" --connect "$SERVE_SOCK" --send '{"verb":"ping"}' \
    --retries 20 --backoff-ms 50 > /dev/null
PREDICT='{"verb":"predict","app":"ffvc","dataset":"small","ranks":4,"threads":2}'
# Cold then warm: the daemon's payload must be byte-identical to the CLI's
# `run --json` for the same config, and the warm repeat must agree.
RESP1="$("$PERF_SERVE" --connect "$SERVE_SOCK" --send "$PREDICT")"
RESP2="$("$PERF_SERVE" --connect "$SERVE_SOCK" --send "$PREDICT")"
case "$RESP1" in '{"ok":true'*) ;; *) echo "bad response: $RESP1" >&2; exit 1;; esac
PAYLOAD1="${RESP1#*\"payload\":}"; PAYLOAD1="${PAYLOAD1%\}}"
PAYLOAD2="${RESP2#*\"payload\":}"; PAYLOAD2="${PAYLOAD2%\}}"
CLI_JSON="$("$FIBERSIM" run --app ffvc --dataset small --ranks 4 --threads 2 --json)"
[ "$PAYLOAD1" = "$CLI_JSON" ] || { echo "serve payload != run --json" >&2; exit 1; }
[ "$PAYLOAD1" = "$PAYLOAD2" ] || { echo "warm payload diverged" >&2; exit 1; }
# A short multi-client load pass must come back with zero not-ok responses.
"$PERF_SERVE" --connect "$SERVE_SOCK" --clients 2 --requests 8
# Fault chaos: a plan-carrying daemon must answer with a typed FAILED
# response tagged with the injected class — never a hang or a crash.
FIBERSIM_FAULT_PLAN="seed=7;run.fail=1000000" "$FIBERSIM" serve \
    --socket "$SERVE_SOCK.chaos" > "$SERVE_LOG.chaos" 2>&1 &
CHAOS_PID=$!
"$PERF_SERVE" --connect "$SERVE_SOCK.chaos" --send '{"verb":"ping"}' \
    --retries 20 --backoff-ms 50 > /dev/null
CHAOS_RESP="$("$PERF_SERVE" --connect "$SERVE_SOCK.chaos" --send "$PREDICT")"
case "$CHAOS_RESP" in
  *'"code":"FAILED"'*'class=injected'*) ;;
  *) echo "expected typed FAILED(class=injected), got: $CHAOS_RESP" >&2; exit 1;;
esac
# Clean shutdown: TERM drains, exits 0, unlinks sockets, leaves no torn
# .tmp entries in the trace store.
kill -TERM "$SERVE_PID" "$CHAOS_PID"
wait "$SERVE_PID"
wait "$CHAOS_PID"
grep -q "server stopped" "$SERVE_LOG"
grep -q "server stopped" "$SERVE_LOG.chaos"
[ ! -e "$SERVE_SOCK" ] && [ ! -e "$SERVE_SOCK.chaos" ]
[ "$(find "$SERVE_CACHE" -name '.tmp-*' | wc -l)" -eq 0 ]

echo "== JSON outputs: everything the CLI emits passes the strict parser =="
# One writer (common/json) serialises every output; this re-reads each kind
# the CLI produces, including every journal line of the serve leg above.
"$FIBERSIM" run --app ffvc --dataset small --ranks 4 --threads 2 \
    --dump-trace "$CACHE_DIR/trace.json" > /dev/null
"$FIBERSIM" report --all --apps ffvc --dataset small --format json \
    > "$CACHE_DIR/report.json"
JOURNAL_LINES="$CACHE_DIR/journal-lines"
mkdir -p "$JOURNAL_LINES"
[ -s "$SERVE_JOURNAL" ]
split -l 1 "$SERVE_JOURNAL" "$JOURNAL_LINES/line."
"$BUILD_DIR/tools/json_check" "$CACHE_DIR/cold.json" "$CACHE_DIR/trace.json" \
    "$CACHE_DIR/report.json" "$CACHE_DIR/host-measurements.json" \
    "$JOURNAL_LINES"/line.*

echo "== tune: seeded determinism across jobs + halving vs exhaustive =="
# The autotuner's contract: byte-identical reports for any --jobs N at a
# fixed seed, and a recommendation that beats the paper's as-is baseline.
TUNE_ARGS="tune --app ffvc --dataset small --iterations 2 --seed 42 \
    --processors a64fx --combos representative --generations 2"
"$FIBERSIM" $TUNE_ARGS --jobs 1 > "$CACHE_DIR/tune.j1.txt"
"$FIBERSIM" $TUNE_ARGS --jobs 4 > "$CACHE_DIR/tune.j4.txt"
diff "$CACHE_DIR/tune.j1.txt" "$CACHE_DIR/tune.j4.txt"
grep -q 'best beats as-is baseline: yes' "$CACHE_DIR/tune.j1.txt" || {
  echo "tune: recommended config does not beat the as-is baseline" >&2
  exit 1
}
# The bench races the tuner against exhaustive enumeration of the full
# cross-product and exits nonzero unless the argmin matches bitwise, the
# native/codegen eval counts shrink >= 50x, and jobs 1 == jobs 4.
"$BUILD_DIR/bench/perf_tune" --out "$CACHE_DIR/BENCH_tune.json"
for invariant in '"argmin_match": true' '"jobs_identical": true' \
    '"reduction_ok": true' '"best_beats_baseline": true' '"ok": true'; do
  grep -q "$invariant" "$CACHE_DIR/BENCH_tune.json" || {
    echo "BENCH_tune.json missing invariant: $invariant" >&2
    exit 1
  }
done

echo "== bench artifacts: every committed BENCH_*.json must parse =="
# Gate every repo-root artifact through the repo's own strict parser
# (duplicate keys, grammar, depth all enforced): a committed file may be
# stale or hand-edited, and must not ship malformed either way.
"$BUILD_DIR/tools/json_check" BENCH_*.json

echo "== resilience: chaos soak (SIGKILL + supervised recovery, zero loss) =="
# The soak harness runs a supervised external server under live load while
# SIGKILLing the serving child, then re-checks every acknowledged config
# after the final recovery. Bounded for CI: 2 kills, 2 clients.
RES_DIR="$CACHE_DIR/resilience"
RES_JSON="$CACHE_DIR/BENCH_resilience.json"
"$BUILD_DIR/bench/perf_resilience" --server "$FIBERSIM" --out "$RES_JSON" \
    --work-dir "$RES_DIR" --kills 2 --clients 2 --requests 24
for invariant in '"zero_loss": true' '"byte_identical": true' \
    '"supervisor_clean_exit": true' '"journal_newline_clean": true' \
    '"typed_timeout": true' '"recovered": true' '"terminal_errors": 0' \
    '"ok": true'; do
  grep -q "$invariant" "$RES_JSON" || {
    echo "BENCH_resilience.json missing invariant: $invariant" >&2
    exit 1
  }
done
# Post-soak cleanliness, re-checked from outside the harness: socket
# unlinked, journal newline-terminated (no torn tail), no half-published
# .tmp entries in the trace store.
[ ! -e "$RES_DIR/resilience.sock" ]
[ -s "$RES_DIR/resilience.journal" ]
[ "$(tail -c 1 "$RES_DIR/resilience.journal" | wc -l)" -eq 1 ]
[ "$(find "$RES_DIR/resilience-cache" -name '.tmp-*' | wc -l)" -eq 0 ]

echo "== sanitize: concurrency + fault suites under TSan =="
cmake -B "$TSAN_DIR" -S . -DFIBERSIM_SANITIZE=thread
cmake --build "$TSAN_DIR" -j
ctest --test-dir "$TSAN_DIR" -L sanitize --output-on-failure

echo "== fault: failure/fault-injection suites under ASan =="
cmake -B "$ASAN_DIR" -S . -DFIBERSIM_SANITIZE=address
cmake --build "$ASAN_DIR" -j
ctest --test-dir "$ASAN_DIR" -L fault --output-on-failure

echo "== sanitize: concurrency + fault suites under UBSan =="
# halt_on_error turns the first undefined-behaviour report into a failing
# test instead of a line of stderr noise.
cmake -B "$UBSAN_DIR" -S . -DFIBERSIM_SANITIZE=undefined
cmake --build "$UBSAN_DIR" -j
UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
    ctest --test-dir "$UBSAN_DIR" -L sanitize --output-on-failure

echo "== ci: all green =="

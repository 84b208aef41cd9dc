"""Pure helpers of the fibersim benchmark: the percentile rule, failure
accounting and digest comparison. run.py applies them to the raw
measurements perfbench_workload prints; test_benchlib.py covers them."""

import math

# Percentiles the rule may report, highest first.
_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def _rank(n, p):
    # Rounded first so that 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def percentile(samples, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it. Failed samples enter as +inf."""
    if not samples:
        raise ValueError("percentile of no samples")
    return sorted(samples)[_rank(len(samples), p) - 1]


def beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n."""
    return n - _rank(n, p)


def tail_percentile(n):
    """The highest percentile of the ladder with MIN_BEYOND samples beyond it,
    or None when n is too small for any."""
    for p in _LADDER:
        if beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def latency(samples):
    """Latency of (microseconds, status) samples. A request that failed or
    was refused counts as missing every limit: its latency is +inf."""
    return [us if status == "OK" else math.inf for us, status in samples]


def summarize(values):
    """Median, the rule's tail percentile and the sample count."""
    n = len(values)
    tail = tail_percentile(n)
    return {
        "n": n,
        "p50": percentile(values, 50.0) if n else None,
        "tail_p": tail,
        "tail": percentile(values, tail) if tail is not None else None,
    }


def failed_requests(statuses):
    """Serve responses that are not OK: BUSY, FAILED, INTERNAL, DEADLINE,
    CIRCUIT_OPEN, SHUTDOWN, BAD_REQUEST, UNVERIFIED, MALFORMED, TRANSPORT."""
    return sum(1 for s in statuses if s != "OK")


def digest_mismatches(observed, committed):
    """Names whose digest differs from the committed one (or has none),
    mapped to the operations that produced them."""
    return {
        name: entry["ops"]
        for name, entry in observed.items()
        if committed.get(name) != entry["digest"]
    }


def failed_ops(raw, committed):
    """Failed operations of one run: failures the workload counted itself,
    serve responses that are not OK, and operations whose output digest
    differs from the committed one. Never more than attempted."""
    failed = sum(raw["failures"].values())
    for phase in ("cold", "warm"):
        failed += failed_requests(s[1] for s in raw["serve"][phase])
    failed += sum(digest_mismatches(raw["digests"], committed).values())
    return min(failed, raw["attempted"])


"""Tests of the benchmark's own rules: the percentile rule, digest
comparison and failed_frac accounting.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import unittest

import benchlib


def raw_run(attempted, failures=None, digests=None, cold=(), warm=()):
    return {
        "attempted": attempted,
        "failures": failures or {},
        "digests": digests or {},
        "serve": {"cold": list(cold), "warm": list(warm)},
    }


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(1, 101))  # 1..100
        self.assertEqual(benchlib.percentile(samples, 50.0), 50)
        self.assertEqual(benchlib.percentile(samples, 99.0), 99)
        self.assertEqual(benchlib.percentile([7.0], 99.0), 7.0)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertIsNone(benchlib.tail_percentile(10))
        self.assertEqual(benchlib.tail_percentile(20), 50.0)
        self.assertEqual(benchlib.tail_percentile(40), 75.0)
        self.assertEqual(benchlib.tail_percentile(999), 95.0)
        self.assertEqual(benchlib.tail_percentile(1000), 99.0)
        self.assertEqual(benchlib.beyond(1000, 99.0), 10)
        self.assertEqual(benchlib.tail_percentile(10000), 99.9)

    def test_summary_states_count(self):
        summary = benchlib.summarize([float(i) for i in range(1200)])
        self.assertEqual(summary["n"], 1200)
        self.assertEqual(summary["tail_p"], 99.0)
        self.assertEqual(summary["tail"], 1187.0)

    def test_failed_request_misses_every_limit(self):
        samples = [(100.0, "OK")] * 989 + [(5.0, "BUSY")] * 11
        values = benchlib.latency(samples)
        self.assertEqual(benchlib.percentile(values, 50.0), 100.0)
        self.assertTrue(math.isinf(benchlib.percentile(values, 99.0)))


class DigestComparison(unittest.TestCase):
    def test_equal_digests_pass(self):
        observed = {"report/T1": {"digest": "ab", "ops": 3}}
        committed = {"report/T1": "ab"}
        self.assertEqual(benchlib.digest_mismatches(observed, committed), {})

    def test_changed_or_missing_digest_fails_its_operations(self):
        observed = {"report/T1": {"digest": "ab", "ops": 3},
                    "report/T2": {"digest": "cd", "ops": 2}}
        committed = {"report/T1": "xx"}
        self.assertEqual(benchlib.digest_mismatches(observed, committed),
                         {"report/T1": 3, "report/T2": 2})


class FailureAccounting(unittest.TestCase):
    def test_clean_run(self):
        raw = raw_run(4, cold=[(1.0, "OK", 1), (1.0, "OK", 0)],
                      warm=[(1.0, "OK", 1), (1.0, "OK", 0)])
        self.assertEqual(benchlib.failed_ops(raw, {}), 0)

    def test_busy_counts_as_failure(self):
        raw = raw_run(3, cold=[(1.0, "OK", 1), (1.0, "BUSY", 0)],
                      warm=[(1.0, "OK", 1)])
        self.assertEqual(benchlib.failed_ops(raw, {}), 1)

    def test_every_typed_error_and_transport_counts(self):
        statuses = ["BUSY", "FAILED", "INTERNAL", "DEADLINE", "CIRCUIT_OPEN",
                    "TRANSPORT", "UNVERIFIED", "OK"]
        self.assertEqual(benchlib.failed_requests(statuses), 7)

    def test_workload_failures_and_digest_mismatches_add_up(self):
        raw = raw_run(10, failures={"report_threw": 1, "unverified": 2},
                      digests={"report/T2": {"digest": "00", "ops": 3}})
        self.assertEqual(benchlib.failed_ops(raw, {"report/T2": "ff"}), 6)

    def test_never_more_than_attempted(self):
        raw = raw_run(2, failures={"report_threw": 2},
                      digests={"report/T2": {"digest": "00", "ops": 2}})
        self.assertEqual(benchlib.failed_ops(raw, {}), 2)


if __name__ == "__main__":
    unittest.main()

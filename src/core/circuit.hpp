// fibersim::core — per-key circuit breakers for the serve daemon.
//
// A poisoned config (a run that always deadlocks, a fault plan that fails
// every native run) would otherwise grind the worker pool: each request
// burns a worker for the full failure latency before answering FAILED. The breaker tracks classed failures per key — the serve layer keys
// on (verb, app, dataset, ranks x threads) — over a sliding window of the
// last `window` outcomes and trips open after `failure_threshold`
// consecutive-window failures. While open, requests are rejected immediately
// with a typed CIRCUIT_OPEN (plus a retry-after hint) without touching the
// pool. After `open_ms` the breaker half-opens: exactly one probe request is
// admitted through; its outcome closes the circuit (success) or re-opens it
// (failure), and everything else keeps getting CIRCUIT_OPEN until the probe
// resolves.
//
// Only *classed execution failures* count (FAILED/INTERNAL — what
// fault::classify sees); BAD_REQUEST, BUSY, SHUTDOWN and DEADLINE do not,
// since they say nothing about whether the config itself is poisoned.
//
// All entry points take an explicit time_point so unit tests can drive the
// open→half-open→closed lifecycle deterministically without sleeping.
// Thread-safe; one mutex over a small per-key map (breaker decisions are
// off the hot path by definition — they exist to *avoid* work).
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>

namespace fibersim::core {

struct CircuitOptions {
  /// Failures within the sliding window that trip the breaker.
  int failure_threshold = 5;
  /// Sliding window length in outcomes (oldest evicted first).
  int window = 16;
  /// How long an open circuit stays open before admitting one probe.
  std::int64_t open_ms = 2000;

  void validate() const;
};

/// Outcome of asking the breaker whether a request for `key` may run.
struct CircuitDecision {
  bool admit = true;
  /// Set when this admission is the half-open probe; the caller MUST report
  /// the probe's outcome (record_success/record_failure) or the circuit
  /// stays half-open with no probe in flight until `open_ms` re-elapses.
  bool probe = false;
  /// When rejected: suggested client wait before retrying, in ms.
  std::int64_t retry_after_ms = 0;
};

struct CircuitStats {
  std::uint64_t trips = 0;       ///< closed/half-open -> open transitions
  std::uint64_t half_opens = 0;  ///< probe admissions
  std::uint64_t rejected = 0;    ///< fast CIRCUIT_OPEN rejections
  std::uint64_t open_now = 0;    ///< keys currently open or half-open
};

class CircuitBreaker {
 public:
  using Clock = std::chrono::steady_clock;

  explicit CircuitBreaker(CircuitOptions options = {});

  /// May a request for `key` run now?
  CircuitDecision admit(const std::string& key, Clock::time_point now);

  /// Report the outcome of an admitted request. `probe` must echo the
  /// decision's probe flag.
  void record_success(const std::string& key, bool probe,
                      Clock::time_point now);
  void record_failure(const std::string& key, bool probe,
                      Clock::time_point now);

  /// Is `key` currently refusing work (open, or half-open with the probe
  /// slot taken)?
  bool is_open(const std::string& key, Clock::time_point now);

  CircuitStats stats() const;

 private:
  enum class State { kClosed, kOpen, kHalfOpen };

  struct Entry {
    State state = State::kClosed;
    std::deque<bool> window;  // true = failure
    int failures = 0;
    Clock::time_point opened_at{};
    bool probe_in_flight = false;
  };

  void push_outcome(Entry& e, bool failure);
  void trip(Entry& e, Clock::time_point now);

  CircuitOptions options_;
  mutable std::mutex mutex_;
  std::unordered_map<std::string, Entry> entries_;
  std::uint64_t trips_ = 0;
  std::uint64_t half_opens_ = 0;
  std::uint64_t rejected_ = 0;
};

}  // namespace fibersim::core

// fibersim::fault — seeded, deterministic fault injection for the runtime.
//
// A Plan (parsed from a `--fault-plan` spec or FIBERSIM_FAULT_PLAN) describes
// which faults to inject and at what rates. Every decision is a pure function
// of (plan seed, native-run salt, site identity) — never of wall-clock time,
// thread scheduling or allocation addresses — so the same seed reproduces the
// exact same failure trace whether a sweep runs with 1 worker or 16, and a
// retried native run (higher attempt number) draws a fresh, independent
// fault pattern.
//
// Injection sites (hooks cost one pointer/atomic check when no plan is
// active):
//   * mp     — message drop/delay/duplication on user point-to-point
//              sends (collectives send no messages) and rank death at
//              communication ops, each send, receive or collective one op
//              (a receive whose message was dropped stalls its job, which
//              Job reports as a deadlock);
//   * rt     — worker throw at parallel-region entry;
//   * core   — native-run and prediction failures inside the Runner.
//
// The `transient` knob bounds faults to the first N attempts of any given
// native run / sweep task: with retries > N the sweep provably converges to
// the fault-free output (the byte-identity contract tests rely on).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace fibersim::fault {

// ----- plan ---------------------------------------------------------------

/// Parsed fault plan. All probabilities are per-site in [0, 1].
struct Plan {
  std::uint64_t seed = 1;
  /// Faults fire only while attempt < transient; 0 = every attempt (a
  /// permanent fault that retries cannot outlast).
  int transient = 0;

  // mp layer.
  double mp_drop = 0.0;        ///< P(message silently dropped) per send
  double mp_delay = 0.0;       ///< P(send delayed by mp_delay_ms)
  double mp_dup = 0.0;         ///< P(message delivered twice)
  double mp_rank_death = 0.0;  ///< P(rank throws) per communication op
  double mp_delay_ms = 1.0;    ///< duration of one injected delay

  // rt layer.
  double rt_throw = 0.0;  ///< P(worker throws) per (parallel region, thread)

  // core layer (count-based, inherently transient under retries).
  int run_fail = 0;      ///< first N native-run attempts per key fail
  int predict_fail = 0;  ///< first N prediction attempts per task fail

  /// Parse "key=value[;key=value...]" (',' also accepted as separator).
  /// Keys: seed, transient, mp.drop, mp.delay, mp.dup, mp.rankdeath,
  /// mp.delay_ms, rt.throw, run.fail, predict.fail.
  /// Throws fibersim::Error on unknown keys or out-of-range values.
  static Plan parse(const std::string& spec);

  /// Canonical spec string; parse(spec()) round-trips exactly.
  std::string spec() const;

  bool any_mp() const {
    return mp_drop > 0.0 || mp_delay > 0.0 || mp_dup > 0.0 ||
           mp_rank_death > 0.0;
  }
  void validate() const;
};

// ----- global activation --------------------------------------------------

namespace detail {
extern std::atomic<bool> g_enabled;
}

/// True iff a plan is installed (one relaxed load; the only cost fault
/// hooks pay on the Runner's hot path when injection is off).
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Install a process-wide plan (clears the fault log). Used by the CLI and
/// by ScopedPlan in tests.
void install(const Plan& plan);
/// Remove the active plan (the log is kept for inspection).
void clear();
/// The active plan, or null.
std::shared_ptr<const Plan> active();
/// Parse FIBERSIM_FAULT_PLAN and install it; returns true if one was set.
bool install_from_env();

/// RAII plan installation for tests.
struct ScopedPlan {
  explicit ScopedPlan(const Plan& plan) { install(plan); }
  ~ScopedPlan() { clear(); }
  ScopedPlan(const ScopedPlan&) = delete;
  ScopedPlan& operator=(const ScopedPlan&) = delete;
};

// ----- error classification ----------------------------------------------

/// Marker prefixes stamped onto injected/derived errors so unwind paths can
/// classify a failure without fragile substring guesswork elsewhere.
inline constexpr const char* kInjectedMarker = "fault: injected";
inline constexpr const char* kTimeoutMarker = "fault: recv timeout";
inline constexpr const char* kPoisonMarker = "mp job aborted";

/// Failure classes ordered by reporting priority: when several ranks of a
/// job die, the highest-priority (lowest enum) class wins, which keeps the
/// propagated error deterministic whichever ranks unwound as poisoned.
enum class ErrorClass { kInjected = 0, kTimeout, kOther, kPoison };

ErrorClass classify(const std::string& what);
const char* error_class_name(ErrorClass c);

// ----- per-native-run session --------------------------------------------

enum class SendAction { kDeliver, kDrop, kDuplicate, kDelay };

/// Fault context for one native-run attempt (or one fuzz job). Decisions mix
/// (plan seed, salt = f(execution key, attempt), site identity) through
/// SplitMix64, so they are reproducible across hosts and thread counts and
/// independent between attempts. Copyable POD-ish view; the plan is shared.
class Session {
 public:
  Session() = default;
  Session(std::shared_ptr<const Plan> plan, std::uint64_t key_hash,
          int attempt);

  /// True iff a plan is present and this attempt is within the fault window.
  bool armed() const { return armed_; }
  int attempt() const { return attempt_; }
  std::uint64_t salt() const { return salt_; }
  const Plan* plan() const { return plan_.get(); }

  /// Send-side decision for message `seq` (per (src, dst) program order).
  /// Records fired faults in the global Log.
  SendAction on_send(int src, int dst, int tag, std::uint64_t seq) const;
  /// Rank-death decision at the rank's communication op `op`.
  bool should_kill_rank(int rank, std::uint64_t op) const;
  /// Worker-throw decision at parallel region `region` of team stream
  /// `stream` (the rank owning the team), thread `tid`.
  bool should_throw_worker(std::uint64_t stream, int tid,
                           std::uint64_t region) const;
  /// Count-based native-run failure (attempt < plan.run_fail).
  bool should_fail_native_run() const;

  double delay_s() const;

 private:
  double draw(std::uint64_t kind, std::uint64_t a, std::uint64_t b,
              std::uint64_t c) const;

  std::shared_ptr<const Plan> plan_;
  std::uint64_t salt_ = 0;
  int attempt_ = 0;
  bool armed_ = false;
};

// ----- fault log ----------------------------------------------------------

/// Global record of every fired fault. Entries carry their full site
/// identity, so lines() — sorted — is identical for identical plans across
/// any worker/job count (the determinism tests diff it directly).
class Log {
 public:
  static void record(std::string line);
  /// Sorted copy of all recorded lines.
  static std::vector<std::string> lines();
  static std::size_t count();
  static void reset();
};

}  // namespace fibersim::fault

// Job — runs an SPMD function on N ranks as fibers on the calling thread.
//
// This is the "mpiexec" of the in-process runtime. Every rank is a fiber
// (see FiberSet): it runs until a receive finds no matching message, then
// the next runnable rank in rank order resumes, so the schedule — and every
// result and error — is a pure function of the program. A job uses one host
// thread whatever its size; host parallelism comes from running several jobs
// at once (SweepPool workers, serve workers).
//
// When no rank can run and the job has not finished, it is stuck: if a rank
// threw, every parked rank unwinds with a poison error and one exception is
// rethrown to the caller, chosen by fault::ErrorClass priority, then by
// lowest rank; if none threw, the job is deadlocked and throws a
// fault::kTimeoutMarker error naming every blocked (rank, source, tag).
// A rank must not communicate from inside a catch handler: the C++ runtime
// keeps one caught-exception stack per host thread, which the job's fibers
// share.
//
// A fault::Session may be attached to a run: it drives message
// drop/delay/duplication on every send path (user p2p and collective
// internals alike) and rank death at communication ops. With no session
// attached the only added cost is one null check per operation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "mp/comm.hpp"

namespace fibersim::fault {
class Session;
}

namespace fibersim::mp {

class RankSymmetry;

namespace detail {
struct JobState {
  std::vector<Mailbox> mailboxes;
  int ranks = 0;
  /// Fault context for this run, or null. Owned by the caller of Job::run.
  const fault::Session* faults = nullptr;
  /// Per-(src, dst) send sequence numbers (src*ranks + dst), allocated only
  /// when faults are attached. Each slot has a single writer (the sending
  /// rank), so fault decisions are in program order per pair.
  std::vector<std::uint64_t> send_seq;
  /// Per-rank communication-op counters (single writer: the rank itself).
  std::vector<std::uint64_t> op_seq;
  /// Rank-symmetry partition when this is a collapsed run (one physical
  /// slot per equivalence class), or null for a full run. Owned by the
  /// caller of Job::run_collapsed.
  const RankSymmetry* collapse = nullptr;
};
}  // namespace detail

class Job {
 public:
  using RankFn = std::function<void(Comm&)>;

  /// Run `fn(comm)` on `ranks` ranks until every one has returned.
  static void run(int ranks, const RankFn& fn);
  /// As run(), with fault injection driven by `faults` (may be null).
  static void run(int ranks, const RankFn& fn, const fault::Session* faults);

  /// As run(), but returns each rank's communication log (indexed by rank).
  static std::vector<CommLog> run_logged(int ranks, const RankFn& fn);
  static std::vector<CommLog> run_logged(int ranks, const RankFn& fn,
                                         const fault::Session* faults);

  /// Collapsed run: executes one physical slot per symmetry class, each with
  /// the virtual identity (representative rank, full size) of its class.
  /// Returns one CommLog per class, indexed by class id. Fault injection is
  /// not supported under collapse (the runner falls back to a full run).
  static std::vector<CommLog> run_collapsed(const RankSymmetry& symmetry,
                                            const RankFn& fn);

  /// Usable bytes of each rank's fiber stack.
  static std::size_t stack_bytes();
  /// Deepest stack use (page granular) of any rank the calling host thread
  /// has run so far.
  static std::size_t stack_high_water();
};

}  // namespace fibersim::mp

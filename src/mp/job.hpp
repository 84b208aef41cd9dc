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
// fault::kTimeoutMarker error naming every blocked rank: its receive
// (source, tag) or the collective it waits in.
// A rank must not communicate from inside a catch handler: the C++ runtime
// keeps one caught-exception stack per host thread, which the job's fibers
// share.
//
// Collectives meet at one in-memory rendezvous in JobState: each rank
// records its operation, byte count and buffers, then parks; the last rank
// to arrive computes every rank's output and wakes the rest. Full and
// collapsed runs share it; only the fold differs (see Comm::collective).
//
// A fault::Session may be attached to a run: it drives message
// drop/delay/duplication on user point-to-point sends (collectives send no
// messages) and rank death at communication ops, each collective counting
// as one op. With no session attached the only added cost is one null
// check per operation.
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
class FiberSet;

/// One slot's part in the collective being gathered.
struct CollectiveEntry {
  CollectiveOp op = CollectiveOp::kSum;
  std::size_t bytes = 0;
  const void* in = nullptr;
  void* out = nullptr;  ///< the same buffer as `in` for the allreduces
  int rank = 0;         ///< the rank the app sees (virtual under collapse)
  /// This slot's call count of the collective's kind, from its CommLog.
  std::uint64_t call = 0;
  bool parked = false;
};

/// Where the slots of a job meet for each collective.
struct Rendezvous {
  std::vector<CollectiveEntry> entries;  ///< one per slot
  int arrived = 0;  ///< slots waiting in the open collective
  int opener = 0;   ///< the first of them, whose entry the rest must match
  /// Set when the job stalls: parked and later collectives throw.
  bool poisoned = false;
};

struct JobState {
  std::vector<Mailbox> mailboxes;
  int ranks = 0;
  FiberSet* fibers = nullptr;
  Rendezvous rendezvous;
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

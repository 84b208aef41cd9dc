// ThreadTeam — the OpenMP-like execution substrate.
//
// A team has a *logical* size T, the thread count the machine model is fed,
// and owns no host threads. `parallel` runs a region for tid = 0..T-1 in
// ascending order on the calling thread (the rank's own host thread);
// `parallel_for` distributes an index range with static / dynamic / guided
// scheduling like `omp for schedule(...)`, static partitions keyed by the
// logical tid. There is no in-region barrier: a team that runs its tids one
// after another cannot honour one. The trace records work estimates and
// fork-join counts, never host timing, so a run's bytes do not depend on how
// many host threads execute a team — only on T.
//
// Thread *placement* is a model concept (topo::Binding) consumed by the
// machine model, not by this class. A job's ranks share one host thread
// (mp::Job runs them as fibers); host parallelism comes from concurrent
// sweep slots (core::SweepPool) and serve workers.
#pragma once

#include <cstdint>
#include <functional>

namespace fibersim::fault {
class Session;
}

namespace fibersim::rt {

enum class Schedule { kStatic, kDynamic, kGuided };

const char* schedule_name(Schedule schedule);

class ThreadTeam {
 public:
  /// Body of a parallel_for chunk: [begin, end) and the executing thread id.
  using ChunkBody = std::function<void(std::int64_t, std::int64_t, int)>;

  explicit ThreadTeam(int size);

  ThreadTeam(const ThreadTeam&) = delete;
  ThreadTeam& operator=(const ThreadTeam&) = delete;

  int size() const { return size_; }

  /// Run `region(tid)` for every tid of the team, in ascending order on the
  /// caller's thread. Every tid runs even when an earlier one throws; the
  /// lowest tid's exception is rethrown afterwards. Re-entering parallel()
  /// (or parallel_for / parallel_reduce_sum) from inside a region of the
  /// same team throws fibersim::Error — OpenMP nesting is not modelled.
  void parallel(const std::function<void(int)>& region);

  /// Work-shared loop over [begin, end). `chunk` <= 0 picks a default
  /// (range/size for static, max(1, range/(size*8)) for dynamic/guided).
  void parallel_for(std::int64_t begin, std::int64_t end, Schedule schedule,
                    std::int64_t chunk, const ChunkBody& body);

  /// Convenience: static schedule, default chunking.
  void parallel_for(std::int64_t begin, std::int64_t end, const ChunkBody& body) {
    parallel_for(begin, end, Schedule::kStatic, 0, body);
  }

  /// Sum-reduction over [begin, end): each tid sums `term(i)` over its static
  /// block into a private slot; slots are combined in tid order afterwards.
  double parallel_reduce_sum(
      std::int64_t begin, std::int64_t end,
      const std::function<double(std::int64_t)>& term);

  /// Number of parallel regions executed so far (model input: fork-join
  /// count drives the predicted barrier overhead).
  std::uint64_t regions_executed() const { return regions_; }

  /// Attach a fault context: each tid of this team may throw at region entry
  /// per the plan, at site (stream, tid, region index) — `stream` is the
  /// team's owner identity (typically its rank), so decisions stay
  /// deterministic across concurrent teams. Null detaches. Must not be
  /// called while a region is running.
  void set_faults(const fault::Session* faults, std::uint64_t stream);

 private:
  /// Fault hook at region entry (one null check when no faults attached).
  void maybe_throw_worker(int tid);

  int size_;
  // Nested-parallel detection (see parallel()).
  bool in_parallel_ = false;
  std::uint64_t regions_ = 0;

  // Fault injection (null when inactive).
  const fault::Session* faults_ = nullptr;
  std::uint64_t fault_stream_ = 0;
};

}  // namespace fibersim::rt

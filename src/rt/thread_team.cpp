#include "rt/thread_team.hpp"

#include <algorithm>
#include <exception>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/string_util.hpp"
#include "fault/fault.hpp"

namespace fibersim::rt {

const char* schedule_name(Schedule schedule) {
  switch (schedule) {
    case Schedule::kStatic: return "static";
    case Schedule::kDynamic: return "dynamic";
    case Schedule::kGuided: return "guided";
  }
  return "?";
}

ThreadTeam::ThreadTeam(int size) : size_(size) {
  FS_REQUIRE(size >= 1, "team size must be >= 1");
  FS_REQUIRE(size <= 4096, "team size unreasonably large");
}

void ThreadTeam::set_faults(const fault::Session* faults,
                            std::uint64_t stream) {
  FS_REQUIRE(!in_parallel_, "cannot attach faults while a region is running");
  faults_ = faults;
  fault_stream_ = stream;
}

void ThreadTeam::maybe_throw_worker(int tid) {
  if (faults_ == nullptr) return;
  // regions_ was already bumped for the active region, so it identifies the
  // region uniquely (regions never overlap on one team — nested parallel
  // throws before dispatch).
  if (faults_->should_throw_worker(fault_stream_, tid, regions_)) {
    throw Error(strfmt("%s: worker %d throw in region %llu of stream %llu",
                       fault::kInjectedMarker, tid,
                       static_cast<unsigned long long>(regions_),
                       static_cast<unsigned long long>(fault_stream_)));
  }
}

void ThreadTeam::parallel(const std::function<void(int)>& region) {
  FS_REQUIRE(static_cast<bool>(region), "parallel region must be callable");
  if (in_parallel_) {
    // A region body re-entered parallel() on its own team; the nested
    // call's exception surfaces from the outer region's tid like any other.
    throw Error("nested parallel region on the same ThreadTeam");
  }
  in_parallel_ = true;
  struct Reset {
    bool& flag;
    ~Reset() { flag = false; }
  } reset{in_parallel_};

  ++regions_;
  // Every tid runs even after one throws, and the lowest tid's error wins —
  // the same rule as SweepPool::for_each, so a failing region reports the
  // same root cause on every run.
  std::exception_ptr first_error;
  for (int tid = 0; tid < size_; ++tid) {
    try {
      maybe_throw_worker(tid);
      region(tid);
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

void ThreadTeam::parallel_for(std::int64_t begin, std::int64_t end,
                              Schedule schedule, std::int64_t chunk,
                              const ChunkBody& body) {
  FS_REQUIRE(begin <= end, "parallel_for range is inverted");
  // end - begin must be representable, or every chunk computation below
  // would start from a wrapped (UB) range.
  FS_REQUIRE(begin >= 0 ||
                 end <= std::numeric_limits<std::int64_t>::max() + begin,
             "parallel_for range exceeds int64 width");
  const std::int64_t range = end - begin;
  if (range == 0) return;

  if (schedule == Schedule::kStatic) {
    // Contiguous blocks, remainder spread over the first threads — matches
    // omp schedule(static) without a chunk argument when chunk <= 0.
    if (chunk <= 0) {
      parallel([&](int tid) {
        const std::int64_t base = range / size_;
        const std::int64_t extra = range % size_;
        const std::int64_t my_begin =
            begin + tid * base + std::min<std::int64_t>(tid, extra);
        const std::int64_t my_size = base + (tid < extra ? 1 : 0);
        if (my_size > 0) body(my_begin, my_begin + my_size, tid);
      });
    } else {
      // Round-robin chunks of the given size, iterated by chunk *index*:
      // ci * chunk < range for every dispatched ci, so neither the block
      // start nor the stride advance can wrap std::int64_t the way the old
      // `begin + tid * chunk` / `c += chunk * size_` induction could on
      // ranges near the top of the type.
      const std::int64_t nchunks = range / chunk + (range % chunk != 0 ? 1 : 0);
      parallel([&, chunk, nchunks](int tid) {
        for (std::int64_t ci = tid; ci < nchunks;) {
          const std::int64_t lo = begin + ci * chunk;
          const std::int64_t hi = chunk > end - lo ? end : lo + chunk;
          body(lo, hi, tid);
          if (ci > nchunks - size_) break;  // ci += size_ would overshoot
          ci += size_;
        }
      });
    }
    return;
  }

  // Dynamic and guided claims are plain counters: tids run in order, so the
  // first tid claims every chunk, as a team whose other threads are late to
  // the loop would in OpenMP.
  const std::int64_t min_chunk =
      chunk > 0 ? chunk : std::max<std::int64_t>(1, range / (size_ * 8));
  if (schedule == Schedule::kDynamic) {
    // Claim chunk indices, not raw offsets: the shared counter tops out at
    // nchunks + one overshoot per tid, so it cannot wrap however large the
    // range is.
    const std::int64_t nchunks =
        range / min_chunk + (range % min_chunk != 0 ? 1 : 0);
    std::int64_t next_chunk = 0;
    parallel([&](int tid) {
      while (true) {
        const std::int64_t ci = next_chunk++;
        if (ci >= nchunks) break;
        const std::int64_t lo = begin + ci * min_chunk;
        const std::int64_t hi = min_chunk > end - lo ? end : lo + min_chunk;
        body(lo, hi, tid);
      }
    });
  } else {  // kGuided: shrinking chunks, floored at min_chunk.
    std::int64_t next = begin;
    parallel([&](int tid) {
      while (next < end) {
        const std::int64_t c_begin = next;
        const std::int64_t size = std::max(
            min_chunk, (end - c_begin) / (2 * static_cast<std::int64_t>(size_)));
        next = size > end - c_begin ? end : c_begin + size;
        body(c_begin, next, tid);
      }
    });
  }
}

double ThreadTeam::parallel_reduce_sum(
    std::int64_t begin, std::int64_t end,
    const std::function<double(std::int64_t)>& term) {
  FS_REQUIRE(begin <= end, "parallel_reduce_sum range is inverted");
  std::vector<double> slots(static_cast<std::size_t>(size_), 0.0);
  parallel_for(begin, end, Schedule::kStatic, 0,
               [&](std::int64_t lo, std::int64_t hi, int tid) {
                 double acc = 0.0;
                 for (std::int64_t i = lo; i < hi; ++i) acc += term(i);
                 slots[static_cast<std::size_t>(tid)] += acc;
               });
  double total = 0.0;
  for (const double slot : slots) total += slot;
  return total;
}

}  // namespace fibersim::rt

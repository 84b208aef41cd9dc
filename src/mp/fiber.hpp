// FiberSet — the cooperative scheduler that runs a job's ranks.
//
// Every slot of a Job runs as a stackful fiber (glibc ucontext) on the host
// thread that called Job::run. A fiber runs until it parks (Mailbox::pop
// found no match); the next runnable fiber in slot order after it then
// resumes. wake() makes a parked fiber runnable again. One FiberSet lives on
// one host thread, so nothing here needs a lock or an atomic, and the
// schedule is a pure function of the program.
//
// When no fiber is runnable but some have not finished, the job can make no
// progress: the stall handler passed to run() must wake at least one fiber
// (Job uses it to unwind the parked ranks and report the deadlock).
//
// Stacks are mmap'd with a PROT_NONE guard page below them and pooled per
// host thread across jobs. Under ASan and TSan every switch is annotated so
// the sanitizers follow the stack changes. Internal to mp.
#pragma once

#include <ucontext.h>

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <vector>

namespace fibersim::mp::detail {

/// One mmap'd fiber stack: a guard page at `mapping`, then the stack.
struct FiberStack {
  char* mapping = nullptr;
  std::size_t bytes = 0;  ///< usable bytes above the guard page
};

/// Usable bytes of every fiber stack.
std::size_t fiber_stack_bytes();
/// Deepest use (page granular) of any pooled fiber stack of the calling
/// host thread, over every job it has run.
std::size_t fiber_stack_high_water();

class FiberSet {
 public:
  /// `count` fibers, each with a stack from this thread's pool.
  explicit FiberSet(int count);
  ~FiberSet();
  FiberSet(const FiberSet&) = delete;
  FiberSet& operator=(const FiberSet&) = delete;

  /// Run entry(i) on fiber i for every i, starting with fiber 0, and return
  /// once every entry has returned. `on_stall` runs when no fiber is
  /// runnable and some have not finished; it must wake at least one.
  void run(const std::function<void(int)>& entry,
           const std::function<void()>& on_stall);

  /// Suspend the running fiber until wake() names it.
  void park();
  /// Make fiber `fiber` runnable again; a no-op once it has finished.
  void wake(int fiber);

 private:
  /// A switchable context: fibers 0..count-1, then the caller's at count.
  struct Context {
    ucontext_t uc{};
    FiberStack stack;
    const void* bottom = nullptr;  ///< stack bounds for ASan
    std::size_t size = 0;
    void* tsan = nullptr;        ///< TSan fiber handle
    void* fake_stack = nullptr;  ///< ASan fake-stack save slot
    bool finished = false;
  };

  static void trampoline(unsigned hi, unsigned lo);
  void fiber_main();
  /// Switch to the next runnable fiber, calling the stall handler if none
  /// is; returns when the current fiber is resumed (never, if `exiting`).
  void switch_away(bool exiting);
  void switch_to(int to, bool exiting);
  void set_ready(int i) { ready_[i >> 6] |= std::uint64_t{1} << (i & 63); }
  void clear_ready(int i) { ready_[i >> 6] &= ~(std::uint64_t{1} << (i & 63)); }
  /// First runnable fiber after `after` in cyclic slot order (`after`
  /// itself last), or -1.
  int next_ready(int after) const;
  int first_ready(int lo, int hi) const;

  int count_;
  std::vector<Context> contexts_;
  std::vector<std::uint64_t> ready_;  ///< runnable bitmap
  int current_ = 0;
  int finished_count_ = 0;
  bool main_bounds_known_ = false;
  const std::function<void(int)>* entry_ = nullptr;
  const std::function<void()>* on_stall_ = nullptr;
  std::exception_ptr escaped_;
};

}  // namespace fibersim::mp::detail

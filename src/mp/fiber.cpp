#include "mp/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <bit>

#include "common/error.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#define FIBERSIM_ASAN_FIBERS 1
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#define FIBERSIM_TSAN_FIBERS 1
#endif

namespace fibersim::mp::detail {

namespace {

// Sized from the miniapps' measured high-water mark, ASan builds included
// (tests/test_mp.cpp keeps every app at or under half of it).
constexpr std::size_t kStackBytes = std::size_t{256} << 10;
// Stacks a host thread keeps for its next job; a wider job maps the rest
// afresh and unmaps them when it ends.
constexpr std::size_t kPoolCap = 64;

std::size_t page_bytes() {
  static const std::size_t page =
      static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

FiberStack map_stack() {
  const std::size_t page = page_bytes();
  void* mapping = mmap(nullptr, kStackBytes + page, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                       -1, 0);
  if (mapping == MAP_FAILED) throw Error("mp: cannot map a fiber stack");
  FiberStack stack{static_cast<char*>(mapping), kStackBytes};
  // The guard page turns an overflow into a fault instead of silently
  // corrupting the neighbouring mapping. Huge pages would make the first
  // touch commit megabytes and blur the high-water mark.
  if (mprotect(stack.mapping, page, PROT_NONE) != 0) {
    munmap(stack.mapping, kStackBytes + page);
    throw Error("mp: cannot guard a fiber stack");
  }
  (void)madvise(stack.mapping + page, kStackBytes, MADV_NOHUGEPAGE);
  return stack;
}

char* stack_lo(const FiberStack& stack) { return stack.mapping + page_bytes(); }

/// Bytes from the top of `stack` down to its deepest resident page.
std::size_t touched_bytes(const FiberStack& stack) {
  const std::size_t page = page_bytes();
  const std::size_t pages = stack.bytes / page;
  std::vector<unsigned char> resident(pages);
  if (mincore(stack_lo(stack), stack.bytes, resident.data()) != 0) return 0;
  for (std::size_t p = 0; p < pages; ++p) {
    if ((resident[p] & 1u) != 0) return (pages - p) * page;
  }
  return 0;
}

/// The calling host thread's stacks, kept across jobs.
class StackPool {
 public:
  StackPool() = default;
  StackPool(const StackPool&) = delete;
  StackPool& operator=(const StackPool&) = delete;
  ~StackPool() {
    for (const FiberStack& stack : free_) unmap(stack);
  }

  FiberStack acquire() {
    if (free_.empty()) return map_stack();
    const FiberStack stack = free_.back();
    free_.pop_back();
    return stack;
  }

  void release(const FiberStack& stack) {
#if defined(FIBERSIM_ASAN_FIBERS)
    // Frames that never returned (a finished fiber switches away from its
    // entry) leave poisoned shadow behind; the next job starts clean.
    ASAN_UNPOISON_MEMORY_REGION(stack_lo(stack), stack.bytes);
#endif
    if (free_.size() < kPoolCap) {
      free_.push_back(stack);
      return;
    }
    retired_high_water_ = std::max(retired_high_water_, touched_bytes(stack));
    unmap(stack);
  }

  std::size_t high_water() const {
    std::size_t deepest = retired_high_water_;
    for (const FiberStack& stack : free_) {
      deepest = std::max(deepest, touched_bytes(stack));
    }
    return deepest;
  }

 private:
  static void unmap(const FiberStack& stack) {
    munmap(stack.mapping, stack.bytes + page_bytes());
  }

  std::vector<FiberStack> free_;
  std::size_t retired_high_water_ = 0;
};

thread_local StackPool t_stacks;

}  // namespace

std::size_t fiber_stack_bytes() { return kStackBytes; }

std::size_t fiber_stack_high_water() { return t_stacks.high_water(); }

FiberSet::FiberSet(int count)
    : count_(count),
      contexts_(static_cast<std::size_t>(count) + 1),
      ready_((static_cast<std::size_t>(count) + 63) / 64, 0) {
  FS_REQUIRE(count >= 1, "a fiber set needs at least one fiber");
  try {
    for (int i = 0; i < count; ++i) {
      contexts_[static_cast<std::size_t>(i)].stack = t_stacks.acquire();
    }
  } catch (...) {
    for (const Context& c : contexts_) {
      if (c.stack.mapping != nullptr) t_stacks.release(c.stack);
    }
    throw;
  }
}

FiberSet::~FiberSet() {
  for (int i = 0; i < count_; ++i) {
    t_stacks.release(contexts_[static_cast<std::size_t>(i)].stack);
  }
}

void FiberSet::run(const std::function<void(int)>& entry,
                   const std::function<void()>& on_stall) {
  entry_ = &entry;
  on_stall_ = &on_stall;
  const auto self = reinterpret_cast<std::uintptr_t>(this);
  for (int i = 0; i < count_; ++i) {
    Context& c = contexts_[static_cast<std::size_t>(i)];
    const int rc = getcontext(&c.uc);
    FS_ASSERT(rc == 0, "getcontext failed");
    c.uc.uc_stack.ss_sp = stack_lo(c.stack);
    c.uc.uc_stack.ss_size = c.stack.bytes;
    c.uc.uc_link = nullptr;  // fibers leave by switching, never by return
    makecontext(&c.uc, reinterpret_cast<void (*)()>(&FiberSet::trampoline), 2,
                static_cast<unsigned>(self >> 32),
                static_cast<unsigned>(self & 0xffffffffu));
    c.bottom = stack_lo(c.stack);
    c.size = c.stack.bytes;
#if defined(FIBERSIM_TSAN_FIBERS)
    c.tsan = __tsan_create_fiber(0);
#endif
    set_ready(i);
  }
#if defined(FIBERSIM_TSAN_FIBERS)
  contexts_[static_cast<std::size_t>(count_)].tsan = __tsan_get_current_fiber();
#endif
  current_ = count_;
  switch_to(next_ready(count_), false);
  // Back on the caller's context: every fiber has finished.
#if defined(FIBERSIM_TSAN_FIBERS)
  for (int i = 0; i < count_; ++i) {
    __tsan_destroy_fiber(contexts_[static_cast<std::size_t>(i)].tsan);
  }
#endif
  if (escaped_) std::rethrow_exception(escaped_);
}

void FiberSet::trampoline(unsigned hi, unsigned lo) {
  auto* self = reinterpret_cast<FiberSet*>((std::uintptr_t{hi} << 32) | lo);
  self->fiber_main();
}

void FiberSet::fiber_main() {
#if defined(FIBERSIM_ASAN_FIBERS)
  // The first fiber to start was switched to from the caller's context,
  // which tells ASan's bookkeeping where the caller's stack is.
  const void* from_bottom = nullptr;
  std::size_t from_size = 0;
  __sanitizer_finish_switch_fiber(nullptr, &from_bottom, &from_size);
  if (!main_bounds_known_) {
    Context& caller = contexts_[static_cast<std::size_t>(count_)];
    caller.bottom = from_bottom;
    caller.size = from_size;
    main_bounds_known_ = true;
  }
#endif
  const int me = current_;
  try {
    (*entry_)(me);
  } catch (...) {
    if (!escaped_) escaped_ = std::current_exception();
  }
  contexts_[static_cast<std::size_t>(me)].finished = true;
  ++finished_count_;
  clear_ready(me);
  switch_away(true);
}

void FiberSet::park() {
  FS_ASSERT(current_ < count_, "park outside a fiber");
  clear_ready(current_);
  switch_away(false);
}

void FiberSet::wake(int fiber) {
  if (!contexts_[static_cast<std::size_t>(fiber)].finished) set_ready(fiber);
}

void FiberSet::switch_away(bool exiting) {
  int next = next_ready(current_);
  if (next < 0) {
    if (finished_count_ == count_) {
      switch_to(count_, exiting);
      return;
    }
    (*on_stall_)();
    next = next_ready(current_);
    FS_ASSERT(next >= 0, "stalled fiber set woke no fiber");
  }
  if (next != current_) switch_to(next, exiting);
}

void FiberSet::switch_to(int to, bool exiting) {
  Context& from = contexts_[static_cast<std::size_t>(current_)];
  Context& dest = contexts_[static_cast<std::size_t>(to)];
  current_ = to;
#if defined(FIBERSIM_ASAN_FIBERS)
  __sanitizer_start_switch_fiber(exiting ? nullptr : &from.fake_stack,
                                 dest.bottom, dest.size);
#else
  (void)exiting;
#endif
#if defined(FIBERSIM_TSAN_FIBERS)
  __tsan_switch_to_fiber(dest.tsan, 0);
#endif
  const int rc = swapcontext(&from.uc, &dest.uc);
  FS_ASSERT(rc == 0, "swapcontext failed");
#if defined(FIBERSIM_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(from.fake_stack, nullptr, nullptr);
#endif
}

int FiberSet::next_ready(int after) const {
  const int start = after + 1 >= count_ ? 0 : after + 1;
  const int found = first_ready(start, count_);
  return found >= 0 ? found : first_ready(0, start);
}

int FiberSet::first_ready(int lo, int hi) const {
  if (lo >= hi) return -1;
  for (int w = lo >> 6; w <= (hi - 1) >> 6; ++w) {
    std::uint64_t bits = ready_[static_cast<std::size_t>(w)];
    if (w == lo >> 6) bits &= ~std::uint64_t{0} << (lo & 63);
    if (bits != 0) {
      const int i = w * 64 + std::countr_zero(bits);
      return i < hi ? i : -1;
    }
  }
  return -1;
}

}  // namespace fibersim::mp::detail

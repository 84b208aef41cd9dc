#include "mp/job.hpp"

#include <algorithm>
#include <exception>

#include "common/error.hpp"
#include "common/string_util.hpp"
#include "fault/fault.hpp"
#include "mp/fiber.hpp"
#include "mp/symmetry.hpp"

namespace fibersim::mp {

namespace {

fault::ErrorClass classify_error(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return fault::classify(e.what());
  } catch (...) {
    return fault::ErrorClass::kOther;
  }
}

/// The deadlock report of a job whose ranks are all parked or finished.
std::string describe_deadlock(const detail::JobState& state) {
  std::string out = strfmt("%s: deadlock, no rank can run; blocked:",
                           fault::kTimeoutMarker);
  for (int r = 0; r < state.ranks; ++r) {
    int source = 0;
    int tag = 0;
    const detail::CollectiveEntry& entry =
        state.rendezvous.entries[static_cast<std::size_t>(r)];
    if (state.mailboxes[static_cast<std::size_t>(r)].parked_on(&source,
                                                               &tag)) {
      out += strfmt(" rank %d recv(src=%d, tag=%d);", r, source, tag);
    } else if (entry.parked) {
      out += strfmt(" rank %d %s(call %llu);", entry.rank,
                    collective_name(detail::kind_of(entry.op)),
                    static_cast<unsigned long long>(entry.call));
    }
  }
  out.pop_back();
  return out;
}

/// Runs `fn` on one fiber per slot of `state` under the Comm that
/// `make_comm(slot)` builds and returns the per-slot logs. When no slot can
/// run, every mailbox and the collective rendezvous are poisoned so the
/// parked slots unwind; with no slot failed before that, the job was
/// deadlocked and throws that instead.
template <typename MakeComm>
std::vector<CommLog> run_slots(detail::JobState& state, const Job::RankFn& fn,
                               const MakeComm& make_comm) {
  const auto slots = static_cast<std::size_t>(state.ranks);
  std::vector<CommLog> logs(slots);
  std::vector<std::exception_ptr> errors(slots);
  std::string deadlock;

  detail::FiberSet fibers(state.ranks);
  state.fibers = &fibers;
  state.rendezvous.entries.resize(slots);
  for (int s = 0; s < state.ranks; ++s) {
    state.mailboxes[static_cast<std::size_t>(s)].attach(&fibers, s);
  }
  fibers.run(
      [&](int slot) {
        Comm comm = make_comm(slot);
        try {
          fn(comm);
        } catch (...) {
          errors[static_cast<std::size_t>(slot)] = std::current_exception();
        }
        logs[static_cast<std::size_t>(slot)] = comm.log();
      },
      [&] {
        const bool failed = std::any_of(
            errors.begin(), errors.end(),
            [](const std::exception_ptr& e) { return e != nullptr; });
        if (!failed) deadlock = describe_deadlock(state);
        for (Mailbox& mbox : state.mailboxes) mbox.poison();
        state.rendezvous.poisoned = true;
        for (int s = 0; s < state.ranks; ++s) {
          if (state.rendezvous.entries[static_cast<std::size_t>(s)].parked) {
            fibers.wake(s);
          }
        }
      });

  if (!deadlock.empty()) throw Error(deadlock);
  // Deterministic pick: best (lowest) ErrorClass, ties to the lowest slot.
  std::exception_ptr best;
  fault::ErrorClass best_class = fault::ErrorClass::kPoison;
  for (const std::exception_ptr& error : errors) {
    if (!error) continue;
    const fault::ErrorClass c = classify_error(error);
    if (!best || c < best_class) {
      best = error;
      best_class = c;
    }
  }
  if (best) std::rethrow_exception(best);
  return logs;
}

void open_mailboxes(detail::JobState& state, int slots) {
  state.ranks = slots;
  state.mailboxes.resize(static_cast<std::size_t>(slots));
}

}  // namespace

std::vector<CommLog> Job::run_logged(int ranks, const RankFn& fn,
                                     const fault::Session* faults) {
  FS_REQUIRE(ranks >= 1, "job needs at least one rank");
  FS_REQUIRE(ranks <= 4096, "rank count unreasonably large");
  FS_REQUIRE(static_cast<bool>(fn), "rank function must be callable");

  detail::JobState state;
  open_mailboxes(state, ranks);
  if (faults != nullptr && faults->armed() && faults->plan()->any_mp()) {
    state.faults = faults;
    state.send_seq.assign(
        static_cast<std::size_t>(ranks) * static_cast<std::size_t>(ranks), 0);
    state.op_seq.assign(static_cast<std::size_t>(ranks), 0);
  }
  return run_slots(state, fn,
                   [&](int rank) { return Comm(state, rank, ranks); });
}

std::vector<CommLog> Job::run_collapsed(const RankSymmetry& symmetry,
                                        const RankFn& fn) {
  const int slots = symmetry.classes();
  FS_REQUIRE(slots >= 1, "collapsed job needs at least one class");
  FS_REQUIRE(slots <= 4096, "class count unreasonably large");
  FS_REQUIRE(static_cast<bool>(fn), "rank function must be callable");

  detail::JobState state;
  open_mailboxes(state, slots);
  state.collapse = &symmetry;
  // Each slot runs under its class representative's virtual identity; the
  // app observes rank()/size() of the full job.
  return run_slots(state, fn, [&](int slot) {
    return Comm(state, slot, slots, symmetry.representative(slot),
                symmetry.size());
  });
}

std::vector<CommLog> Job::run_logged(int ranks, const RankFn& fn) {
  return run_logged(ranks, fn, nullptr);
}

void Job::run(int ranks, const RankFn& fn) {
  (void)run_logged(ranks, fn, nullptr);
}

void Job::run(int ranks, const RankFn& fn, const fault::Session* faults) {
  (void)run_logged(ranks, fn, faults);
}

std::size_t Job::stack_bytes() { return detail::fiber_stack_bytes(); }

std::size_t Job::stack_high_water() { return detail::fiber_stack_high_water(); }

}  // namespace fibersim::mp

// Mailbox — the per-rank receive queue of the in-process message runtime.
//
// Senders deposit a message that owns a copy of its payload into the
// destination mailbox (buffered, non-blocking send — the MPI "eager"
// protocol); a receive with no matching (source, tag) message parks its
// rank's fiber until one arrives. Delivery moves the payload: its one
// allocation and copy happen at the send site. MPI ordering semantics hold:
// messages from the same source with the same tag are received in send
// order. Only the owning rank pops its mailbox, so a push that matches the
// owner's parked receive is what makes the owner runnable again.
//
// A job's ranks all run on one host thread (see FiberSet), so a mailbox
// takes no lock. poison() makes every receive that finds no match throw;
// Job poisons a stalled job's mailboxes so its parked ranks unwind.
//
// Matching is indexed: messages are stored in per-(source, tag) FIFO buckets
// keyed for O(log buckets) exact-match receives — the common case on the
// sweep hot path — with a sequence-number fallback for kAnySource / kAnyTag
// wildcards that preserves global arrival order exactly like a linear scan.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <utility>
#include <vector>

namespace fibersim::mp {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

namespace detail {
class FiberSet;
}

struct Message {
  int source = 0;
  int tag = 0;
  std::vector<std::byte> payload;
};

class Mailbox {
 public:
  /// Deposit a message (never blocks); wakes the owner if it is parked on a
  /// receive this message matches.
  void push(Message message);

  /// Return the oldest message matching (source, tag), parking the owner's
  /// fiber until one arrives. kAnySource / kAnyTag match anything. Throws
  /// fibersim::Error if no match is queued and the mailbox is poisoned, or
  /// if it belongs to no job (nothing could ever arrive).
  Message pop(int source, int tag);

  /// Non-blocking probe: true if a matching message is queued.
  bool probe(int source, int tag) const;

  /// Make every receive that finds no match throw, and wake the owner.
  void poison();

  /// Let pop() park on `fibers` as fiber `owner` (set by Job before any
  /// rank runs).
  void attach(detail::FiberSet* fibers, int owner);

  /// True while the owner is parked in pop(); `*source` and `*tag` name the
  /// receive it waits on.
  bool parked_on(int* source, int* tag) const;

  /// Queued message count (diagnostics/tests).
  std::size_t pending() const { return size_; }

 private:
  struct Sequenced {
    std::uint64_t seq = 0;
    Message message;
  };
  using BucketMap = std::map<std::pair<int, int>, std::deque<Sequenced>>;

  /// Bucket holding the oldest (lowest-seq) message matching (source, tag),
  /// or end(). Exact keys look up directly; wildcards scan bucket fronts —
  /// bounded by the number of distinct in-flight (source, tag) pairs, not by
  /// the number of queued messages.
  BucketMap::iterator find_bucket(int source, int tag);

  BucketMap buckets_;
  std::uint64_t next_seq_ = 0;
  std::size_t size_ = 0;
  bool poisoned_ = false;
  detail::FiberSet* fibers_ = nullptr;
  int owner_ = -1;
  bool parked_ = false;
  int wait_source_ = kAnySource;
  int wait_tag_ = kAnyTag;
};

}  // namespace fibersim::mp

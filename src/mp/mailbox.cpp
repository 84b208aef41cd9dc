#include "mp/mailbox.hpp"

#include <limits>

#include "common/error.hpp"
#include "mp/fiber.hpp"

namespace fibersim::mp {

namespace {
bool matches(int want_source, int want_tag, const Message& m) {
  return (want_source == kAnySource || want_source == m.source) &&
         (want_tag == kAnyTag || want_tag == m.tag);
}
}  // namespace

void Mailbox::push(Message message) {
  const bool wakes = parked_ && matches(wait_source_, wait_tag_, message);
  const std::pair<int, int> key{message.source, message.tag};
  buckets_[key].push_back(Sequenced{next_seq_++, std::move(message)});
  ++size_;
  if (wakes) fibers_->wake(owner_);
}

Mailbox::BucketMap::iterator Mailbox::find_bucket(int source, int tag) {
  if (source != kAnySource && tag != kAnyTag) {
    return buckets_.find({source, tag});
  }

  auto begin = buckets_.begin();
  auto end = buckets_.end();
  if (source != kAnySource) {
    // All tags of one source are contiguous under the pair ordering.
    begin = buckets_.lower_bound({source, std::numeric_limits<int>::min()});
    end = buckets_.lower_bound({source + 1, std::numeric_limits<int>::min()});
  }
  auto best = buckets_.end();
  for (auto it = begin; it != end; ++it) {
    if (tag != kAnyTag && it->first.second != tag) continue;
    // Bucket fronts are the oldest message per (source, tag); the lowest
    // sequence number among them is the globally oldest match, which keeps
    // wildcard receives in arrival order.
    if (best == buckets_.end() ||
        it->second.front().seq < best->second.front().seq) {
      best = it;
    }
  }
  return best;
}

Message Mailbox::pop(int source, int tag) {
  while (true) {
    const auto it = find_bucket(source, tag);
    if (it != buckets_.end()) {
      Message out = std::move(it->second.front().message);
      it->second.pop_front();
      if (it->second.empty()) buckets_.erase(it);
      --size_;
      return out;
    }
    if (poisoned_) throw Error("mp job aborted: mailbox poisoned");
    FS_REQUIRE(fibers_ != nullptr,
               "mp: receive with no match on a mailbox outside a job");
    parked_ = true;
    wait_source_ = source;
    wait_tag_ = tag;
    fibers_->park();
    parked_ = false;
  }
}

bool Mailbox::probe(int source, int tag) const {
  Mailbox* self = const_cast<Mailbox*>(this);
  return self->find_bucket(source, tag) != self->buckets_.end();
}

void Mailbox::poison() {
  poisoned_ = true;
  if (parked_) fibers_->wake(owner_);
}

void Mailbox::attach(detail::FiberSet* fibers, int owner) {
  fibers_ = fibers;
  owner_ = owner;
}

bool Mailbox::parked_on(int* source, int* tag) const {
  if (!parked_) return false;
  *source = wait_source_;
  *tag = wait_tag_;
  return true;
}

}  // namespace fibersim::mp

#include "mp/comm.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "common/string_util.hpp"
#include "fault/fault.hpp"
#include "mp/fiber.hpp"
#include "mp/job.hpp"
#include "mp/symmetry.hpp"

namespace fibersim::mp {

namespace {
/// The one push point of every send, so an attached fault plan sees every
/// message exactly once, numbered in per-(src, dst) program order.
void deliver(detail::JobState& state, int dst, Message m) {
  Mailbox& mbox = state.mailboxes[static_cast<std::size_t>(dst)];
  if (state.faults == nullptr) {
    mbox.push(std::move(m));
    return;
  }
  const std::size_t pair = static_cast<std::size_t>(m.source) *
                               static_cast<std::size_t>(state.ranks) +
                           static_cast<std::size_t>(dst);
  const std::uint64_t seq = state.send_seq[pair]++;
  switch (state.faults->on_send(m.source, dst, m.tag, seq)) {
    case fault::SendAction::kDrop:
      return;
    case fault::SendAction::kDuplicate:
      mbox.push(m);
      mbox.push(std::move(m));
      return;
    case fault::SendAction::kDelay:
      std::this_thread::sleep_for(
          std::chrono::duration<double>(state.faults->delay_s()));
      mbox.push(std::move(m));
      return;
    case fault::SendAction::kDeliver:
      mbox.push(std::move(m));
      return;
  }
}

/// Rank-death hook: counts this rank's communication ops (single writer, so
/// the count is scheduling-independent) and throws an injected death if the
/// plan selects this (rank, op) site.
void fault_op(detail::JobState& state, int rank) {
  if (state.faults == nullptr) return;
  const std::uint64_t op = state.op_seq[static_cast<std::size_t>(rank)]++;
  if (state.faults->should_kill_rank(rank, op)) {
    throw Error(strfmt("%s: rank %d death at communication op %llu",
                       fault::kInjectedMarker, rank,
                       static_cast<unsigned long long>(op)));
  }
}

void copy_payload(const std::vector<std::byte>& payload, void* data,
                  std::size_t bytes) {
  FS_REQUIRE(payload.size() == bytes,
             "recv size does not match the sent payload");
  if (bytes > 0) std::memcpy(data, payload.data(), bytes);
}

const char* op_name(detail::CollectiveOp op) {
  switch (op) {
    case detail::CollectiveOp::kSum: return "allreduce_sum";
    case detail::CollectiveOp::kMax: return "allreduce_max";
    case detail::CollectiveOp::kAllgather: return "allgather";
  }
  return "?";
}

/// Every slot's output of the collective all slots have entered. The
/// allreduces repeat the arithmetic of a binomial-tree reduce (full runs)
/// and of a weighted fold over the classes (collapsed runs) operand for
/// operand, so every output bit is pinned by those two orders.
void fold(const detail::JobState& state) {
  const std::vector<detail::CollectiveEntry>& entries =
      state.rendezvous.entries;
  const std::size_t bytes = entries[0].bytes;
  if (bytes == 0) return;
  const RankSymmetry* sym = state.collapse;
  const int slots = state.ranks;

  if (entries[0].op == detail::CollectiveOp::kAllgather) {
    // Virtual rank v's block is its class representative's; a full run is
    // the case class_of(v) == v.
    const int vsize = sym != nullptr ? sym->size() : slots;
    for (const detail::CollectiveEntry& dst : entries) {
      auto* out = static_cast<std::byte*>(dst.out);
      for (int v = 0; v < vsize; ++v) {
        const int c = sym != nullptr ? sym->class_of(v) : v;
        std::memcpy(out + static_cast<std::size_t>(v) * bytes,
                    entries[static_cast<std::size_t>(c)].in, bytes);
      }
    }
    return;
  }

  // The allreduces fold in place into the slots' own buffers.
  const bool max = entries[0].op == detail::CollectiveOp::kMax;
  const std::size_t n = bytes / sizeof(double);
  const auto acc = [&](int slot) {
    return static_cast<double*>(entries[static_cast<std::size_t>(slot)].out);
  };
  double* result = acc(0);
  if (sym != nullptr) {
    // Collapsed: the classes in ascending order, each weighted by its
    // population, w0*v0 + w1*v1 + ...; max ignores the weights.
    if (!max) {
      const double w0 = static_cast<double>(sym->weight(0));
      for (std::size_t i = 0; i < n; ++i) result[i] *= w0;
    }
    for (int c = 1; c < slots; ++c) {
      const double* v = acc(c);
      if (max) {
        for (std::size_t i = 0; i < n; ++i) {
          result[i] = std::max(result[i], v[i]);
        }
      } else {
        const double w = static_cast<double>(sym->weight(c));
        for (std::size_t i = 0; i < n; ++i) result[i] += w * v[i];
      }
    }
  } else {
    // Full: a binomial reduce to rank 0, acc[r] = op(acc[r], acc[r + mask])
    // for rising mask.
    for (int mask = 1; mask < slots; mask <<= 1) {
      for (int r = 0; r + mask < slots; r += 2 * mask) {
        double* a = acc(r);
        const double* b = acc(r + mask);
        if (max) {
          for (std::size_t i = 0; i < n; ++i) a[i] = std::max(a[i], b[i]);
        } else {
          for (std::size_t i = 0; i < n; ++i) a[i] = a[i] + b[i];
        }
      }
    }
  }
  for (int s = 1; s < slots; ++s) std::memcpy(acc(s), result, bytes);
}
}  // namespace

Mailbox& Comm::mailbox_of(int r) const {
  FS_REQUIRE(r >= 0 && r < size_, "peer rank out of range");
  return state_->mailboxes[static_cast<std::size_t>(r)];
}

void Comm::send_bytes(int dst, int tag, const void* data, std::size_t bytes) {
  FS_REQUIRE(tag >= 0, "tags must be non-negative");
  FS_REQUIRE(bytes == 0 || data != nullptr, "null payload with nonzero size");
  FS_REQUIRE(dst >= 0 && dst < vsize_, "peer rank out of range");
  fault_op(*state_, rank_);
  log_.record_send(dst, bytes);
  const auto* bytes_in = static_cast<const std::byte*>(data);
  if (state_->collapse != nullptr) {
    // The true destination only exists virtually; queue the payload for the
    // self-tiling loopback instead. Symmetric exchanges keep every queue at
    // most one deep per outstanding message; the cap only guards against a
    // boundary rank's never-received direction growing without bound.
    std::deque<std::vector<std::byte>>& q = loopback_[tag];
    q.emplace_back(bytes_in, bytes_in + bytes);
    if (q.size() > 8) q.pop_front();
    return;
  }
  deliver(*state_, dst,
          Message{rank_, tag,
                  std::vector<std::byte>(bytes_in, bytes_in + bytes)});
}

void Comm::recv_bytes(int src, int tag, void* data, std::size_t bytes) {
  FS_REQUIRE(src == kAnySource || (src >= 0 && src < vsize_),
             "source rank out of range");
  fault_op(*state_, rank_);
  if (state_->collapse != nullptr) {
    // Self-tiling: the structurally matching message is the one this rank
    // itself sent under the same tag (its partners are copies of itself).
    // No queued payload means the virtual partner is a non-periodic
    // boundary ghost: zero-fill, a Dirichlet truncation.
    const auto it = loopback_.find(tag);
    if (it == loopback_.end() || it->second.empty()) {
      std::memset(data, 0, bytes);
      return;
    }
    const std::vector<std::byte> payload = std::move(it->second.front());
    it->second.pop_front();
    copy_payload(payload, data, bytes);
    return;
  }
  copy_payload(mailbox_of(rank_).pop(src, tag).payload, data, bytes);
}

void Comm::sendrecv_bytes(int dst, int send_tag, const void* send_data,
                          std::size_t send_size, int src, int recv_tag,
                          void* recv_data, std::size_t recv_size) {
  send_bytes(dst, send_tag, send_data, send_size);
  recv_bytes(src, recv_tag, recv_data, recv_size);
}

bool Comm::probe(int src, int tag) const {
  if (state_->collapse != nullptr) {
    const auto it = loopback_.find(tag);
    return it != loopback_.end() && !it->second.empty();
  }
  return mailbox_of(rank_).probe(src, tag);
}

void Comm::collective(detail::CollectiveOp op, const void* in, void* out,
                      std::size_t bytes) {
  FS_REQUIRE(bytes == 0 || (in != nullptr && out != nullptr),
             "null collective buffer with nonzero size");
  fault_op(*state_, rank_);
  const CollectiveKind kind = detail::kind_of(op);
  log_.record_collective(kind, bytes);

  detail::Rendezvous& rv = state_->rendezvous;
  if (rv.poisoned) throw Error("mp job aborted: collective poisoned");
  detail::CollectiveEntry& mine =
      rv.entries[static_cast<std::size_t>(rank_)];
  mine = {op, bytes, in, out, vrank_, log_.collectives[kind].calls, false};
  if (rv.arrived == 0) {
    rv.opener = rank_;
  } else {
    const detail::CollectiveEntry& first =
        rv.entries[static_cast<std::size_t>(rv.opener)];
    if (first.op != op || first.bytes != bytes) {
      throw Error(strfmt(
          "mp: collective mismatch: rank %d entered %s of %zu bytes, rank %d "
          "entered %s of %zu bytes",
          first.rank, op_name(first.op), first.bytes, vrank_, op_name(op),
          bytes));
    }
  }
  if (++rv.arrived < size_) {
    mine.parked = true;
    while (mine.parked) {
      state_->fibers->park();
      if (rv.poisoned) {
        mine.parked = false;
        throw Error("mp job aborted: collective poisoned");
      }
    }
    return;
  }
  // Last to arrive: compute everyone's output, then release the others.
  rv.arrived = 0;
  fold(*state_);
  for (int s = 0; s < size_; ++s) {
    if (s == rank_) continue;
    rv.entries[static_cast<std::size_t>(s)].parked = false;
    state_->fibers->wake(s);
  }
}

void Comm::allreduce_sum(std::span<double> data) {
  collective(detail::CollectiveOp::kSum, data.data(), data.data(),
             data.size_bytes());
}

double Comm::allreduce_sum(double value) {
  collective(detail::CollectiveOp::kSum, &value, &value, sizeof(double));
  return value;
}

double Comm::allreduce_max(double value) {
  collective(detail::CollectiveOp::kMax, &value, &value, sizeof(double));
  return value;
}

std::uint64_t Comm::allreduce_sum_u64(std::uint64_t value) {
  // Exact for counts below 2^53, which covers every counter in the suite.
  const double v = allreduce_sum(static_cast<double>(value));
  return static_cast<std::uint64_t>(v);
}

void Comm::allgather_bytes(const void* send, std::size_t bytes, void* recv) {
  collective(detail::CollectiveOp::kAllgather, send, recv, bytes);
}

}  // namespace fibersim::mp

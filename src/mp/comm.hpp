// Comm — the per-rank communicator handle of the in-process message runtime.
//
// Semantics follow MPI where it matters for the miniapps:
//   * send is buffered and never blocks (eager protocol), so symmetric
//     exchange patterns cannot deadlock;
//   * recv blocks until a matching (source, tag) message arrives and requires
//     the exact payload size — a size mismatch is a protocol error;
//   * collectives (the allreduces and the allgather the miniapps call) must
//     be entered by every rank of the job in the same order; they send no
//     messages: each rank parks at an in-memory rendezvous and the last one
//     to arrive computes every rank's output (see detail::JobState).
//
// Every operation is recorded in the rank's CommLog for the cost model.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <span>
#include <vector>

#include "mp/comm_log.hpp"
#include "mp/mailbox.hpp"

namespace fibersim::mp {

namespace detail {
struct JobState;  // shared between the ranks of one Job

/// What a collective computes: the elementwise sum or max of every rank's
/// doubles, or every rank's block in rank order.
enum class CollectiveOp { kSum, kMax, kAllgather };

inline CollectiveKind kind_of(CollectiveOp op) {
  return op == CollectiveOp::kAllgather ? CollectiveKind::kAllgather
                                        : CollectiveKind::kAllreduce;
}
}  // namespace detail

class Comm {
 public:
  /// Under a collapsed run these are the *virtual* identity: the class
  /// representative's rank in the full job and the full job's size. The
  /// app never observes that only one rank per class physically runs.
  int rank() const { return vrank_; }
  int size() const { return vsize_; }

  // ----- point-to-point -----
  /// Buffered send of raw bytes; returns immediately.
  void send_bytes(int dst, int tag, const void* data, std::size_t bytes);
  /// Blocking receive; `bytes` must equal the sender's payload size.
  void recv_bytes(int src, int tag, void* data, std::size_t bytes);
  /// Combined exchange (send then receive; safe because sends are buffered).
  void sendrecv_bytes(int dst, int send_tag, const void* send_data,
                      std::size_t send_bytes, int src, int recv_tag,
                      void* recv_data, std::size_t recv_bytes);
  /// True if a matching message is already queued.
  bool probe(int src, int tag) const;

  template <typename T>
  void send(int dst, int tag, std::span<const T> data) {
    send_bytes(dst, tag, data.data(), data.size_bytes());
  }
  template <typename T>
  void recv(int src, int tag, std::span<T> data) {
    recv_bytes(src, tag, data.data(), data.size_bytes());
  }
  template <typename T>
  void send_value(int dst, int tag, const T& value) {
    send_bytes(dst, tag, &value, sizeof(T));
  }
  template <typename T>
  T recv_value(int src, int tag) {
    T value;
    recv_bytes(src, tag, &value, sizeof(T));
    return value;
  }
  template <typename T>
  void sendrecv(int dst, std::span<const T> send_data, int src,
                std::span<T> recv_data, int tag = 0) {
    sendrecv_bytes(dst, tag, send_data.data(), send_data.size_bytes(), src, tag,
                   recv_data.data(), recv_data.size_bytes());
  }

  // ----- collectives -----
  void allreduce_sum(std::span<double> data);
  double allreduce_sum(double value);
  double allreduce_max(double value);
  std::uint64_t allreduce_sum_u64(std::uint64_t value);
  /// Every rank's `bytes`-byte block, in rank order: recv holds size()*bytes.
  void allgather_bytes(const void* send, std::size_t bytes, void* recv);

  template <typename T>
  void allgather(const T& mine, std::span<T> all) {
    allgather_bytes(&mine, sizeof(T), all.data());
  }

  const CommLog& log() const { return log_; }

 private:
  friend class Job;
  Comm(detail::JobState& state, int rank, int size)
      : state_(&state), rank_(rank), size_(size), vrank_(rank), vsize_(size) {}
  /// Collapsed-mode communicator: `rank`/`size` are the physical slot and
  /// slot count (one per symmetry class); `vrank`/`vsize` the virtual
  /// identity reported to the app.
  Comm(detail::JobState& state, int rank, int size, int vrank, int vsize)
      : state_(&state),
        rank_(rank),
        size_(size),
        vrank_(vrank),
        vsize_(vsize) {}

  Mailbox& mailbox_of(int rank) const;
  /// Log the collective, then meet the job's other ranks at the rendezvous.
  void collective(detail::CollectiveOp op, const void* in, void* out,
                  std::size_t bytes);

  detail::JobState* state_;
  int rank_;
  int size_;
  int vrank_;
  int vsize_;
  /// Self-tiling loopback: collapsed sends queue their payload here by tag
  /// and collapsed recvs pop it (FIFO per tag). For symmetric exchange
  /// patterns this makes the representative's world an exact periodic
  /// tiling of itself; a recv with no queued payload (a non-periodic
  /// boundary partner) zero-fills instead.
  std::map<int, std::deque<std::vector<std::byte>>> loopback_;
  CommLog log_;
};

}  // namespace fibersim::mp

// CommLog — per-rank record of communication, consumed by the cost model.
//
// Point-to-point traffic is kept per peer (the runner maps peers to
// topological distances through the Binding); collectives are kept per kind
// with the payload size and communicator size, because they are costed by a
// log-round formula rather than per message. The runtime issues only
// allreduce and allgather; the other kinds stay because the trace format
// and the cost model price every kind.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace fibersim::mp {

enum class CollectiveKind {
  kBarrier,
  kBcast,
  kReduce,
  kAllreduce,
  kGather,
  kAllgather,
  kAlltoall,
  kScan,
  kReduceScatter,
};

const char* collective_name(CollectiveKind kind);

struct PeerTraffic {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

struct CollectiveTraffic {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;  ///< per-rank payload, summed over calls
};

struct CommLog {
  /// Outgoing point-to-point traffic by destination rank.
  std::map<int, PeerTraffic> sends;
  /// Collective participation by kind.
  std::map<CollectiveKind, CollectiveTraffic> collectives;

  void record_send(int dst, std::uint64_t bytes);
  void record_collective(CollectiveKind kind, std::uint64_t bytes);

  std::uint64_t total_p2p_bytes() const;
  std::uint64_t total_p2p_messages() const;

  /// Traffic accumulated since `earlier` (used for per-phase attribution).
  CommLog diff(const CommLog& earlier) const;

  std::string summary() const;
};

}  // namespace fibersim::mp

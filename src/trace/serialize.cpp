#include "trace/serialize.hpp"

#include "common/json.hpp"

namespace fibersim::trace {

namespace {

void write_work(json::Writer& w, const isa::WorkEstimate& work) {
  w.begin_object()
      .field("flops", work.flops)
      .field("load_bytes", work.load_bytes)
      .field("store_bytes", work.store_bytes)
      .field("int_ops", work.int_ops)
      .field("branches", work.branches)
      .field("iterations", work.iterations)
      .field("vectorizable_fraction", work.vectorizable_fraction)
      .field("fma_fraction", work.fma_fraction)
      .field("dep_chain_ops", work.dep_chain_ops)
      .field("gather_fraction", work.gather_fraction)
      .field("branch_miss_rate", work.branch_miss_rate)
      .field("shared_access_fraction", work.shared_access_fraction)
      .field("working_set_bytes", work.working_set_bytes)
      .field("dram_traffic_bytes", work.dram_traffic_bytes)
      .field("inner_trip_count", work.inner_trip_count)
      .end_object();
}

void write_comm(json::Writer& w, const mp::CommLog& comm) {
  w.begin_object().key("p2p").begin_array();
  for (const auto& [dst, traffic] : comm.sends) {
    w.begin_object()
        .field("dst", dst)
        .field("messages", traffic.messages)
        .field("bytes", traffic.bytes)
        .end_object();
  }
  w.end_array().key("collectives").begin_array();
  for (const auto& [kind, traffic] : comm.collectives) {
    w.begin_object()
        .field("kind", mp::collective_name(kind))
        .field("calls", traffic.calls)
        .field("bytes", traffic.bytes)
        .end_object();
  }
  w.end_array().end_object();
}

}  // namespace

std::string to_json(const JobTrace& trace) {
  json::Writer w;
  w.begin_array();
  for (const RankTrace& rank_trace : trace) {
    w.begin_array();
    for (const PhaseRecord& phase : rank_trace) {
      w.begin_object()
          .field("name", phase.name)
          .field("parallel", phase.parallel)
          .field("timed", phase.timed)
          .field("entries", phase.entries)
          .key("work");
      write_work(w, phase.work);
      w.key("comm");
      write_comm(w, phase.comm);
      w.end_object();
    }
    w.end_array();
  }
  w.end_array();
  return std::move(w).take();
}

std::string to_json(const JobPrediction& prediction) {
  json::Writer w;
  w.begin_object()
      .field("total_s", prediction.total_s)
      .field("compute_s", prediction.compute_s)
      .field("memory_s", prediction.memory_s)
      .field("comm_s", prediction.comm_s)
      .field("barrier_s", prediction.barrier_s)
      .field("setup_s", prediction.setup_s)
      .field("flops", prediction.flops)
      .field("dram_bytes", prediction.dram_bytes)
      .field("gflops", prediction.gflops())
      .key("phases")
      .begin_array();
  for (const PhasePrediction& phase : prediction.phases) {
    w.begin_object()
        .field("name", phase.name)
        .field("timed", phase.timed)
        .field("total_s", phase.total_s)
        .field("compute_s", phase.time.compute_s)
        .field("memory_s", phase.time.memory_s)
        .field("barrier_s", phase.time.barrier_s)
        .field("comm_s", phase.comm_s)
        .field("limiter", machine::limiter_name(phase.time.limiter))
        .end_object();
  }
  w.end_array().end_object();
  return std::move(w).take();
}

}  // namespace fibersim::trace

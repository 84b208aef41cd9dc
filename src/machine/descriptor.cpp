#include "machine/descriptor.hpp"

#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/parse_num.hpp"
#include "common/string_util.hpp"

namespace fibersim::machine {

namespace {

[[noreturn]] void fail(const std::string& what, std::size_t offset) {
  throw Error("processor descriptor: " + what +
              strfmt(" (at byte %zu)", offset));
}

/// Strict object walker: required/optional typed getters that remember the
/// byte offset of every value they hand out, plus finish() which rejects any
/// key the schema did not ask for.
class Reader {
 public:
  Reader(const json::Value& obj, std::string path,
         std::vector<std::pair<std::string, std::size_t>>* offsets)
      : obj_(obj), path_(std::move(path)), offsets_(offsets) {
    if (!obj_.is_object()) {
      fail("'" + path_ + "' must be an object", obj_.offset());
    }
  }

  double f64(const char* key, const char* record = nullptr) {
    const json::Value& v = need(key);
    if (!v.is_number()) fail(describe(key) + " must be a number", v.offset());
    const std::optional<double> d = parse_f64(v.raw_number());
    if (!d) fail(describe(key) + " is not a finite double", v.offset());
    record_offset(key, record, v.offset());
    return *d;
  }

  double f64_opt(const char* key, double fallback, const char* record = nullptr) {
    if (obj_.find(key) == nullptr) return fallback;
    return f64(key, record);
  }

  int i32(const char* key, const char* record = nullptr) {
    const json::Value& v = need(key);
    if (!v.is_number()) fail(describe(key) + " must be a number", v.offset());
    const std::optional<int> i = parse_i32(v.raw_number());
    if (!i) fail(describe(key) + " must be a 32-bit integer", v.offset());
    record_offset(key, record, v.offset());
    return *i;
  }

  bool boolean(const char* key) {
    const json::Value& v = need(key);
    if (!v.is_bool()) fail(describe(key) + " must be true or false", v.offset());
    return v.as_bool();
  }

  std::string str(const char* key) {
    const json::Value& v = need(key);
    if (!v.is_string()) fail(describe(key) + " must be a string", v.offset());
    return v.as_string();
  }

  /// Nested object member; the returned value is consumed for finish().
  const json::Value& object(const char* key) { return need(key); }

  bool has(const char* key) const { return obj_.find(key) != nullptr; }

  std::string member_path(const char* key) const { return describe_path(key); }

  /// Reject every key the schema did not consume, naming the first one.
  void finish() const {
    for (const auto& [k, v] : obj_.members()) {
      bool known = false;
      for (const std::string& c : consumed_) {
        if (c == k) {
          known = true;
          break;
        }
      }
      if (!known) {
        fail("unknown key '" + describe_path(k.c_str()) + "'", v.offset());
      }
    }
  }

 private:
  const json::Value& need(const char* key) {
    const json::Value* v = obj_.find(key);
    if (v == nullptr) {
      fail("missing required field '" + describe_path(key) + "'",
           obj_.offset());
    }
    consumed_.emplace_back(key);
    return *v;
  }

  std::string describe_path(const char* key) const {
    return path_.empty() ? std::string(key) : path_ + "." + key;
  }
  std::string describe(const char* key) const {
    return "field '" + describe_path(key) + "'";
  }

  void record_offset(const char* key, const char* record, std::size_t off) {
    if (offsets_ == nullptr) return;
    offsets_->emplace_back(record != nullptr ? record : describe_path(key),
                           off);
  }

  const json::Value& obj_;
  std::string path_;
  std::vector<std::pair<std::string, std::size_t>>* offsets_;
  std::vector<std::string> consumed_;
};

CacheLevel read_cache(const json::Value& v, const std::string& path,
                      std::vector<std::pair<std::string, std::size_t>>* offs) {
  Reader r(v, path, offs);
  CacheLevel c;
  c.capacity_bytes = r.f64("capacity_bytes");
  c.bytes_per_cycle = r.f64("bytes_per_cycle");
  c.latency_cycles = r.f64("latency_cycles");
  r.finish();
  return c;
}

}  // namespace

std::string to_descriptor(const ProcessorConfig& cfg) {
  // Canonical form: fixed key order, indented layout, shortest round-trip
  // doubles. The byte-stability contract lives here.
  json::Writer w(json::Writer::Layout::kIndented);
  const auto num = [&w](const char* key, double v) { w.key(key).shortest(v); };
  const auto open = [&w](const char* key) { w.key(key).begin_object(); };
  w.begin_object();
  w.field("format", kDescriptorFormat);
  w.field("name", cfg.name);
  open("shape");
  w.field("sockets", cfg.shape.sockets);
  w.field("numa_per_socket", cfg.shape.numa_per_socket);
  w.field("cores_per_numa", cfg.shape.cores_per_numa);
  w.end_object();
  num("freq_hz", cfg.freq_hz);
  num("boost_freq_hz", cfg.boost_freq_hz);
  open("vec");
  w.field("name", cfg.vec.name);
  w.field("vector_bits", cfg.vec.vector_bits);
  w.field("has_fma", cfg.vec.has_fma);
  num("gather_lanes_per_cycle", cfg.vec.gather_lanes_per_cycle);
  w.field("has_predication", cfg.vec.has_predication);
  w.end_object();
  w.field("fp_pipes", cfg.fp_pipes);
  num("fp_latency_cycles", cfg.fp_latency_cycles);
  num("scalar_ipc", cfg.scalar_ipc);
  num("mem_overlap", cfg.mem_overlap);
  num("branch_miss_penalty_cycles", cfg.branch_miss_penalty_cycles);
  for (const CacheLevel* level : {&cfg.l1, &cfg.l2}) {
    open(level == &cfg.l1 ? "l1" : "l2");
    num("capacity_bytes", level->capacity_bytes);
    num("bytes_per_cycle", level->bytes_per_cycle);
    num("latency_cycles", level->latency_cycles);
    w.end_object();
  }
  num("numa_mem_bw", cfg.numa_mem_bw);
  num("numa_mem_latency_ns", cfg.numa_mem_latency_ns);
  num("inter_numa_bw", cfg.inter_numa_bw);
  num("inter_numa_latency_ns", cfg.inter_numa_latency_ns);
  num("inter_socket_bw", cfg.inter_socket_bw);
  num("inter_socket_latency_ns", cfg.inter_socket_latency_ns);
  open("net");
  num("injection_bw", cfg.net.injection_bw);
  num("link_bw", cfg.net.link_bw);
  num("base_latency_us", cfg.net.base_latency_us);
  num("hop_latency_ns", cfg.net.hop_latency_ns);
  w.end_object();
  num("intra_node_msg_latency_ns", cfg.intra_node_msg_latency_ns);
  open("barrier");
  num("hop_ns_same_numa", cfg.barrier_hop_ns_same_numa);
  num("hop_ns_cross_numa", cfg.barrier_hop_ns_cross_numa);
  num("hop_ns_cross_socket", cfg.barrier_hop_ns_cross_socket);
  w.end_object();
  open("power");
  num("watts_base", cfg.watts_base);
  num("watts_per_core_active", cfg.watts_per_core_active);
  num("watts_per_GBps_dram", cfg.watts_per_GBps_dram);
  num("freq_power_exponent", cfg.freq_power_exponent);
  w.end_object();
  open("eco");
  w.field("fp_pipes", cfg.eco_fp_pipes);
  num("core_power_scale", cfg.eco_core_power_scale);
  w.end_object();
  w.end_object();
  return std::move(w).take();
}

ProcessorConfig parse_descriptor(std::string_view text) {
  std::string err;
  const std::optional<json::Value> root = json::parse(text, &err);
  if (!root) throw Error("processor descriptor: " + err);

  // Byte offset of every numeric field, keyed by the name validate() uses in
  // its message, so range errors downstream can be annotated with the exact
  // location of the offending value.
  std::vector<std::pair<std::string, std::size_t>> offsets;

  Reader r(*root, "", &offsets);
  const std::string format = r.str("format");
  if (format != kDescriptorFormat) {
    fail("unsupported format '" + format + "' (expected '" +
             std::string(kDescriptorFormat) + "')",
         root->find("format")->offset());
  }

  ProcessorConfig cfg;
  cfg.name = r.str("name");
  {
    Reader shape(r.object("shape"), "shape", &offsets);
    cfg.shape.sockets = shape.i32("sockets");
    cfg.shape.numa_per_socket = shape.i32("numa_per_socket");
    cfg.shape.cores_per_numa = shape.i32("cores_per_numa");
    shape.finish();
  }
  cfg.freq_hz = r.f64("freq_hz");
  cfg.boost_freq_hz = r.f64_opt("boost_freq_hz", 0.0);
  {
    Reader vec(r.object("vec"), "vec", &offsets);
    cfg.vec.name = vec.str("name");
    cfg.vec.vector_bits = vec.i32("vector_bits");
    cfg.vec.has_fma = vec.boolean("has_fma");
    cfg.vec.gather_lanes_per_cycle = vec.f64("gather_lanes_per_cycle");
    cfg.vec.has_predication = vec.boolean("has_predication");
    vec.finish();
  }
  cfg.fp_pipes = r.i32("fp_pipes");
  cfg.fp_latency_cycles = r.f64("fp_latency_cycles");
  cfg.scalar_ipc = r.f64("scalar_ipc");
  cfg.mem_overlap = r.f64("mem_overlap");
  cfg.branch_miss_penalty_cycles = r.f64("branch_miss_penalty_cycles");
  cfg.l1 = read_cache(r.object("l1"), "l1", &offsets);
  cfg.l2 = read_cache(r.object("l2"), "l2", &offsets);
  cfg.numa_mem_bw = r.f64("numa_mem_bw");
  cfg.numa_mem_latency_ns = r.f64("numa_mem_latency_ns");
  cfg.inter_numa_bw = r.f64("inter_numa_bw");
  cfg.inter_numa_latency_ns = r.f64("inter_numa_latency_ns");
  cfg.inter_socket_bw = r.f64("inter_socket_bw");
  cfg.inter_socket_latency_ns = r.f64("inter_socket_latency_ns");
  {
    Reader net(r.object("net"), "net", &offsets);
    cfg.net.injection_bw = net.f64("injection_bw");
    cfg.net.link_bw = net.f64("link_bw");
    cfg.net.base_latency_us = net.f64("base_latency_us");
    cfg.net.hop_latency_ns = net.f64("hop_latency_ns");
    net.finish();
  }
  cfg.intra_node_msg_latency_ns = r.f64("intra_node_msg_latency_ns");
  {
    Reader barrier(r.object("barrier"), "barrier", &offsets);
    cfg.barrier_hop_ns_same_numa =
        barrier.f64("hop_ns_same_numa", "barrier_hop_ns_same_numa");
    cfg.barrier_hop_ns_cross_numa =
        barrier.f64("hop_ns_cross_numa", "barrier_hop_ns_cross_numa");
    cfg.barrier_hop_ns_cross_socket =
        barrier.f64("hop_ns_cross_socket", "barrier_hop_ns_cross_socket");
    barrier.finish();
  }
  {
    Reader power(r.object("power"), "power", &offsets);
    cfg.watts_base = power.f64("watts_base", "watts_base");
    cfg.watts_per_core_active =
        power.f64("watts_per_core_active", "watts_per_core_active");
    cfg.watts_per_GBps_dram =
        power.f64("watts_per_GBps_dram", "watts_per_GBps_dram");
    cfg.freq_power_exponent =
        power.f64("freq_power_exponent", "freq_power_exponent");
    power.finish();
  }
  if (r.has("eco")) {
    Reader eco(r.object("eco"), "eco", &offsets);
    cfg.eco_fp_pipes = eco.i32("fp_pipes", "eco_fp_pipes");
    cfg.eco_core_power_scale =
        eco.f64("core_power_scale", "eco_core_power_scale");
    eco.finish();
  }
  r.finish();

  try {
    cfg.validate();
  } catch (const Error& e) {
    // validate() names the offending field first in its message; annotate
    // with the byte offset of that field's value (longest field name wins so
    // "eco_fp_pipes must be <= fp_pipes" cites eco_fp_pipes, not fp_pipes).
    const std::string what = e.what();
    const std::pair<std::string, std::size_t>* best = nullptr;
    for (const auto& entry : offsets) {
      if (what.find(entry.first) == std::string::npos) continue;
      if (best == nullptr || entry.first.size() > best->first.size()) {
        best = &entry;
      }
    }
    if (best != nullptr) {
      fail("field '" + best->first + "' out of range: " + what, best->second);
    }
    throw Error("processor descriptor: " + what);
  }
  return cfg;
}

ProcessorConfig load_descriptor_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open processor descriptor '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) throw Error("error reading processor descriptor '" + path + "'");
  try {
    return parse_descriptor(buf.str());
  } catch (const Error& e) {
    throw Error(path + ": " + e.what());
  }
}

}  // namespace fibersim::machine

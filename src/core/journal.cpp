#include "core/journal.hpp"

#include <bit>
#include <cerrno>
#include <sstream>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/json.hpp"
#include "common/parse_num.hpp"
#include "common/string_util.hpp"

namespace fibersim::core {

namespace {

// ----- bit-exact double <-> hex -------------------------------------------

std::string hex_u64(std::uint64_t v) {
  return strfmt("%016llx", static_cast<unsigned long long>(v));
}

std::string hex_f64(double v) {
  return hex_u64(std::bit_cast<std::uint64_t>(v));
}

bool parse_hex_u64(std::string_view text, std::uint64_t* out) {
  if (text.empty() || text.size() > 16) return false;
  std::uint64_t value = 0;
  for (char c : text) {
    int digit = 0;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else return false;
    value = (value << 4) | static_cast<std::uint64_t>(digit);
  }
  *out = value;
  return true;
}

bool parse_hex_f64(std::string_view text, double* out) {
  std::uint64_t bits = 0;
  if (!parse_hex_u64(text, &bits)) return false;
  *out = std::bit_cast<double>(bits);
  return true;
}

// ----- line decoder --------------------------------------------------------

/// Every line is one object with exactly these keys in this order; a line
/// that differs in any way (killed mid-append, foreign, hand-edited) is
/// skipped whole.
constexpr std::string_view kKeys[] = {"v",          "key",     "label",
                                      "verified",   "check_value",
                                      "check_desc", "power",   "agg",
                                      "nphases",    "phases"};

/// A non-negative integer token.
bool small_int(const json::Value& v, int* out) {
  const std::optional<int> i =
      v.is_number() ? parse_i32(v.raw_number()) : std::nullopt;
  if (!i || *i < 0) return false;
  *out = *i;
  return true;
}

/// `items[0, outs.size())` are hex-encoded doubles.
bool hex_f64s(const json::Value* items, std::initializer_list<double*> outs) {
  for (double* out : outs) {
    const json::Value& item = *items++;
    if (!item.is_string() || !parse_hex_f64(item.as_string(), out)) {
      return false;
    }
  }
  return true;
}

/// `v` is an array of exactly `outs.size()` hex-encoded doubles.
bool hex_array(const json::Value& v, std::initializer_list<double*> outs) {
  return v.is_array() && v.items().size() == outs.size() &&
         hex_f64s(v.items().data(), outs);
}

/// [name, timed, comm_s, total_s, compute_s, memory_s, barrier_s,
///  time.total_s, limiter, flops, dram_bytes, remote_bytes, chain_s]
bool decode_phase(const json::Value& v, trace::PhasePrediction* phase) {
  if (!v.is_array() || v.items().size() != 13) return false;
  const json::Items& f = v.items();
  machine::PhaseTime& t = phase->time;
  int timed = 0;
  int limiter = 0;
  if (!f[0].is_string() || !small_int(f[1], &timed) ||
      !small_int(f[8], &limiter) || limiter > 3 ||
      !hex_f64s(&f[2], {&phase->comm_s, &phase->total_s, &t.compute_s,
                        &t.memory_s, &t.barrier_s, &t.total_s}) ||
      !hex_f64s(&f[9], {&t.flops, &t.dram_bytes, &t.remote_bytes,
                        &t.chain_s})) {
    return false;
  }
  phase->name = f[0].as_string();
  phase->timed = timed != 0;
  t.limiter = static_cast<machine::Limiter>(limiter);
  return true;
}

}  // namespace

bool SweepJournal::decode_line(std::string_view line, std::uint64_t* key,
                               Stored* stored) {
  const std::optional<json::Value> root = json::parse(line, nullptr);
  if (!root || !root->is_object()) return false;
  const json::Members& m = root->members();
  if (m.size() != std::size(kKeys)) return false;
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (m[i].first != kKeys[i]) return false;
  }
  int version = 0;
  int verified = 0;
  int nphases = 0;
  trace::JobPrediction& p = stored->prediction;
  if (!small_int(m[0].second, &version) || version != 1 ||
      !m[1].second.is_string() ||
      !parse_hex_u64(m[1].second.as_string(), key) ||
      !m[2].second.is_string() || !small_int(m[3].second, &verified) ||
      !hex_f64s(&m[4].second, {&stored->check_value}) ||
      !m[5].second.is_string() ||
      !hex_array(m[6].second, {&stored->power.watts, &stored->power.joules,
                               &stored->power.gflops_per_watt}) ||
      !hex_array(m[7].second, {&p.total_s, &p.compute_s, &p.memory_s,
                               &p.comm_s, &p.barrier_s, &p.flops,
                               &p.dram_bytes, &p.setup_s}) ||
      !small_int(m[8].second, &nphases) || !m[9].second.is_array() ||
      m[9].second.items().size() != static_cast<std::size_t>(nphases)) {
    return false;
  }
  stored->verified = verified != 0;
  stored->check_description = m[5].second.as_string();
  for (const json::Value& item : m[9].second.items()) {
    trace::PhasePrediction phase;
    if (!decode_phase(item, &phase)) return false;
    p.phases.push_back(std::move(phase));
  }
  return true;
}

// ----- fingerprint ---------------------------------------------------------

namespace {
void hash_processor(Fnv1a& h, const machine::ProcessorConfig& p) {
  h.str(p.name)
      .i32(p.shape.sockets)
      .i32(p.shape.numa_per_socket)
      .i32(p.shape.cores_per_numa)
      .f64(p.freq_hz)
      .str(p.vec.name)
      .i32(p.vec.vector_bits)
      .b(p.vec.has_fma)
      .f64(p.vec.gather_lanes_per_cycle)
      .b(p.vec.has_predication)
      .i32(p.fp_pipes)
      .f64(p.fp_latency_cycles)
      .f64(p.scalar_ipc)
      .f64(p.mem_overlap)
      .f64(p.branch_miss_penalty_cycles);
  for (const machine::CacheLevel& level : {p.l1, p.l2}) {
    h.f64(level.capacity_bytes)
        .f64(level.bytes_per_cycle)
        .f64(level.latency_cycles);
  }
  h.f64(p.numa_mem_bw)
      .f64(p.numa_mem_latency_ns)
      .f64(p.inter_numa_bw)
      .f64(p.inter_numa_latency_ns)
      .f64(p.inter_socket_bw)
      .f64(p.inter_socket_latency_ns)
      .f64(p.net.injection_bw)
      .f64(p.net.link_bw)
      .f64(p.net.base_latency_us)
      .f64(p.net.hop_latency_ns)
      .f64(p.intra_node_msg_latency_ns)
      .f64(p.barrier_hop_ns_same_numa)
      .f64(p.barrier_hop_ns_cross_numa)
      .f64(p.barrier_hop_ns_cross_socket)
      .f64(p.watts_base)
      .f64(p.watts_per_core_active)
      .f64(p.watts_per_GBps_dram)
      .f64(p.freq_power_exponent);
}
}  // namespace

std::uint64_t SweepJournal::fingerprint(const ExperimentConfig& config) {
  Fnv1a h;
  h.str(config.app)
      .i32(static_cast<int>(config.dataset))
      .i32(config.ranks)
      .i32(config.threads)
      .i32(config.nodes)
      .i32(static_cast<int>(config.alloc))
      .i32(static_cast<int>(config.bind.kind))
      .i32(config.bind.stride)
      .u64(config.compile.fingerprint());
  hash_processor(h, config.processor);
  h.f64(config.nominal_freq_hz)
      .u64(config.seed)
      .i32(config.iterations)
      .i32(config.weak_scale)
      .i32(config.collapse ? 1 : 0);
  return h.value();
}

// ----- open / load ---------------------------------------------------------

SweepJournal::SweepJournal(std::string path) : path_(std::move(path)) {
  FS_REQUIRE(!path_.empty(), "journal path must not be empty");
  // Read the whole file and find the durable prefix: everything up to and
  // including the last newline. Bytes past it are a torn tail from a kill
  // mid-append; only complete lines are trusted.
  std::string content;
  {
    std::ifstream in(path_, std::ios::binary);
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      content = buf.str();
    }
  }
  std::size_t durable = content.rfind('\n');
  durable = (durable == std::string::npos) ? 0 : durable + 1;
  tail_bytes_ = content.size() - durable;

  std::size_t pos = 0;
  while (pos < durable) {
    const std::size_t eol = content.find('\n', pos);
    std::string_view line(content.data() + pos, eol - pos);
    pos = eol + 1;
    std::uint64_t key = 0;
    Stored stored;
    // Torn, foreign or malformed line (e.g. killed mid-append): skip it.
    if (!decode_line(line, &key, &stored)) continue;
    entries_[key] = std::move(stored);
    ++loaded_;
  }

  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  FS_REQUIRE(fd_ >= 0, "cannot open journal for append: " + path_);
  if (tail_bytes_ > 0) {
    // Truncate the torn tail so the next append starts on a fresh line —
    // appending after torn bytes would glue the new record onto them,
    // corrupting it for the next resume.
    FS_REQUIRE(::ftruncate(fd_, static_cast<off_t>(durable)) == 0,
               "cannot truncate torn journal tail: " + path_);
    ::fsync(fd_);
  }
}

SweepJournal::~SweepJournal() {
  if (fd_ >= 0) ::close(fd_);
}

// ----- lookup / record -----------------------------------------------------

bool SweepJournal::lookup(const ExperimentConfig& config,
                          ExperimentResult* out) const {
  const std::uint64_t key = fingerprint(config);
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  *out = ExperimentResult{};
  out->config = config;
  out->prediction = it->second.prediction;
  out->power = it->second.power;
  out->verified = it->second.verified;
  out->check_value = it->second.check_value;
  out->check_description = it->second.check_description;
  ++hits_;
  return true;
}

bool SweepJournal::record(const ExperimentConfig& config,
                          const ExperimentResult& result) {
  const std::uint64_t key = fingerprint(config);

  const trace::JobPrediction& p = result.prediction;
  json::Writer w;
  const auto hex_values = [&w](std::initializer_list<double> values) {
    for (const double v : values) w.value(hex_f64(v));
  };
  w.begin_object()
      .field("v", 1)
      .field("key", hex_u64(key))
      .field("label", config.label())
      .field("verified", result.verified ? 1 : 0)
      .field("check_value", hex_f64(result.check_value))
      .field("check_desc", result.check_description)
      .key("power")
      .begin_array();
  hex_values({result.power.watts, result.power.joules,
              result.power.gflops_per_watt});
  w.end_array().key("agg").begin_array();
  hex_values({p.total_s, p.compute_s, p.memory_s, p.comm_s, p.barrier_s,
              p.flops, p.dram_bytes, p.setup_s});
  w.end_array().field("nphases", p.phases.size()).key("phases").begin_array();
  for (const trace::PhasePrediction& phase : p.phases) {
    const machine::PhaseTime& t = phase.time;
    w.begin_array().value(phase.name).value(phase.timed ? 1 : 0);
    hex_values({phase.comm_s, phase.total_s, t.compute_s, t.memory_s,
                t.barrier_s, t.total_s});
    w.value(static_cast<int>(t.limiter));
    hex_values({t.flops, t.dram_bytes, t.remote_bytes, t.chain_s});
    w.end_array();
  }
  w.end_array().end_object();
  std::string line = std::move(w).take();

  Stored stored;
  stored.prediction = result.prediction;
  stored.power = result.power;
  stored.verified = result.verified;
  stored.check_value = result.check_value;
  stored.check_description = result.check_description;

  line += '\n';

  std::lock_guard<std::mutex> lock(mutex_);
  if (!entries_.emplace(key, std::move(stored)).second) {
    return true;  // already durable from the earlier record
  }
  // write() the full line, then fsync before returning: callers may ack the
  // result to a client once record() returns true, so durability must be
  // established here, not at some later flush.
  std::size_t written = 0;
  while (written < line.size()) {
    const ssize_t n =
        ::write(fd_, line.data() + written, line.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return ::fsync(fd_) == 0;
}

std::size_t SweepJournal::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

}  // namespace fibersim::core

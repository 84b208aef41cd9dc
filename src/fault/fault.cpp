#include "fault/fault.hpp"

#include <algorithm>
#include <cstdlib>
#include <mutex>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/parse_num.hpp"
#include "common/rng.hpp"
#include "common/string_util.hpp"

namespace fibersim::fault {

// ----- plan ---------------------------------------------------------------

namespace {

double parse_probability(const std::string& key, const std::string& value) {
  std::size_t used = 0;
  double p = 0.0;
  try {
    p = std::stod(value, &used);
  } catch (const std::exception&) {
    throw Error("fault plan: bad value for " + key + ": '" + value + "'");
  }
  FS_REQUIRE(used == value.size(),
             "fault plan: trailing junk in value for " + key);
  FS_REQUIRE(p >= 0.0 && p <= 1.0,
             "fault plan: " + key + " must be a probability in [0, 1]");
  return p;
}

double parse_nonneg(const std::string& key, const std::string& value) {
  std::size_t used = 0;
  double v = 0.0;
  try {
    v = std::stod(value, &used);
  } catch (const std::exception&) {
    throw Error("fault plan: bad value for " + key + ": '" + value + "'");
  }
  FS_REQUIRE(used == value.size(),
             "fault plan: trailing junk in value for " + key);
  FS_REQUIRE(v >= 0.0, "fault plan: " + key + " must be >= 0");
  return v;
}

int parse_count(const std::string& key, const std::string& value) {
  const double v = parse_nonneg(key, value);
  const int n = static_cast<int>(v);
  FS_REQUIRE(static_cast<double>(n) == v && n <= 1000000,
             "fault plan: " + key + " must be a small non-negative integer");
  return n;
}

}  // namespace

Plan Plan::parse(const std::string& spec) {
  Plan plan;
  for (const std::string& raw_entry : split(spec, ';')) {
    for (const std::string& raw : split(raw_entry, ',')) {
      const std::string entry{trim(raw)};
      if (entry.empty()) continue;
      const std::size_t eq = entry.find('=');
      FS_REQUIRE(eq != std::string::npos,
                 "fault plan: entry is not key=value: '" + entry + "'");
      const std::string key{trim(entry.substr(0, eq))};
      const std::string value{trim(entry.substr(eq + 1))};
      if (key == "seed") {
        const std::optional<std::uint64_t> seed = parse_u64(value);
        FS_REQUIRE(seed.has_value(),
                   "fault plan: bad value for seed: '" + value + "'");
        plan.seed = *seed;
      } else if (key == "transient") {
        plan.transient = parse_count(key, value);
      } else if (key == "mp.drop") {
        plan.mp_drop = parse_probability(key, value);
      } else if (key == "mp.delay") {
        plan.mp_delay = parse_probability(key, value);
      } else if (key == "mp.dup") {
        plan.mp_dup = parse_probability(key, value);
      } else if (key == "mp.rankdeath") {
        plan.mp_rank_death = parse_probability(key, value);
      } else if (key == "mp.delay_ms") {
        plan.mp_delay_ms = parse_nonneg(key, value);
      } else if (key == "rt.throw") {
        plan.rt_throw = parse_probability(key, value);
      } else if (key == "run.fail") {
        plan.run_fail = parse_count(key, value);
      } else if (key == "predict.fail") {
        plan.predict_fail = parse_count(key, value);
      } else {
        throw Error("fault plan: unknown key '" + key + "'");
      }
    }
  }
  plan.validate();
  return plan;
}

std::string Plan::spec() const {
  return strfmt(
      "seed=%llu;transient=%d;mp.drop=%g;mp.delay=%g;mp.dup=%g;"
      "mp.rankdeath=%g;mp.delay_ms=%g;rt.throw=%g;run.fail=%d;"
      "predict.fail=%d",
      static_cast<unsigned long long>(seed), transient, mp_drop, mp_delay,
      mp_dup, mp_rank_death, mp_delay_ms, rt_throw, run_fail, predict_fail);
}

void Plan::validate() const {
  for (double p : {mp_drop, mp_delay, mp_dup, mp_rank_death, rt_throw}) {
    FS_REQUIRE(p >= 0.0 && p <= 1.0, "fault plan: probability out of range");
  }
  FS_REQUIRE(mp_delay_ms >= 0.0, "fault plan: durations must be >= 0");
  FS_REQUIRE(transient >= 0 && run_fail >= 0 && predict_fail >= 0,
             "fault plan: counts must be >= 0");
}

// ----- global activation --------------------------------------------------

namespace detail {
std::atomic<bool> g_enabled{false};
}

namespace {
std::mutex g_plan_mutex;
std::shared_ptr<const Plan> g_plan;
}  // namespace

void install(const Plan& plan) {
  plan.validate();
  Log::reset();
  {
    std::lock_guard<std::mutex> lock(g_plan_mutex);
    g_plan = std::make_shared<const Plan>(plan);
  }
  detail::g_enabled.store(true, std::memory_order_release);
}

void clear() {
  detail::g_enabled.store(false, std::memory_order_release);
  std::lock_guard<std::mutex> lock(g_plan_mutex);
  g_plan.reset();
}

std::shared_ptr<const Plan> active() {
  if (!enabled()) return nullptr;
  std::lock_guard<std::mutex> lock(g_plan_mutex);
  return g_plan;
}

bool install_from_env() {
  const char* spec = std::getenv("FIBERSIM_FAULT_PLAN");
  if (spec == nullptr || *spec == '\0') return false;
  install(Plan::parse(spec));
  return true;
}

// ----- error classification ----------------------------------------------

ErrorClass classify(const std::string& what) {
  if (what.rfind(kInjectedMarker, 0) == 0) return ErrorClass::kInjected;
  if (what.rfind(kTimeoutMarker, 0) == 0) return ErrorClass::kTimeout;
  if (what.rfind(kPoisonMarker, 0) == 0 ||
      what.find(kPoisonMarker) != std::string::npos) {
    return ErrorClass::kPoison;
  }
  return ErrorClass::kOther;
}

const char* error_class_name(ErrorClass c) {
  switch (c) {
    case ErrorClass::kInjected: return "injected";
    case ErrorClass::kTimeout: return "timeout";
    case ErrorClass::kOther: return "error";
    case ErrorClass::kPoison: return "poisoned";
  }
  return "?";
}

// ----- session ------------------------------------------------------------

Session::Session(std::shared_ptr<const Plan> plan, std::uint64_t key_hash,
                 int attempt)
    : plan_(std::move(plan)), attempt_(attempt) {
  if (!plan_) return;
  salt_ = Fnv1a(plan_->seed ^ Fnv1a::kOffset)
              .u64(key_hash)
              .i32(attempt)
              .value();
  armed_ = plan_->transient == 0 || attempt < plan_->transient;
}

double Session::draw(std::uint64_t kind, std::uint64_t a, std::uint64_t b,
                     std::uint64_t c) const {
  SplitMix64 sm(Fnv1a(plan_->seed)
                    .u64(salt_)
                    .u64(kind)
                    .u64(a)
                    .u64(b)
                    .u64(c)
                    .value());
  return static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
}

namespace {
// Site kinds for draw(); distinct constants keep sites independent.
constexpr std::uint64_t kKindDrop = 1;
constexpr std::uint64_t kKindDelay = 2;
constexpr std::uint64_t kKindDup = 3;
constexpr std::uint64_t kKindDeath = 4;
constexpr std::uint64_t kKindWorker = 5;

std::uint64_t pack_site(int a, int b, int c) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 42) ^
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(b)) << 21) ^
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(c));
}
}  // namespace

SendAction Session::on_send(int src, int dst, int tag,
                            std::uint64_t seq) const {
  if (!armed_ || !plan_->any_mp()) return SendAction::kDeliver;
  const std::uint64_t site = pack_site(src, dst, tag);
  if (plan_->mp_drop > 0.0 && draw(kKindDrop, site, seq, 0) < plan_->mp_drop) {
    Log::record(strfmt("mp.drop src=%d dst=%d tag=%d seq=%llu salt=%016llx",
                       src, dst, tag, static_cast<unsigned long long>(seq),
                       static_cast<unsigned long long>(salt_)));
    return SendAction::kDrop;
  }
  if (plan_->mp_dup > 0.0 && draw(kKindDup, site, seq, 0) < plan_->mp_dup) {
    Log::record(strfmt("mp.dup src=%d dst=%d tag=%d seq=%llu salt=%016llx",
                       src, dst, tag, static_cast<unsigned long long>(seq),
                       static_cast<unsigned long long>(salt_)));
    return SendAction::kDuplicate;
  }
  if (plan_->mp_delay > 0.0 &&
      draw(kKindDelay, site, seq, 0) < plan_->mp_delay) {
    Log::record(strfmt("mp.delay src=%d dst=%d tag=%d seq=%llu salt=%016llx",
                       src, dst, tag, static_cast<unsigned long long>(seq),
                       static_cast<unsigned long long>(salt_)));
    return SendAction::kDelay;
  }
  return SendAction::kDeliver;
}

bool Session::should_kill_rank(int rank, std::uint64_t op) const {
  if (!armed_ || plan_->mp_rank_death <= 0.0) return false;
  if (draw(kKindDeath, static_cast<std::uint64_t>(rank), op, 0) >=
      plan_->mp_rank_death) {
    return false;
  }
  Log::record(strfmt("mp.rankdeath rank=%d op=%llu salt=%016llx", rank,
                     static_cast<unsigned long long>(op),
                     static_cast<unsigned long long>(salt_)));
  return true;
}

bool Session::should_throw_worker(std::uint64_t stream, int tid,
                                  std::uint64_t region) const {
  if (!armed_ || plan_->rt_throw <= 0.0) return false;
  if (draw(kKindWorker, stream, static_cast<std::uint64_t>(tid), region) >=
      plan_->rt_throw) {
    return false;
  }
  Log::record(strfmt("rt.throw stream=%llu tid=%d region=%llu salt=%016llx",
                     static_cast<unsigned long long>(stream), tid,
                     static_cast<unsigned long long>(region),
                     static_cast<unsigned long long>(salt_)));
  return true;
}

bool Session::should_fail_native_run() const {
  if (!plan_ || attempt_ >= plan_->run_fail) return false;
  Log::record(strfmt("run.fail attempt=%d salt=%016llx", attempt_,
                     static_cast<unsigned long long>(salt_)));
  return true;
}

double Session::delay_s() const {
  return plan_ ? plan_->mp_delay_ms * 1e-3 : 0.0;
}

// ----- log ----------------------------------------------------------------

namespace {
std::mutex g_log_mutex;
std::vector<std::string> g_log;
}  // namespace

void Log::record(std::string line) {
  std::lock_guard<std::mutex> lock(g_log_mutex);
  g_log.push_back(std::move(line));
}

std::vector<std::string> Log::lines() {
  std::vector<std::string> copy;
  {
    std::lock_guard<std::mutex> lock(g_log_mutex);
    copy = g_log;
  }
  std::sort(copy.begin(), copy.end());
  return copy;
}

std::size_t Log::count() {
  std::lock_guard<std::mutex> lock(g_log_mutex);
  return g_log.size();
}

void Log::reset() {
  std::lock_guard<std::mutex> lock(g_log_mutex);
  g_log.clear();
}

}  // namespace fibersim::fault

// EvalCache — memoized exec-model work evaluation across sweep points.
//
// ExecModel::evaluate_work is a pure function of (processor, per-thread
// work); in a sweep every config re-derives the same WorkEvals for the same
// generated work, once per rank x thread. This cache keys them on
// (processor token, work content hash) so a sweep's exec-model cost scales
// with the number of *distinct* (processor, work) pairs.
//
// The memo itself — bitwise verification of every hit, misses computed under
// the bucket lock, deterministic evals/lookups/hits — is the shared
// common/exact_memo.hpp, the same one cg::CodegenCache is. What this class
// adds is processor identity, which is exact, not probabilistic:
// processor_token() registers each distinct ProcessorConfig (full
// field-wise equality) and returns a small integer token, so two configs
// share cached evaluations iff the model would see identical parameters — no
// fingerprint collision can alias machines.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <vector>

#include "common/exact_memo.hpp"
#include "isa/work_estimate.hpp"
#include "machine/exec_model.hpp"
#include "machine/processor.hpp"

namespace fibersim::machine {

class EvalCache
    : public ExactMemo<isa::WorkEstimate, WorkEval, isa::exactly_equal> {
 public:
  /// Registers `cfg` (exact equality) and returns its stable token. Cheap
  /// after the first call per distinct processor; call once per sweep point
  /// and reuse for every phase.
  std::uint64_t processor_token(const ProcessorConfig& cfg) {
    {
      std::shared_lock<std::shared_mutex> lock(proc_mutex_);
      if (const auto token = find_locked(cfg)) return *token;
    }
    std::unique_lock<std::shared_mutex> lock(proc_mutex_);
    if (const auto token = find_locked(cfg)) return *token;
    processors_.push_back(cfg);
    return processors_.size() - 1;
  }

  /// Memoized exec.evaluate_work(work). `token` must come from
  /// processor_token(exec.config()); `work_h` must be isa::work_hash(work).
  WorkEval work_eval(const ExecModel& exec, std::uint64_t token,
                     const isa::WorkEstimate& work, std::uint64_t work_h) {
    return get({token, work_h}, work, [&] { return exec.evaluate_work(work); });
  }

  /// Distinct processors registered so far.
  std::size_t processors() const {
    std::shared_lock<std::shared_mutex> lock(proc_mutex_);
    return processors_.size();
  }

 private:
  std::optional<std::uint64_t> find_locked(const ProcessorConfig& cfg) const {
    for (std::size_t i = 0; i < processors_.size(); ++i) {
      if (processors_[i] == cfg) return i;
    }
    return std::nullopt;
  }

  mutable std::shared_mutex proc_mutex_;
  std::vector<ProcessorConfig> processors_;
};

}  // namespace fibersim::machine

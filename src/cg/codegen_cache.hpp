// CodegenCache — memoized cg::apply.
//
// A sweep over 20 bindings on one processor evaluates the exact same codegen
// transform configs x ranks x phases times: apply() is a pure function of
// (CompileOptions, WorkEstimate), so the memo keys results on (options
// fingerprint, work content hash). The bucketing, bitwise verification of
// every hit and deterministic evals/lookups/hits counters are the shared
// common/exact_memo.hpp — the same memo machine::EvalCache is built on.
#pragma once

#include <cstdint>

#include "cg/codegen_model.hpp"
#include "cg/compile_options.hpp"
#include "common/exact_memo.hpp"
#include "isa/work_estimate.hpp"

namespace fibersim::cg {

using CodegenCache =
    ExactMemo<isa::WorkEstimate, isa::WorkEstimate, isa::exactly_equal>;

/// Memoized cg::apply(opts, work). `work_h` must be isa::work_hash(work)
/// (callers usually have it precomputed on the trace's classes).
inline isa::WorkEstimate apply(CodegenCache& cache, const CompileOptions& opts,
                               const isa::WorkEstimate& work,
                               std::uint64_t work_h) {
  return cache.get({opts.fingerprint(), work_h}, work,
                   [&] { return apply(opts, work); });
}

}  // namespace fibersim::cg

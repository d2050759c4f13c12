//===- frontend/KernelCache.hpp - Sharded compiled-kernel cache ------------===//
//
// The benches recompile the same (spec, options) pairs many times — every
// figure sweeps the same proxy kernels over the five build configurations —
// and the multi-tenant service (src/service) adds thousands of *concurrent*
// requests for the same kernels. The cache is the process-wide
// support::SingleFlightCache of compiled kernels (sharded, single-flight:
// 1000 identical concurrent compiles = 1 miss), plus its content address:
// compiled kernels are keyed on the full content of the request — the
// serialized KernelSpec, the names and declared register pressure of every
// referenced native op, and every codegen/pipeline switch. The key is the
// complete serialization (not a digest), so lookups cannot collide.
//
//===----------------------------------------------------------------------===//
#pragma once

#include <string>
#include <string_view>

#include "frontend/TargetCompiler.hpp"
#include "support/SingleFlightCache.hpp"

namespace codesign::frontend {

/// Process-wide cache of compiled kernels. Hits share the immutable module
/// via CompiledKernel's shared_ptr; hit/miss/coalesced totals are mirrored
/// into support::Counters ("kernel-cache.hits" / "kernel-cache.misses" /
/// "kernel-cache.coalesced"). Failed compilations are not cached: every
/// waiter receives the error and a later request retries.
class KernelCache : public support::SingleFlightCache<CompiledKernel> {
public:
  KernelCache() : SingleFlightCache("kernel-cache") {}

  static KernelCache &global();

  /// Build the content-addressed key for a compilation request. PipelineStr
  /// is the canonical text of the resolved pipeline spec (PipelineSpec::str);
  /// it captures the pass sequence the toggles and any Opt.Pipeline override
  /// imply, so a pipeline override reaching the same toggles still gets its
  /// own entry. Empty when the optimizer does not run.
  static std::string key(const KernelSpec &Spec, const CompileOptions &Options,
                         const vgpu::NativeRegistry &Registry,
                         std::string_view PipelineStr = {});
};

} // namespace codesign::frontend

#include "frontend/KernelCache.hpp"

namespace codesign::frontend {

namespace {

/// Unambiguous serialization helpers: numbers in decimal followed by ';',
/// strings length-prefixed. No two distinct requests share a key.
void putNum(std::string &Out, std::int64_t V) {
  Out += std::to_string(V);
  Out += ';';
}

void putStr(std::string &Out, std::string_view S) {
  putNum(Out, static_cast<std::int64_t>(S.size()));
  Out += S;
}

void putTrip(std::string &Out, const TripCount &T) {
  putNum(Out, static_cast<std::int64_t>(T.K));
  putNum(Out, T.Const);
  putNum(Out, T.ArgIndex);
  putNum(Out, T.Offset);
}

void putBody(std::string &Out, const NativeBody &B,
             const vgpu::NativeRegistry &Registry) {
  // A NativeId is only a dense index into the caller's registry; the name
  // and declared register pressure are what give it meaning across runs.
  putNum(Out, B.NativeId);
  const vgpu::NativeOpInfo &Info = Registry.get(B.NativeId);
  putStr(Out, Info.Name);
  putNum(Out, Info.ExtraRegisters);
  putNum(Out, (B.Flags.ReadsMemory ? 1 : 0) | (B.Flags.WritesMemory ? 2 : 0) |
                  (B.Flags.Divergent ? 4 : 0));
  putNum(Out, static_cast<std::int64_t>(B.Args.size()));
  for (const BodyArg &A : B.Args) {
    putNum(Out, static_cast<std::int64_t>(A.K));
    putNum(Out, A.ArgIndex);
    putNum(Out, A.Const);
  }
}

void putStmt(std::string &Out, const Stmt &S,
             const vgpu::NativeRegistry &Registry) {
  putNum(Out, static_cast<std::int64_t>(S.K));
  putNum(Out, S.NumThreadsClause);
  putNum(Out, static_cast<std::int64_t>(S.ScratchBytes));
  putNum(Out, S.IcvValue);
  putNum(Out, S.HasDirectBody ? 1 : 0);
  putTrip(Out, S.Trip);
  const bool HasBody = S.K != StmtKind::SetNumThreads &&
                       (S.K != StmtKind::Parallel || S.HasDirectBody);
  putNum(Out, HasBody ? 1 : 0);
  if (HasBody)
    putBody(Out, S.Body, Registry);
  putNum(Out, static_cast<std::int64_t>(S.Children.size()));
  for (const Stmt &C : S.Children)
    putStmt(Out, C, Registry);
}

} // namespace

KernelCache &KernelCache::global() {
  static KernelCache C;
  return C;
}

std::string KernelCache::key(const KernelSpec &Spec,
                             const CompileOptions &Options,
                             const vgpu::NativeRegistry &Registry,
                             std::string_view PipelineStr) {
  std::string Key;
  Key.reserve(256);
  putStr(Key, Spec.Name);
  putNum(Key, static_cast<std::int64_t>(Spec.Params.size()));
  for (const ParamSpec &P : Spec.Params) {
    putNum(Key, static_cast<std::int64_t>(P.Ty.kind()));
    putStr(Key, P.Name);
    // Map clauses are part of the kernel's contract (they land as IR
    // annotations the inference pass and lint rules read), so two specs
    // differing only in clauses must not share a cache entry.
    putNum(Key, static_cast<std::int64_t>(P.Map));
  }
  putNum(Key, static_cast<std::int64_t>(Spec.Stmts.size()));
  for (const Stmt &S : Spec.Stmts)
    putStmt(Key, S, Registry);
  // Codegen switches.
  const CodegenOptions &CG = Options.CG;
  putNum(Key, static_cast<std::int64_t>(CG.RT));
  putNum(Key, CG.ForceGenericMode ? 1 : 0);
  putNum(Key, CG.DebugKind);
  putNum(Key, CG.AssumeTeamsOversubscription ? 1 : 0);
  putNum(Key, CG.AssumeThreadsOversubscription ? 1 : 0);
  // Pipeline switches.
  const opt::OptOptions &O = Options.Opt;
  putNum(Key, (O.EnableInlining ? 1 : 0) | (O.EnableSPMDization ? 2 : 0) |
                  (O.EnableGlobalizationElim ? 4 : 0) |
                  (O.EnableFieldSensitiveProp ? 8 : 0) |
                  (O.EnableInterprocDominance ? 16 : 0) |
                  (O.EnableAssumedMemoryContent ? 32 : 0) |
                  (O.EnableInvariantProp ? 64 : 0) |
                  (O.EnableAlignedExecReasoning ? 128 : 0) |
                  (O.EnableBarrierElim ? 256 : 0) | (O.KeepAssumes ? 512 : 0));
  putNum(Key, O.MaxFixpointRounds);
  putNum(Key, Options.RunOptimizer ? 1 : 0);
  // The resolved pipeline: distinguishes Opt.Pipeline overrides that the
  // toggle bits above cannot see.
  putStr(Key, PipelineStr);
  return Key;
}

} // namespace codesign::frontend

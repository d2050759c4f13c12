//===- exec/NativeCodegen.hpp - IR -> standalone C++ emission --------------===//
//
// Translates a post-optimization ir::Module into one self-contained C++
// translation unit the native backend compiles with the host toolchain and
// dlopens behind the launch API. Each kernel exports a lane entry the host
// runs on a per-lane fiber; a barrier anywhere in the lane's call stack
// suspends the fiber through cg_team::host_suspend, and the team core all
// engines share (vgpu::TeamCore) runs its cooperative strict-lane-order
// run-to-barrier schedule, which is what makes native outputs
// bit-identical to the tree and bytecode engines.
//
//===----------------------------------------------------------------------===//
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/Module.hpp"

namespace codesign::exec {

/// One entry of the generated module's constant pool: a device address the
/// host resolves per ModuleImage at bind time (globals move between images;
/// the compiled .so must not bake them in). Index counts the module's
/// globals (IsFunction == false) or functions (IsFunction == true) in
/// creation order — the same order ModuleImage uses.
struct NativeCPoolEntry {
  bool IsFunction = false;
  std::uint32_t Index = 0;
};

/// What the host needs to know about one emitted kernel entry.
struct NativeKernelInfo {
  std::string Symbol;         ///< exported "extern C" lane-entry symbol
  std::uint32_t NumSlots = 0; ///< kernel-entry value slots per lane
};

/// The generated translation unit plus its binding manifest.
struct NativeModuleSource {
  std::string Source;
  std::vector<NativeCPoolEntry> CPool;
  std::unordered_map<std::string, NativeKernelInfo> Kernels; ///< by IR name
  /// True when any function in the module contains a barrier. When false,
  /// lanes can never suspend, so the backend runs them straight on the
  /// worker's stack instead of spawning fibers.
  bool AnyBarriers = false;
};

/// Emit M as a standalone C++ translation unit. Total: every reachable
/// construct is either compiled with the interpreter's exact semantics or
/// emitted as an explicit trap carrying the interpreter's message (e.g.
/// calls to unresolved external declarations), so a generated module can
/// never silently diverge.
NativeModuleSource emitNativeModule(const ir::Module &M);

} // namespace codesign::exec

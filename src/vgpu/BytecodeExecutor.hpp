//===- vgpu/BytecodeExecutor.hpp - Fast-tier team execution ----------------===//
//
// Executes one team of a kernel launch over lowered bytecode
// (vgpu/Bytecode.hpp). Team state, memory, atomics, barriers and traps are
// the TeamCore every interpreter shares (vgpu/TeamCore.hpp); only the
// frames and the instruction dispatch are this engine's own, and the tree
// walker behind the "tree" execution backend is their differential
// oracle. Like the tree walker, every lane executes every instruction; the
// speed comes from the dense encoding alone (pre-resolved operands, phi
// trampolines, fused superinstructions), not from sharing work between
// lanes.
//
//===----------------------------------------------------------------------===//
#pragma once

#include "vgpu/Bytecode.hpp"
#include "vgpu/Interpreter.hpp"

namespace codesign::vgpu {

/// Execute team TeamId of a launch over bytecode. Pools holds the image's
/// resolved constant pools, one per BytecodeModule function
/// (ModuleImage::bytecodePools()). The team semantics are runTreeTeam's:
/// both engines run on TeamCore (TeamCore.hpp).
TeamRunOutcome
runBytecodeTeam(const DeviceConfig &Config, GlobalMemory &GM,
                const NativeRegistry &Registry, const ModuleImage &Image,
                const BytecodeModule &BC,
                const std::vector<std::vector<std::uint64_t>> &Pools,
                std::uint32_t TeamId, std::uint32_t NumTeams,
                std::uint32_t NumThreads, const ir::Function *Kernel,
                std::span<const std::uint64_t> Args, LaunchMetrics &Metrics,
                LaunchProfile *Profile);

} // namespace codesign::vgpu

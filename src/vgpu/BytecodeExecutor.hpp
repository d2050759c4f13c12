//===- vgpu/BytecodeExecutor.hpp - Fast-tier team execution ----------------===//
//
// Executes one team of a kernel launch over lowered bytecode
// (vgpu/Bytecode.hpp). The execution model is the tree interpreter's, bit
// for bit: threads run serially until they block at a team barrier, all
// trap messages, metrics, profiles and memory effects are identical — the
// tree walker stays available behind the "tree" execution backend as a
// differential oracle for exactly this property. Like the tree walker,
// every lane executes every instruction; the speed comes from the dense
// encoding alone (pre-resolved operands, phi trampolines, fused
// superinstructions), not from sharing work between lanes.
//
//===----------------------------------------------------------------------===//
#pragma once

#include <optional>
#include <string>

#include "vgpu/Bytecode.hpp"
#include "vgpu/Interpreter.hpp"

namespace codesign::vgpu {

/// Outcome of one team's bytecode execution.
struct BCTeamResult {
  std::optional<std::string> Err;
  std::uint64_t Cycles = 0;
};

/// Execute team TeamId of a launch over bytecode. Pools holds the image's
/// resolved constant pools, one per BytecodeModule function
/// (ModuleImage::bytecodePools()). Mirrors TeamExecutor::run() exactly.
BCTeamResult runBytecodeTeam(const DeviceConfig &Config, GlobalMemory &GM,
                             const NativeRegistry &Registry,
                             const ModuleImage &Image,
                             const BytecodeModule &BC,
                             const std::vector<std::vector<std::uint64_t>> &Pools,
                             std::uint32_t TeamId, std::uint32_t NumTeams,
                             std::uint32_t NumThreads,
                             const ir::Function *Kernel,
                             std::span<const std::uint64_t> Args,
                             LaunchMetrics &Metrics, LaunchProfile *Profile);

} // namespace codesign::vgpu

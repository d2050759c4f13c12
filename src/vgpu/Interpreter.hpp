//===- vgpu/Interpreter.hpp - IR interpreter with GPU execution model -----===//
//
// Executes kernel IR over a league of teams. Threads within a team are
// interpreted cooperatively: each runs until it blocks at a team barrier,
// finishes, or traps; a barrier rendezvous completes when every live thread
// of the team has arrived, at which point all clocks synchronize to the
// latest arrival (plus the barrier cost). This reproduces the execution
// semantics the paper's runtime relies on — including the generic-mode
// state machine, which is pure barrier choreography between the main
// thread and the workers (paper Section II-C).
//
//===----------------------------------------------------------------------===//
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/Module.hpp"
#include "vgpu/DeviceConfig.hpp"
#include "vgpu/Memory.hpp"
#include "vgpu/Metrics.hpp"
#include "vgpu/NativeRegistry.hpp"

namespace codesign::vgpu {

struct BytecodeModule;

using ir::Function;
using ir::GlobalVariable;
using ir::Instruction;
using ir::Module;
using ir::Value;

/// A module prepared for execution: device-resident statics laid out and
/// initialized, shared-space statics assigned per-team offsets, functions
/// given dense value-slot numberings, and function addresses assigned for
/// indirect calls (e.g. the work-function slot of the state machine).
class ModuleImage {
public:
  /// Lay out M's globals. Global/Constant-space variables are allocated in
  /// GM immediately and initialized; Shared-space variables get offsets in
  /// the per-team static segment.
  ModuleImage(const Module &M, GlobalMemory &GM);
  ~ModuleImage();
  ModuleImage(const ModuleImage &) = delete;
  ModuleImage &operator=(const ModuleImage &) = delete;

  /// The module this image was built from.
  [[nodiscard]] const Module &module() const { return M; }

  /// Device address of a module global (Global/Constant space: absolute;
  /// Shared space: team-relative).
  [[nodiscard]] DeviceAddr addressOf(const GlobalVariable *G) const;

  /// Size in bytes of the per-team static shared segment — the image's
  /// static shared memory footprint (Figure 11 "SMem").
  [[nodiscard]] std::uint64_t sharedStaticSize() const { return SharedSize; }

  /// Initialize the first Bytes bytes of a team's shared arena in one pass:
  /// the static segment's initializer image, then zeros up to Bytes. For
  /// arenas recycled across teams whose tail is known to be zero already.
  /// Bytes must be at least sharedStaticSize().
  void initTeamShared(std::uint8_t *Arena, std::uint64_t Bytes) const;

  /// The kernel's static resource usage (vgpu::computeKernelStats),
  /// computed on first request per (kernel, registry) and then served from
  /// this image: the image and its module are immutable, and a registry
  /// only ever appends operations.
  [[nodiscard]] KernelStaticStats
  kernelStats(const Function *Kernel, const NativeRegistry &Registry) const;

  /// Pseudo-address representing the address of function F (usable as an
  /// indirect-call target only).
  [[nodiscard]] DeviceAddr functionAddress(const Function *F) const;
  /// Reverse lookup; null when the address is not a function address.
  [[nodiscard]] const Function *functionFor(DeviceAddr A) const;

  /// Dense SSA slot numbering for F. Layouts for every module function are
  /// precomputed at image construction so lookups are safe from concurrent
  /// team-executor threads (the parallel launch engine).
  struct FunctionLayout {
    std::unordered_map<const Value *, std::uint32_t> Slots;
    std::uint32_t NumSlots = 0;
  };
  [[nodiscard]] const FunctionLayout &layout(const Function *F) const;

  /// Attach a pre-lowered bytecode module (the frontend caches one lowering
  /// per compiled kernel and shares it across images). Ignored after the
  /// image has already materialized a lowering of its own.
  void setBytecode(std::shared_ptr<const BytecodeModule> BC) const;
  /// The module's bytecode; lowered on first use when none was attached.
  /// Definitions live in Bytecode.cpp.
  [[nodiscard]] const BytecodeModule &bytecode() const;
  /// Per-function constant pools with global/function symbols resolved to
  /// this image's device addresses, indexed by BCFunction::Index.
  [[nodiscard]] const std::vector<std::vector<std::uint64_t>> &
  bytecodePools() const;

private:
  void materializeBytecodeLocked() const;

  const Module &M;
  GlobalMemory &GM;
  std::unordered_map<const GlobalVariable *, DeviceAddr> GlobalAddrs;
  std::uint64_t StaticsOffset = 0; ///< base of the statics block in GM
  std::uint64_t StaticsSize = 0;
  std::uint64_t SharedSize = 0;
  std::vector<std::uint8_t> SharedInit;
  std::vector<const Function *> FunctionsByIndex;
  std::unordered_map<const Function *, std::uint32_t> FunctionIndex;
  std::unordered_map<const Function *, FunctionLayout> Layouts;
  // Bytecode tier state: lazily materialized, guarded for the parallel
  // launch engine (mutable so a const image can serve launches).
  mutable std::mutex BCMutex;
  mutable std::shared_ptr<const BytecodeModule> BCMod;
  mutable std::vector<std::vector<std::uint64_t>> BCPools;
  mutable bool BCPoolsReady = false;
  struct StatsEntry {
    const Function *Kernel;
    const NativeRegistry *Registry;
    KernelStaticStats Stats;
  };
  mutable std::mutex StatsMutex;
  mutable std::vector<StatsEntry> StatsMemo;
};

/// Outcome of a kernel launch.
struct LaunchResult {
  bool Ok = false;
  std::string Error;      ///< populated when !Ok (trap, deadlock, assert)
  LaunchMetrics Metrics;  ///< populated when Ok
  LaunchProfile Profile;  ///< populated when Ok and DeviceConfig::CollectProfile
};

/// Outcome of one team's execution on the team core (vgpu/TeamCore.hpp),
/// under any engine; exec::TeamOutcome is this type. Launch orchestration
/// lives in exec/LaunchEngine.cpp.
struct TeamRunOutcome {
  std::optional<std::string> Err; ///< trap/deadlock message, empty = clean
  std::uint64_t Cycles = 0;       ///< the team's modeled wall time
  /// Shared-memory bytes re-initialized at team start
  /// (exec.team.shared_zeroed_bytes.<backend>).
  std::uint64_t SharedZeroedBytes = 0;
};

/// Execute team TeamId of a launch by walking the IR instruction tree
/// directly (the original engine, kept as the reference for instruction
/// dispatch; team semantics are the shared vgpu/TeamCore.hpp). Teams
/// share no mutable state except global memory reached via atomics, so
/// distinct teams may run concurrently; Metrics/Profile are this team's
/// private shards.
TeamRunOutcome runTreeTeam(const DeviceConfig &Config, GlobalMemory &GM,
                           const NativeRegistry &Registry,
                           const ModuleImage &Image, std::uint32_t TeamId,
                           std::uint32_t NumTeams, std::uint32_t NumThreads,
                           const Function *Kernel,
                           std::span<const std::uint64_t> Args,
                           LaunchMetrics &Metrics, LaunchProfile *Profile);

} // namespace codesign::vgpu

//===- vgpu/VirtualGPU.hpp - Device facade ---------------------------------===//
//
// The user-facing device object: owns global memory and the native-op
// registry, loads module images, and launches kernels. The host runtime
// (src/host) builds its libomptarget-like data mapping on top of this.
//
//===----------------------------------------------------------------------===//
#pragma once

#include <cstdlib>
#include <memory>
#include <string_view>

#include "exec/Backend.hpp"
#include "support/Trace.hpp"
#include "vgpu/Interpreter.hpp"

namespace codesign::vgpu {

/// A virtual GPU device.
class VirtualGPU {
public:
  explicit VirtualGPU(DeviceConfig Config = {})
      : Config(std::move(Config)), GM(this->Config.GlobalMemBytes) {
    // Runtime knob for differential runs: CODESIGN_EXEC_BACKEND=
    // tree|bytecode|native overrides the configured execution backend
    // without recompiling the harness (bench/ and the backend-parity tests
    // rely on this). Unknown values are rejected: the error is latched and
    // every launch on this device reports it, instead of the old behavior
    // of silently running the default engine — a typo in a differential
    // harness must not quietly compare a backend to itself.
    if (const char *Env = std::getenv("CODESIGN_EXEC_BACKEND")) {
      auto Known = exec::BackendRegistry::global().lookup(Env);
      if (Known) {
        this->Config.ExecBackend = Env;
      } else {
        BackendError = "CODESIGN_EXEC_BACKEND: " + Known.error().message();
        if (trace::Tracer::global().enabled())
          trace::Tracer::global().instant("vgpu", "exec.backend.unknown");
      }
    }
  }

  /// Device configuration (read-only after construction).
  [[nodiscard]] const DeviceConfig &config() const { return Config; }
  /// Registry used to resolve NativeOp ids; populate before launching.
  [[nodiscard]] NativeRegistry &registry() { return Registry; }

  // --- Host-visible memory management (cudaMalloc/cudaMemcpy analogue) ----

  /// Allocate Size bytes of device global memory; exhaustion is returned
  /// as a recoverable error (the host runtime surfaces it to the user).
  Expected<DeviceAddr> tryAllocate(std::uint64_t Size,
                                   std::uint64_t Align = 16) {
    auto Off = GM.allocate(Size, Align);
    if (!Off)
      return Off.error();
    return DeviceAddr::make(MemSpace::Global, *Off);
  }
  /// Allocate Size bytes of device global memory. Fails fatally on
  /// exhaustion — the convenience entry point for tests and examples that
  /// cannot continue meaningfully without the buffer.
  DeviceAddr allocate(std::uint64_t Size, std::uint64_t Align = 16) {
    auto A = tryAllocate(Size, Align);
    CODESIGN_ASSERT(A.hasValue(), "device global memory exhausted");
    return *A;
  }
  /// Release an allocation from allocate().
  void release(DeviceAddr A) {
    CODESIGN_ASSERT(A.space() == MemSpace::Global, "release of non-global");
    GM.release(A.offset());
  }
  /// Copy host -> device.
  void write(DeviceAddr A, std::span<const std::uint8_t> Data) {
    CODESIGN_ASSERT(A.space() == MemSpace::Global, "write to non-global");
    GM.write(A.offset(), Data);
  }
  /// Copy device -> host.
  void read(DeviceAddr A, std::span<std::uint8_t> Out) const {
    CODESIGN_ASSERT(A.space() == MemSpace::Global, "read from non-global");
    GM.read(A.offset(), Out);
  }
  /// Bytes currently allocated (leak checking in tests).
  [[nodiscard]] std::uint64_t bytesInUse() const { return GM.bytesInUse(); }

  // --- Images and launches ---------------------------------------------------

  /// Prepare a module for execution (global layout + initialization).
  /// The module must outlive the image. A pre-lowered bytecode module (the
  /// frontend caches one per compiled kernel) can be attached so the
  /// bytecode tier skips re-lowering; when absent, the image lowers lazily
  /// on the first bytecode-tier launch.
  std::unique_ptr<ModuleImage>
  loadImage(const Module &M,
            std::shared_ptr<const BytecodeModule> Bytecode = nullptr) {
    auto Image = std::make_unique<ModuleImage>(M, GM);
    if (Bytecode)
      Image->setBytecode(std::move(Bytecode));
    return Image;
  }

  /// Launch a kernel by function pointer through the configured execution
  /// backend, or through BackendOverride when non-empty (per-request
  /// routing for the host runtime and service).
  LaunchResult launch(const ModuleImage &Image, const Function *Kernel,
                      std::span<const std::uint64_t> Args,
                      std::uint32_t NumTeams, std::uint32_t NumThreads,
                      std::string_view BackendOverride = {}) {
    auto B = backendFor(BackendOverride);
    if (!B) {
      LaunchResult R;
      R.Error = B.error().message();
      return R;
    }
    return exec::launch(**B, {Config, GM, Registry}, Image, Kernel, Args,
                        NumTeams, NumThreads);
  }

  /// The backend a launch with BackendOverride runs on: an error while a
  /// rejected CODESIGN_EXEC_BACKEND is latched (backendError()), else the
  /// registry entry named by BackendOverride, or by the configured backend
  /// when the override is empty.
  [[nodiscard]] Expected<exec::Backend *>
  backendFor(std::string_view BackendOverride) const {
    if (!BackendError.empty())
      return Error(BackendError);
    return exec::BackendRegistry::global().lookup(
        BackendOverride.empty() ? std::string_view(Config.ExecBackend)
                                : BackendOverride);
  }

  /// Launch a kernel by name.
  LaunchResult launch(const ModuleImage &Image, std::string_view KernelName,
                      std::span<const std::uint64_t> Args,
                      std::uint32_t NumTeams, std::uint32_t NumThreads,
                      std::string_view BackendOverride = {}) {
    const Function *K = Image.module().findFunction(KernelName);
    if (!K) {
      LaunchResult R;
      R.Error = "no such kernel: " + std::string(KernelName);
      return R;
    }
    return launch(Image, K, Args, NumTeams, NumThreads, BackendOverride);
  }

  /// Toggle debug executions (runtime invariant verification).
  void setDebugChecks(bool On) { Config.DebugChecks = On; }

  /// Toggle launch profiling (LaunchResult::Profile collection).
  void setProfiling(bool On) { Config.CollectProfile = On; }

  /// Toggle the dynamic shared-memory race / divergent-aligned-barrier
  /// detector (the lint passes' runtime oracle).
  void setDetectRaces(bool On) { Config.DetectRaces = On; }

  /// Select the execution backend by its registry name ("tree",
  /// "bytecode", "native"). Overrides any CODESIGN_EXEC_BACKEND environment
  /// setting applied at construction; unknown names are rejected without
  /// changing the configuration.
  Expected<void> setExecBackend(std::string_view Name) {
    auto Known = exec::BackendRegistry::global().lookup(Name);
    if (!Known)
      return Known.error();
    Config.ExecBackend = Name;
    BackendError.clear();
    return Expected<void>::success();
  }

  /// The configured execution backend's registry name.
  [[nodiscard]] const std::string &execBackend() const {
    return Config.ExecBackend;
  }

  /// Non-empty when construction rejected an execution-backend environment
  /// knob; every launch fails with this message until setExecBackend().
  [[nodiscard]] const std::string &backendError() const {
    return BackendError;
  }

private:
  DeviceConfig Config;
  GlobalMemory GM;
  NativeRegistry Registry;
  std::string BackendError;
};

} // namespace codesign::vgpu

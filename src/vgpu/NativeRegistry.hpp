//===- vgpu/NativeRegistry.hpp - Host functors callable from device IR -----===//
//
// Proxy-application loop bodies are registered here as C++ functors and
// invoked from IR via the NativeOp opcode. The runtime/orchestration code —
// where all of the paper's overheads live — stays in IR and is visible to
// the optimizer; the numeric payload executes natively with an explicit
// cost profile (so memory-bound vs compute-bound character is preserved).
//
//===----------------------------------------------------------------------===//
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ir/Type.hpp"
#include "support/Error.hpp"
#include "vgpu/Address.hpp"

namespace codesign::vgpu {

/// Global-memory access counts an engine accumulates per team in plain
/// memory and flushes into its metric shard once, when the team retires.
struct GlobalAccessCounts {
  std::uint64_t Loads = 0, Stores = 0;
  std::uint64_t BytesRead = 0, BytesWritten = 0;
};

/// An engine's inline global-memory window for native bodies. A zero Cap
/// (the default) disables the inline path; otherwise every pointer must
/// stay valid for the lifetime of the NativeCtx that holds it.
struct GlobalWindow {
  std::uint8_t *Base = nullptr;         ///< the global arena
  std::uint64_t Cap = 0;                ///< its capacity in bytes
  std::uint64_t AccessCost = 0;         ///< CostModel::GlobalAccess
  std::uint64_t *Cycles = nullptr;      ///< the executing lane's clock
  GlobalAccessCounts *Counts = nullptr; ///< the team's hot counters
};

/// Execution-side view handed to a native functor: typed argument access,
/// device memory access (auto-charged to the cost model), explicit compute
/// cycle charging, and the result slot.
///
/// Memory access has two layers. The typed front doors (loadF64, storeI32,
/// loadBlockF64, ...) are non-virtual: an in-bounds global access of a
/// compile-time size is served inline from the Window the executing engine
/// fills in. Everything else — shared and local memory, out-of-bounds or
/// invalid addresses, engines that fill no window — falls through to the
/// virtual hooks (loadBits/storeBits, loadBlockSlow/storeBlockSlow), which
/// resolve, trap and charge exactly like the engine's own IR loads.
class NativeCtx {
public:
  virtual ~NativeCtx() = default;

  /// Number of IR operands passed to the NativeOp.
  [[nodiscard]] virtual unsigned numArgs() const = 0;
  /// Raw 64-bit representation of argument I.
  [[nodiscard]] virtual std::uint64_t argBits(unsigned I) const = 0;

  [[nodiscard]] std::int64_t argI64(unsigned I) const {
    return static_cast<std::int64_t>(argBits(I));
  }
  [[nodiscard]] std::int32_t argI32(unsigned I) const {
    return static_cast<std::int32_t>(argBits(I));
  }
  [[nodiscard]] double argF64(unsigned I) const {
    return toF64(argBits(I));
  }
  [[nodiscard]] DeviceAddr argPtr(unsigned I) const {
    return DeviceAddr(argBits(I));
  }

  /// Typed device memory access. Loads/stores are charged to the cost model
  /// and counted in the launch metrics, so a memory-bound native body
  /// behaves like memory-bound IR.
  [[nodiscard]] virtual std::uint64_t loadBits(DeviceAddr A, unsigned Size) = 0;
  virtual void storeBits(DeviceAddr A, std::uint64_t Bits, unsigned Size) = 0;

  [[nodiscard]] double loadF64(DeviceAddr A) { return toF64(load<8>(A)); }
  void storeF64(DeviceAddr A, double D) { store<8>(A, fromF64(D)); }
  [[nodiscard]] std::int64_t loadI64(DeviceAddr A) {
    return static_cast<std::int64_t>(load<8>(A));
  }
  void storeI64(DeviceAddr A, std::int64_t V) {
    store<8>(A, static_cast<std::uint64_t>(V));
  }
  [[nodiscard]] std::int32_t loadI32(DeviceAddr A) {
    return static_cast<std::int32_t>(load<4>(A));
  }
  void storeI32(DeviceAddr A, std::int32_t V) {
    store<4>(A, static_cast<std::uint64_t>(static_cast<std::uint32_t>(V)));
  }

  /// Load Count contiguous f64 elements starting at A into Out. The cost
  /// model charges, launch metrics, and bounds behavior are exactly those
  /// of Count scalar loadF64 calls.
  void loadBlockF64(DeviceAddr A, double *Out, std::uint32_t Count) {
    const std::uint64_t Bytes = static_cast<std::uint64_t>(Count) * 8;
    if (!inWindow(A, Bytes)) {
      loadBlockSlow(A, Out, Count);
      return;
    }
    __builtin_memcpy(Out, Window.Base + A.offset(), Bytes);
    Window.Counts->Loads += Count;
    Window.Counts->BytesRead += Bytes;
    *Window.Cycles += Count * Window.AccessCost;
  }

  /// Store Count contiguous f64 elements from In starting at A. Same
  /// contract as loadBlockF64: charges and metrics of Count scalar
  /// storeF64 calls.
  void storeBlockF64(DeviceAddr A, const double *In, std::uint32_t Count) {
    const std::uint64_t Bytes = static_cast<std::uint64_t>(Count) * 8;
    if (!inWindow(A, Bytes)) {
      storeBlockSlow(A, In, Count);
      return;
    }
    __builtin_memcpy(Window.Base + A.offset(), In, Bytes);
    Window.Counts->Stores += Count;
    Window.Counts->BytesWritten += Bytes;
    *Window.Cycles += Count * Window.AccessCost;
  }

  /// Charge pure compute cycles (ALU/FPU work done natively).
  virtual void chargeCycles(std::uint64_t Cycles) = 0;

  /// Set the NativeOp result (for non-void result types).
  virtual void setResultBits(std::uint64_t Bits) = 0;
  void setResultF64(double D) { setResultBits(fromF64(D)); }
  void setResultI64(std::int64_t V) {
    setResultBits(static_cast<std::uint64_t>(V));
  }

  /// Identity of the executing thread (for divergent native bodies).
  [[nodiscard]] virtual std::uint32_t threadId() const = 0;
  [[nodiscard]] virtual std::uint32_t teamId() const = 0;

protected:
  /// The engine's inline global-memory window.
  GlobalWindow Window;

  /// Block hooks for accesses the window does not cover. The defaults
  /// issue Count scalar accesses; an engine may copy en bloc as long as
  /// charges, metrics and traps stay those of the scalar loop.
  virtual void loadBlockSlow(DeviceAddr A, double *Out, std::uint32_t Count) {
    for (std::uint32_t I = 0; I < Count; ++I)
      Out[I] = loadF64(A.advance(static_cast<std::int64_t>(I) * 8));
  }
  virtual void storeBlockSlow(DeviceAddr A, const double *In,
                              std::uint32_t Count) {
    for (std::uint32_t I = 0; I < Count; ++I)
      storeF64(A.advance(static_cast<std::int64_t>(I) * 8), In[I]);
  }

private:
  [[nodiscard]] bool inWindow(DeviceAddr A, std::uint64_t Bytes) const {
    return A.space() == MemSpace::Global && A.offset() + Bytes <= Window.Cap;
  }

  template <unsigned Size> [[nodiscard]] std::uint64_t load(DeviceAddr A) {
    if (!inWindow(A, Size))
      return loadBits(A, Size);
    std::uint64_t Raw = 0;
    __builtin_memcpy(&Raw, Window.Base + A.offset(), Size);
    Window.Counts->Loads++;
    Window.Counts->BytesRead += Size;
    *Window.Cycles += Window.AccessCost;
    return Raw;
  }

  template <unsigned Size> void store(DeviceAddr A, std::uint64_t Bits) {
    if (!inWindow(A, Size)) {
      storeBits(A, Bits, Size);
      return;
    }
    __builtin_memcpy(Window.Base + A.offset(), &Bits, Size);
    Window.Counts->Stores++;
    Window.Counts->BytesWritten += Size;
    *Window.Cycles += Window.AccessCost;
  }

  static double toF64(std::uint64_t B) {
    double D;
    static_assert(sizeof(D) == sizeof(B));
    __builtin_memcpy(&D, &B, sizeof(D));
    return D;
  }
  static std::uint64_t fromF64(double D) {
    std::uint64_t B;
    __builtin_memcpy(&B, &D, sizeof(B));
    return B;
  }
};

/// A registered native operation.
struct NativeOpInfo {
  std::string Name;
  std::function<void(NativeCtx &)> Fn;
  /// Additional register pressure the native body contributes to the
  /// kernel's register estimate (declared, since the body is opaque).
  unsigned ExtraRegisters = 0;
};

/// Registry of native operations, keyed by dense id (the NativeOp imm).
class NativeRegistry {
public:
  /// Register an operation; returns its id.
  std::int64_t add(NativeOpInfo Info) {
    Ops.push_back(std::move(Info));
    return static_cast<std::int64_t>(Ops.size() - 1);
  }

  /// Look up by id.
  [[nodiscard]] const NativeOpInfo &get(std::int64_t Id) const {
    CODESIGN_ASSERT(Id >= 0 && static_cast<std::size_t>(Id) < Ops.size(),
                    "unknown native op id");
    return Ops[static_cast<std::size_t>(Id)];
  }

  /// Number of registered operations.
  [[nodiscard]] std::size_t size() const { return Ops.size(); }

private:
  std::vector<NativeOpInfo> Ops;
};

} // namespace codesign::vgpu

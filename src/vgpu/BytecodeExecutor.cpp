//===- vgpu/BytecodeExecutor.cpp - Fast-tier team execution ----------------===//
//
// A register-machine VM over vgpu/Bytecode.hpp programs. Semantics are the
// tree interpreter's (Interpreter.cpp), replicated bit for bit: the same
// per-instruction accounting order (budget check, dynamic-instruction
// counter, op-class histogram), the same trap messages, the same barrier
// rendezvous and race-detector shadow protocol, the same value encoding.
// Divergences between the tiers are bugs; the differential tests pin every
// proxy app's outputs, metrics and profiles across both.
//
//===----------------------------------------------------------------------===//
#include "vgpu/BytecodeExecutor.hpp"

#include <atomic>
#include <cstring>
#include <span>
#include <unordered_map>

#include "ir/BasicBlock.hpp"
#include "rt/RuntimeABI.hpp"
#include "vgpu/IntOps.hpp"

namespace codesign::vgpu {

using ir::AtomicOp;
using ir::CmpPred;
using ir::TypeKind;

namespace {

//===----------------------------------------------------------------------===//
// Value encoding (TypeKind flavor of the Interpreter.cpp helpers)
//===----------------------------------------------------------------------===//

std::uint64_t canonIntK(std::uint8_t K, std::uint64_t Bits) {
  switch (static_cast<TypeKind>(K)) {
  case TypeKind::I1:
    return Bits & 1;
  case TypeKind::I32:
    return static_cast<std::uint64_t>(
        static_cast<std::int64_t>(static_cast<std::int32_t>(Bits)));
  default:
    return Bits;
  }
}

bool isIntKind(std::uint8_t K) {
  const auto T = static_cast<TypeKind>(K);
  return T == TypeKind::I1 || T == TypeKind::I32 || T == TypeKind::I64;
}

std::uint64_t canonValK(std::uint8_t K, std::uint64_t Bits) {
  return isIntKind(K) ? canonIntK(K, Bits) : Bits;
}

double decodeFK(std::uint8_t K, std::uint64_t Bits) {
  if (static_cast<TypeKind>(K) == TypeKind::F32) {
    float F;
    std::uint32_t B32 = static_cast<std::uint32_t>(Bits);
    std::memcpy(&F, &B32, sizeof(F));
    return static_cast<double>(F);
  }
  double D;
  std::memcpy(&D, &Bits, sizeof(D));
  return D;
}

std::uint64_t encodeFK(std::uint8_t K, double V) {
  if (static_cast<TypeKind>(K) == TypeKind::F32) {
    const float F = static_cast<float>(V);
    std::uint32_t B32;
    std::memcpy(&B32, &F, sizeof(F));
    return B32;
  }
  std::uint64_t B;
  std::memcpy(&B, &V, sizeof(B));
  return B;
}

std::uint64_t zextToWidthK(std::uint8_t K, std::uint64_t CanonBits) {
  switch (static_cast<TypeKind>(K)) {
  case TypeKind::I1:
    return CanonBits & 1;
  case TypeKind::I32:
    return CanonBits & 0xFFFFFFFFULL;
  default:
    return CanonBits;
  }
}

bool atomicCapable(const std::uint8_t *P, unsigned Size) {
  return (Size == 4 || Size == 8) &&
         reinterpret_cast<std::uintptr_t>(P) % Size == 0;
}

template <typename U, typename Op>
std::uint64_t atomicFetchModify(std::uint8_t *P, Op &&NewBitsFor) {
  std::atomic_ref<U> A(*reinterpret_cast<U *>(P));
  U Old = A.load(std::memory_order_relaxed);
  for (;;) {
    const U New = static_cast<U>(NewBitsFor(static_cast<std::uint64_t>(Old)));
    if (A.compare_exchange_weak(Old, New, std::memory_order_acq_rel,
                                std::memory_order_relaxed))
      return static_cast<std::uint64_t>(Old);
  }
}

template <typename U>
std::uint64_t atomicCas(std::uint8_t *P, std::uint64_t Expected,
                        std::uint64_t Desired) {
  std::atomic_ref<U> A(*reinterpret_cast<U *>(P));
  U Observed = static_cast<U>(Expected);
  A.compare_exchange_strong(Observed, static_cast<U>(Desired),
                            std::memory_order_acq_rel,
                            std::memory_order_relaxed);
  return static_cast<std::uint64_t>(Observed);
}

/// Integer compare on canonical operand bits. Canonical sign-extension is
/// an order-preserving embedding for the unsigned predicates as well, so
/// raw compares suffice (same argument as the tree interpreter's ICmp).
bool evalICmp(CmpPred Pred, std::uint64_t UA, std::uint64_t UB) {
  const std::int64_t A = static_cast<std::int64_t>(UA);
  const std::int64_t B = static_cast<std::int64_t>(UB);
  switch (Pred) {
  case CmpPred::EQ:
    return UA == UB;
  case CmpPred::NE:
    return UA != UB;
  case CmpPred::SLT:
    return A < B;
  case CmpPred::SLE:
    return A <= B;
  case CmpPred::SGT:
    return A > B;
  case CmpPred::SGE:
    return A >= B;
  case CmpPred::ULT:
    return UA < UB;
  case CmpPred::ULE:
    return UA <= UB;
  case CmpPred::UGT:
    return UA > UB;
  case CmpPred::UGE:
    return UA >= UB;
  default:
    CODESIGN_UNREACHABLE("float predicate on icmp");
  }
}

//===----------------------------------------------------------------------===//
// Execution state
//===----------------------------------------------------------------------===//

enum class ThreadStatus : std::uint8_t { Running, AtBarrier, Done, Trapped };

struct BCFrame {
  const BCFunction *BF = nullptr;
  const BCInst *Code = nullptr;
  /// Frame values: [0, NumSlots) are argument/instruction slots, followed by
  /// the function's resolved constant pool. Operand refs index this array
  /// directly, so reads are branchless.
  std::vector<std::uint64_t> Slots;
  std::uint32_t PC = 0;
  std::uint32_t RetPC = 0;             ///< caller's resume PC
  std::uint32_t CallerDst = BCNoSlot;  ///< caller slot for our return value
  std::uint8_t CallerRetTy = 0;        ///< TypeKind of the call result
  std::uint64_t LocalWatermark = 0;
};

/// See Interpreter.cpp — identical shadow protocol.
struct ShadowCell {
  std::uint64_t WriteEpoch = 0;
  std::uint32_t WriteTid = 0;
  std::uint64_t ReadEpoch = 0;
  std::uint32_t ReadTid = 0;
  std::uint32_t ReadTid2 = 0;
  bool MultiRead = false;
};

struct BCThreadState {
  std::uint32_t Tid = 0;
  ThreadStatus Status = ThreadStatus::Running;
  /// Frame stack with recycling: entries [0, Depth) are live; entries past
  /// Depth are retired frames kept as spares so their Slots vectors retain
  /// capacity (no allocation per call once the stack has been this deep).
  std::vector<BCFrame> Frames;
  std::uint32_t Depth = 0;
  const ir::Instruction *BarrierInst = nullptr;
  std::uint64_t Cycles = 0;
  std::uint64_t InstCount = 0;
  std::string TrapMsg;
  BumpArena Local{0};
};

/// Team scratch kept per worker thread and recycled across the teams it
/// runs, as the native backend keeps its HostTeam: once a worker has run
/// one team of a given size, setting up the next allocates nothing. Thread
/// entries past the current team's count are spares that keep their
/// capacity for larger teams. Teams never nest on a thread (native ops
/// cannot launch), so one instance per thread suffices.
struct BCTeamScratch {
  std::vector<BCThreadState> Threads;
  std::vector<std::uint8_t> SharedArena;
  std::vector<std::uint64_t> NativeArgs;
  std::vector<std::uint64_t> PhiBuf; ///< parallel-copy staging buffer
  std::unordered_map<std::uint64_t, ShadowCell> SharedShadow;
};

class BCTeamExecutor {
public:
  BCTeamExecutor(const DeviceConfig &Config, GlobalMemory &GM,
                 const NativeRegistry &Registry, const ModuleImage &Image,
                 const BytecodeModule &BC,
                 const std::vector<std::vector<std::uint64_t>> &Pools,
                 std::uint32_t TeamId, std::uint32_t NumTeams,
                 std::uint32_t NumThreads, const ir::Function *Kernel,
                 std::span<const std::uint64_t> Args, LaunchMetrics &Metrics,
                 LaunchProfile *Profile, BCTeamScratch &Scratch)
      : Config(Config), GM(GM), Registry(Registry), Image(Image), BC(BC),
        Pools(Pools), TeamId(TeamId), NumTeams(NumTeams),
        NumThreads(NumThreads), Metrics(Metrics), Profile(Profile),
        GMBase(GM.data(0, 0)), GMCap(GM.capacity()),
        SharedArena(Scratch.SharedArena), NativeArgScratch(Scratch.NativeArgs),
        SharedShadow(Scratch.SharedShadow), PhiBuf(Scratch.PhiBuf) {
    // The arena grows on demand with zero fill (resolve), so truncating it
    // to the static segment and writing that segment's image is a complete
    // reset: in steady state, one pass over sharedStaticSize() bytes.
    SharedArena.resize(Image.sharedStaticSize());
    Image.initTeamShared(SharedArena.data(), SharedArena.size());
    SharedShadow.clear();
    if (Config.DetectRaces) {
      if (const ir::GlobalVariable *Dummy =
              Image.module().findGlobal(rt::DummyName)) {
        if (Dummy->space() == ir::AddrSpace::Shared) {
          DummyLo = Image.addressOf(Dummy).offset();
          DummyHi = DummyLo + Dummy->sizeBytes();
        }
      }
    }
    const BCFunction *KernelBC = BC.functionFor(Kernel);
    CODESIGN_ASSERT(KernelBC && KernelBC->HasBody,
                    "kernel has no bytecode body");
    if (Scratch.Threads.size() < NumThreads)
      Scratch.Threads.resize(NumThreads);
    Threads = std::span<BCThreadState>(Scratch.Threads.data(), NumThreads);
    const std::vector<std::uint64_t> &Pool = Pools[KernelBC->Index];
    for (std::uint32_t T = 0; T < NumThreads; ++T) {
      BCThreadState &TS = Threads[T];
      TS.Tid = T;
      TS.Status = ThreadStatus::Running;
      TS.BarrierInst = nullptr;
      TS.Cycles = 0;
      TS.InstCount = 0;
      TS.TrapMsg.clear();
      // Fresh local memory reads back zeroed: reset() drops the bytes and
      // regrowth zero-fills only what this team maps.
      TS.Local.reset(Config.LocalMemPerThread);
      // Frames past the kernel frame stay behind as spares.
      if (TS.Frames.empty())
        TS.Frames.emplace_back();
      TS.Depth = 1;
      BCFrame &F = TS.Frames[0];
      F.BF = KernelBC;
      F.Code = KernelBC->Code.data();
      F.PC = KernelBC->Entry;
      F.RetPC = 0;
      F.CallerDst = BCNoSlot;
      F.CallerRetTy = 0;
      F.LocalWatermark = 0;
      F.Slots.assign(KernelBC->NumSlots + Pool.size(), 0);
      std::copy(Pool.begin(), Pool.end(),
                F.Slots.begin() + KernelBC->NumSlots);
      for (unsigned A = 0; A < KernelBC->NumArgs; ++A)
        F.Slots[A] = canonValK(KernelBC->ArgTyKinds[A], Args[A]);
    }
  }

  std::optional<std::string> run() {
    std::optional<std::string> Err = runLoop();
    // Hot counters accumulate in plain members during execution — the shard
    // in the per-team outcome array is adjacent to shards other host threads
    // write, so per-event increments would ping-pong cache lines. One flush
    // when the team retires keeps totals identical to the tree walker's.
    Metrics.DynamicInstructions += Cnt.DynamicInstructions;
    Metrics.GlobalLoads += Cnt.Global.Loads;
    Metrics.GlobalStores += Cnt.Global.Stores;
    Metrics.SharedLoads += Cnt.SharedLoads;
    Metrics.SharedStores += Cnt.SharedStores;
    Metrics.LocalAccesses += Cnt.LocalAccesses;
    Metrics.Atomics += Cnt.Atomics;
    Metrics.Calls += Cnt.Calls;
    Metrics.NativeCycles += Cnt.NativeCycles;
    if (Profile) {
      for (std::size_t K = 0; K < NumOpClasses; ++K)
        Profile->OpCounts[K] += Cnt.Ops[K];
      Profile->GlobalBytesRead += Cnt.Global.BytesRead;
      Profile->GlobalBytesWritten += Cnt.Global.BytesWritten;
      Profile->SharedBytesRead += Cnt.SharedBytesRead;
      Profile->SharedBytesWritten += Cnt.SharedBytesWritten;
    }
    return Err;
  }

  std::optional<std::string> runLoop() {
    for (;;) {
      bool AllDone = true;
      for (BCThreadState &T : Threads) {
        if (T.Status == ThreadStatus::Running)
          stepThread(T);
        if (T.Status == ThreadStatus::Trapped)
          return "thread " + std::to_string(T.Tid) + " of team " +
                 std::to_string(TeamId) + ": " + T.TrapMsg;
        if (T.Status != ThreadStatus::Done)
          AllDone = false;
      }
      if (AllDone)
        break;
      bool AnyAtBarrier = false;
      for (const BCThreadState &T : Threads)
        if (T.Status == ThreadStatus::AtBarrier)
          AnyAtBarrier = true;
      if (!AnyAtBarrier)
        return "team " + std::to_string(TeamId) + ": livelock detected";
      if (auto Err = releaseBarrier())
        return Err;
    }
    for (const BCThreadState &T : Threads)
      TeamCycles = std::max(TeamCycles, T.Cycles);
    return std::nullopt;
  }

  [[nodiscard]] std::uint64_t teamCycles() const { return TeamCycles; }

private:
  //--- Barrier rendezvous ---------------------------------------------------

  std::optional<std::string> releaseBarrier() {
    const ir::Instruction *AlignedAt = nullptr;
    std::uint64_t MaxArrival = 0;
    for (const BCThreadState &T : Threads) {
      if (T.Status != ThreadStatus::AtBarrier)
        continue;
      MaxArrival = std::max(MaxArrival, T.Cycles);
      if (T.BarrierInst->opcode() == ir::Opcode::AlignedBarrier)
        AlignedAt = T.BarrierInst;
    }
    if (Config.DebugChecks && AlignedAt) {
      for (const BCThreadState &T : Threads) {
        if (T.Status != ThreadStatus::AtBarrier)
          continue;
        if (T.BarrierInst != AlignedAt)
          return "team " + std::to_string(TeamId) +
                 ": aligned barrier reached with unaligned threads";
      }
    }
    if (Config.DetectRaces && AlignedAt) {
      for (const BCThreadState &T : Threads)
        if (T.Status == ThreadStatus::Done)
          return "team " + std::to_string(TeamId) +
                 ": divergent aligned barrier (thread " +
                 std::to_string(T.Tid) +
                 " already exited the kernel and can never arrive)";
    }
    Metrics.Barriers++;
    if (Profile)
      for (const BCThreadState &T : Threads)
        if (T.Status == ThreadStatus::AtBarrier)
          Profile->BarrierWaitCycles += MaxArrival - T.Cycles;
    const std::uint64_t Release = MaxArrival + Config.Costs.BarrierCost;
    for (BCThreadState &T : Threads) {
      if (T.Status != ThreadStatus::AtBarrier)
        continue;
      T.Cycles = Release;
      T.Status = ThreadStatus::Running;
      T.Frames[T.Depth - 1].PC++; // resume after the barrier
      T.BarrierInst = nullptr;
    }
    ++BarrierEpoch;
    return std::nullopt;
  }

  //--- Memory ----------------------------------------------------------------

  std::uint8_t *resolve(DeviceAddr A, unsigned Size, BCThreadState &T) {
    switch (A.space()) {
    case MemSpace::Global: {
      // The arena never reallocates during a launch (capacity is fixed at
      // device construction), so the cached base pointer avoids an
      // out-of-line GlobalMemory::data call per access.
      if (A.offset() + Size > GMCap) {
        trap(T, "global access out of bounds");
        return nullptr;
      }
      return GMBase + A.offset();
    }
    case MemSpace::Shared: {
      if (A.offset() + Size > SharedArena.size()) {
        if (A.offset() + Size > Config.SharedMemPerTeam) {
          trap(T, "shared memory access out of bounds");
          return nullptr;
        }
        SharedArena.resize(A.offset() + Size, 0);
      }
      return SharedArena.data() + A.offset();
    }
    case MemSpace::Local: {
      if (Config.DebugChecks && A.owner() != T.Tid) {
        trap(T,
             "cross-thread access to local memory (thread " +
                 std::to_string(T.Tid) + " dereferenced a pointer owned by "
                 "thread " + std::to_string(A.owner()) +
                 "); such variables must be globalized");
        return nullptr;
      }
      return T.Local.data(A.offset(), Size);
    }
    case MemSpace::Invalid:
      trap(T, A.isNull() ? "null pointer dereference"
                         : "dereference of a function address");
      return nullptr;
    }
    CODESIGN_UNREACHABLE("bad memory space");
  }

  void chargeAccess(BCThreadState &T, MemSpace S, bool IsStore, bool IsAtomic,
                    unsigned SizeBytes) {
    const CostModel &C = Config.Costs;
    std::uint64_t Cost = 0;
    switch (S) {
    case MemSpace::Global:
      Cost = IsAtomic ? C.AtomicGlobal : C.GlobalAccess;
      (IsStore ? Cnt.Global.Stores : Cnt.Global.Loads)++;
      (IsStore ? Cnt.Global.BytesWritten : Cnt.Global.BytesRead) += SizeBytes;
      break;
    case MemSpace::Shared:
      Cost = IsAtomic ? C.AtomicShared : C.SharedAccess;
      (IsStore ? Cnt.SharedStores : Cnt.SharedLoads)++;
      (IsStore ? Cnt.SharedBytesWritten : Cnt.SharedBytesRead) += SizeBytes;
      break;
    case MemSpace::Local:
      Cost = C.LocalAccess;
      Cnt.LocalAccesses++;
      break;
    case MemSpace::Invalid:
      break;
    }
    if (IsAtomic)
      Cnt.Atomics++;
    T.Cycles += Cost;
  }

  bool checkSharedAccess(BCThreadState &T, std::uint64_t Off, unsigned Size,
                         bool IsStore) {
    if (Off >= DummyLo && Off + Size <= DummyHi && DummyHi > DummyLo)
      return true;
    for (std::uint64_t B = Off; B < Off + Size; ++B) {
      ShadowCell &Cell = SharedShadow[B];
      if (Cell.WriteEpoch == BarrierEpoch && Cell.WriteTid != T.Tid) {
        trap(T, "shared-memory race: " +
                    std::string(IsStore ? "store" : "load") +
                    " at shared offset " + std::to_string(B) + " by thread " +
                    std::to_string(T.Tid) + " conflicts with a write by "
                    "thread " + std::to_string(Cell.WriteTid) +
                    " in the same barrier interval");
        return false;
      }
      if (IsStore && Cell.ReadEpoch == BarrierEpoch &&
          (Cell.MultiRead || Cell.ReadTid != T.Tid)) {
        const std::uint32_t Reader =
            Cell.ReadTid != T.Tid ? Cell.ReadTid : Cell.ReadTid2;
        trap(T, "shared-memory race: store at shared offset " +
                    std::to_string(B) + " by thread " +
                    std::to_string(T.Tid) + " conflicts with a read by "
                    "thread " + std::to_string(Reader) +
                    " in the same barrier interval");
        return false;
      }
      if (IsStore) {
        Cell.WriteEpoch = BarrierEpoch;
        Cell.WriteTid = T.Tid;
      } else if (Cell.ReadEpoch != BarrierEpoch) {
        Cell.ReadEpoch = BarrierEpoch;
        Cell.ReadTid = T.Tid;
        Cell.MultiRead = false;
      } else if (Cell.ReadTid != T.Tid && !Cell.MultiRead) {
        Cell.ReadTid2 = T.Tid;
        Cell.MultiRead = true;
      }
    }
    return true;
  }

  std::uint64_t loadMemory(DeviceAddr A, std::uint8_t K, unsigned Size,
                           BCThreadState &T) {
    // Global fast path: one bounds check, direct read, local counters. The
    // race detector only shadows shared memory, so it never diverts this.
    if (A.space() == MemSpace::Global && A.offset() + Size <= GMCap) {
      std::uint64_t Raw = 0;
      std::memcpy(&Raw, GMBase + A.offset(), Size);
      Cnt.Global.Loads++;
      Cnt.Global.BytesRead += Size;
      T.Cycles += Config.Costs.GlobalAccess;
      return isIntKind(K) ? canonIntK(K, Raw) : Raw;
    }
    std::uint8_t *P = resolve(A, Size, T);
    if (!P)
      return 0;
    if (Config.DetectRaces && A.space() == MemSpace::Shared &&
        !checkSharedAccess(T, A.offset(), Size, /*IsStore=*/false))
      return 0;
    std::uint64_t Raw = 0;
    std::memcpy(&Raw, P, Size);
    chargeAccess(T, A.space(), /*IsStore=*/false, /*IsAtomic=*/false, Size);
    if (isIntKind(K))
      return canonIntK(K, Raw);
    return Raw;
  }

  void storeMemory(DeviceAddr A, unsigned Size, std::uint64_t Bits,
                   BCThreadState &T) {
    if (A.space() == MemSpace::Global && A.offset() + Size <= GMCap) {
      std::memcpy(GMBase + A.offset(), &Bits, Size);
      Cnt.Global.Stores++;
      Cnt.Global.BytesWritten += Size;
      T.Cycles += Config.Costs.GlobalAccess;
      return;
    }
    std::uint8_t *P = resolve(A, Size, T);
    if (!P)
      return;
    if (Config.DetectRaces && A.space() == MemSpace::Shared &&
        !checkSharedAccess(T, A.offset(), Size, /*IsStore=*/true))
      return;
    std::memcpy(P, &Bits, Size);
    chargeAccess(T, A.space(), /*IsStore=*/true, /*IsAtomic=*/false, Size);
  }

  void trap(BCThreadState &T, std::string Msg) {
    T.Status = ThreadStatus::Trapped;
    T.TrapMsg = std::move(Msg);
  }

  //--- Native operations ------------------------------------------------------

  /// In-bounds global accesses never get here: NativeCtx serves them
  /// inline from the window this context fills in.
  class NativeCtxImpl final : public NativeCtx {
  public:
    NativeCtxImpl(BCTeamExecutor &Exec, BCThreadState &T,
                  const std::uint64_t *Args, unsigned N)
        : Exec(Exec), T(T), Args(Args), N(N) {
      Window = {Exec.GMBase, Exec.GMCap, Exec.Config.Costs.GlobalAccess,
                &T.Cycles, &Exec.Cnt.Global};
    }

    unsigned numArgs() const override { return N; }
    std::uint64_t argBits(unsigned I) const override {
      CODESIGN_ASSERT(I < N, "native arg out of range");
      return Args[I];
    }
    std::uint64_t loadBits(DeviceAddr A, unsigned Size) override {
      std::uint8_t *P = Exec.resolve(A, Size, T);
      if (!P)
        return 0;
      std::uint64_t Raw = 0;
      std::memcpy(&Raw, P, Size);
      Exec.chargeAccess(T, A.space(), false, false, Size);
      return Raw;
    }
    void storeBits(DeviceAddr A, std::uint64_t Bits, unsigned Size) override {
      std::uint8_t *P = Exec.resolve(A, Size, T);
      if (!P)
        return;
      std::memcpy(P, &Bits, Size);
      Exec.chargeAccess(T, A.space(), true, false, Size);
    }
    void chargeCycles(std::uint64_t Cycles) override {
      T.Cycles += Cycles;
      Exec.Cnt.NativeCycles += Cycles;
    }
    void setResultBits(std::uint64_t Bits) override {
      Result = Bits;
      HasResult = true;
    }
    std::uint32_t threadId() const override { return T.Tid; }
    std::uint32_t teamId() const override { return Exec.TeamId; }

    std::uint64_t Result = 0;
    bool HasResult = false;

  protected:
    void loadBlockSlow(DeviceAddr A, double *Out,
                       std::uint32_t Count) override {
      std::uint8_t *P = sharedBlock(A, Count);
      if (!P) {
        NativeCtx::loadBlockSlow(A, Out, Count);
        return;
      }
      std::memcpy(Out, P, static_cast<std::uint64_t>(Count) * 8);
      chargeShared(false, Count);
    }
    void storeBlockSlow(DeviceAddr A, const double *In,
                        std::uint32_t Count) override {
      std::uint8_t *P = sharedBlock(A, Count);
      if (!P) {
        NativeCtx::storeBlockSlow(A, In, Count);
        return;
      }
      std::memcpy(P, In, static_cast<std::uint64_t>(Count) * 8);
      chargeShared(true, Count);
    }

  private:
    /// En-bloc view of Count in-cap shared f64s at A (the arena grows with
    /// zero fill like resolve), or null to take the scalar loop.
    std::uint8_t *sharedBlock(DeviceAddr A, std::uint32_t Count) {
      const std::uint64_t End =
          A.offset() + static_cast<std::uint64_t>(Count) * 8;
      if (A.space() != MemSpace::Shared || End > Exec.Config.SharedMemPerTeam)
        return nullptr;
      if (End > Exec.SharedArena.size())
        Exec.SharedArena.resize(End, 0);
      return Exec.SharedArena.data() + A.offset();
    }
    void chargeShared(bool IsStore, std::uint32_t Count) {
      const std::uint64_t Bytes = static_cast<std::uint64_t>(Count) * 8;
      (IsStore ? Exec.Cnt.SharedStores : Exec.Cnt.SharedLoads) += Count;
      (IsStore ? Exec.Cnt.SharedBytesWritten : Exec.Cnt.SharedBytesRead) +=
          Bytes;
      T.Cycles += Count * Exec.Config.Costs.SharedAccess;
    }

    BCTeamExecutor &Exec;
    BCThreadState &T;
    const std::uint64_t *Args;
    unsigned N;
  };

  //--- The dispatch loop ------------------------------------------------------

  void stepThread(BCThreadState &T);

  const DeviceConfig &Config;
  GlobalMemory &GM;
  const NativeRegistry &Registry;
  const ModuleImage &Image;
  const BytecodeModule &BC;
  const std::vector<std::vector<std::uint64_t>> &Pools;
  std::uint32_t TeamId;
  std::uint32_t NumTeams;
  std::uint32_t NumThreads;
  LaunchMetrics &Metrics;
  LaunchProfile *Profile = nullptr;
  /// Cached global-arena view; the arena is fixed-size for the device's
  /// lifetime, so one pointer serves every access of the launch.
  std::uint8_t *GMBase = nullptr;
  std::uint64_t GMCap = 0;
  // Per-worker scratch (BCTeamScratch), reset for this team.
  std::vector<std::uint8_t> &SharedArena;
  std::vector<std::uint64_t> &NativeArgScratch;
  std::unordered_map<std::uint64_t, ShadowCell> &SharedShadow;
  std::vector<std::uint64_t> &PhiBuf;
  std::span<BCThreadState> Threads;
  /// Hot metric/profile counters, flushed into the shard once in run().
  struct HotCounters {
    std::uint64_t DynamicInstructions = 0;
    std::array<std::uint64_t, NumOpClasses> Ops{};
    GlobalAccessCounts Global;
    std::uint64_t SharedLoads = 0, SharedStores = 0;
    std::uint64_t LocalAccesses = 0, Atomics = 0, Calls = 0;
    std::uint64_t NativeCycles = 0;
    std::uint64_t SharedBytesRead = 0, SharedBytesWritten = 0;
  } Cnt;
  std::uint64_t TeamCycles = 0;
  std::uint64_t BarrierEpoch = 1;
  std::uint64_t DummyLo = 0, DummyHi = 0;
};

void BCTeamExecutor::stepThread(BCThreadState &T) {
  const CostModel &C = Config.Costs;
  const std::uint64_t MaxInst = Config.MaxDynamicInstPerThread;

  while (T.Status == ThreadStatus::Running) {
    BCFrame &F = T.Frames[T.Depth - 1];
    const BCInst &I = F.Code[F.PC];

    const auto Ref = [&](std::uint32_t R) -> std::uint64_t {
      return F.Slots[R];
    };

    // Phi trampolines and structural traps run before any per-instruction
    // accounting, exactly like the tree walker's block-entry handling.
    if (I.Op == BCOp::PhiBundle) {
      const auto &Copies = F.BF->Bundles[static_cast<std::size_t>(I.Imm)];
      PhiBuf.clear();
      for (const BCFunction::PhiCopy &Cp : Copies)
        PhiBuf.push_back(Ref(Cp.Src));
      for (std::size_t Idx = 0; Idx < Copies.size(); ++Idx)
        F.Slots[Copies[Idx].Dst] = PhiBuf[Idx];
      T.Cycles += Copies.size() * C.Alu;
      F.PC = I.T0;
      continue;
    }
    if (I.Op == BCOp::PhiTrap) {
      if (I.Imm == 0) {
        trap(T, "phi has no incoming value for predecessor");
        return;
      }
      if (I.Imm == 2) {
        trap(T, "fell off the end of a basic block");
        return;
      }
      // Mid-block phi: counted like any other dynamic instruction, then
      // rejected.
      if (++T.InstCount > MaxInst) {
        trap(T, "dynamic instruction budget exceeded (runaway kernel?)");
        return;
      }
      Cnt.DynamicInstructions++;
      Cnt.Ops[I.Cls]++;
      trap(T, "phi encountered mid-block");
      return;
    }

    if (++T.InstCount > MaxInst) {
      trap(T, "dynamic instruction budget exceeded (runaway kernel?)");
      return;
    }
    Cnt.DynamicInstructions++;
    Cnt.Ops[I.Cls]++;

    switch (I.Op) {
    //--- Integer arithmetic ---------------------------------------------------
    case BCOp::Add:
    case BCOp::Sub:
    case BCOp::Mul:
    case BCOp::SDiv:
    case BCOp::UDiv:
    case BCOp::SRem:
    case BCOp::URem:
    case BCOp::And:
    case BCOp::Or:
    case BCOp::Xor:
    case BCOp::Shl:
    case BCOp::LShr:
    case BCOp::AShr: {
      const std::uint64_t A = Ref(I.A);
      const std::uint64_t B = Ref(I.B);
      const std::uint64_t UA = zextToWidthK(I.TyKind, A);
      const std::uint64_t UB = zextToWidthK(I.TyKind, B);
      std::uint64_t R = 0;
      std::uint32_t Cost = C.Alu;
      const unsigned ShMask =
          static_cast<TypeKind>(I.TyKind) == TypeKind::I32 ? 31 : 63;
      switch (I.Op) {
      case BCOp::Add:
        R = intops::addWrap(A, B);
        break;
      case BCOp::Sub:
        R = intops::subWrap(A, B);
        break;
      case BCOp::Mul:
        R = intops::mulWrap(A, B);
        Cost = C.Mul;
        break;
      case BCOp::SDiv:
        if (!intops::sdiv(A, B, R)) {
          trap(T, "integer division by zero");
          return;
        }
        Cost = C.Div;
        break;
      case BCOp::UDiv:
        if (!intops::udiv(UA, UB, R)) {
          trap(T, "integer division by zero");
          return;
        }
        Cost = C.Div;
        break;
      case BCOp::SRem:
        if (!intops::srem(A, B, R)) {
          trap(T, "integer remainder by zero");
          return;
        }
        Cost = C.Div;
        break;
      case BCOp::URem:
        if (!intops::urem(UA, UB, R)) {
          trap(T, "integer remainder by zero");
          return;
        }
        Cost = C.Div;
        break;
      case BCOp::And:
        R = A & B;
        break;
      case BCOp::Or:
        R = A | B;
        break;
      case BCOp::Xor:
        R = A ^ B;
        break;
      case BCOp::Shl:
        R = UA << (UB & ShMask);
        break;
      case BCOp::LShr:
        R = UA >> (UB & ShMask);
        break;
      case BCOp::AShr:
        R = intops::ashr(A, static_cast<unsigned>(UB & ShMask));
        break;
      default:
        CODESIGN_UNREACHABLE("not an int binop");
      }
      F.Slots[I.Dst] = canonIntK(I.TyKind, R);
      T.Cycles += Cost;
      break;
    }
    //--- Float arithmetic ------------------------------------------------------
    case BCOp::FAdd:
    case BCOp::FSub:
    case BCOp::FMul:
    case BCOp::FDiv: {
      const double A = decodeFK(I.TyKind, Ref(I.A));
      const double B = decodeFK(I.TyKind, Ref(I.B));
      double R = 0;
      std::uint32_t Cost = C.FAlu;
      switch (I.Op) {
      case BCOp::FAdd:
        R = A + B;
        break;
      case BCOp::FSub:
        R = A - B;
        break;
      case BCOp::FMul:
        R = A * B;
        break;
      case BCOp::FDiv:
        R = A / B;
        Cost = C.FDiv;
        break;
      default:
        CODESIGN_UNREACHABLE("not a float binop");
      }
      F.Slots[I.Dst] = encodeFK(I.TyKind, R);
      T.Cycles += Cost;
      break;
    }
    //--- Compare / select ------------------------------------------------------
    case BCOp::ICmp: {
      F.Slots[I.Dst] =
          evalICmp(static_cast<CmpPred>(I.Pred), Ref(I.A), Ref(I.B)) ? 1 : 0;
      T.Cycles += C.Alu;
      break;
    }
    case BCOp::FCmp: {
      const double A = decodeFK(I.SrcTyKind, Ref(I.A));
      const double B = decodeFK(I.SrcTyKind, Ref(I.B));
      bool R = false;
      switch (static_cast<CmpPred>(I.Pred)) {
      case CmpPred::OEQ:
        R = A == B;
        break;
      case CmpPred::ONE:
        R = A != B;
        break;
      case CmpPred::OLT:
        R = A < B;
        break;
      case CmpPred::OLE:
        R = A <= B;
        break;
      case CmpPred::OGT:
        R = A > B;
        break;
      case CmpPred::OGE:
        R = A >= B;
        break;
      default:
        CODESIGN_UNREACHABLE("int predicate on fcmp");
      }
      F.Slots[I.Dst] = R ? 1 : 0;
      T.Cycles += C.FAlu;
      break;
    }
    case BCOp::Select: {
      F.Slots[I.Dst] = Ref(I.A) ? Ref(I.B) : Ref(I.C);
      T.Cycles += C.Alu;
      break;
    }
    //--- Conversions -----------------------------------------------------------
    case BCOp::ZExt: {
      F.Slots[I.Dst] =
          canonIntK(I.TyKind, zextToWidthK(I.SrcTyKind, Ref(I.A)));
      T.Cycles += C.Alu;
      break;
    }
    case BCOp::SExt:
    case BCOp::Trunc: {
      F.Slots[I.Dst] = canonIntK(I.TyKind, Ref(I.A));
      T.Cycles += C.Alu;
      break;
    }
    case BCOp::SIToFP: {
      F.Slots[I.Dst] = encodeFK(
          I.TyKind,
          static_cast<double>(static_cast<std::int64_t>(Ref(I.A))));
      T.Cycles += C.FAlu;
      break;
    }
    case BCOp::FPToSI: {
      const double D = decodeFK(I.SrcTyKind, Ref(I.A));
      F.Slots[I.Dst] = canonIntK(
          I.TyKind, static_cast<std::uint64_t>(intops::fpToI64(D)));
      T.Cycles += C.FAlu;
      break;
    }
    case BCOp::FPCast: {
      F.Slots[I.Dst] = encodeFK(I.TyKind, decodeFK(I.SrcTyKind, Ref(I.A)));
      T.Cycles += C.FAlu;
      break;
    }
    case BCOp::PtrCast: {
      F.Slots[I.Dst] = Ref(I.A);
      T.Cycles += C.Alu;
      break;
    }
    //--- Memory ----------------------------------------------------------------
    case BCOp::Alloca: {
      const std::uint64_t Off =
          T.Local.allocate(static_cast<std::uint64_t>(I.Imm));
      F.Slots[I.Dst] = DeviceAddr::make(MemSpace::Local, Off,
                                        static_cast<std::uint16_t>(T.Tid))
                           .Bits;
      T.Cycles += C.Alu;
      break;
    }
    case BCOp::Load: {
      const DeviceAddr A(Ref(I.A));
      const std::uint64_t V = loadMemory(A, I.TyKind, I.Size, T);
      if (T.Status != ThreadStatus::Running)
        return;
      F.Slots[I.Dst] = V;
      break;
    }
    case BCOp::Store: {
      const DeviceAddr A(Ref(I.B));
      storeMemory(A, I.Size, Ref(I.A), T);
      if (T.Status != ThreadStatus::Running)
        return;
      break;
    }
    case BCOp::Gep: {
      const DeviceAddr Base(Ref(I.A));
      F.Slots[I.Dst] =
          Base.advance(static_cast<std::int64_t>(Ref(I.B))).Bits;
      T.Cycles += C.Alu;
      break;
    }
    case BCOp::GepLoad: {
      // Fused address compute + load: both components count and charge.
      const DeviceAddr Base(Ref(I.A));
      const DeviceAddr Addr =
          Base.advance(static_cast<std::int64_t>(Ref(I.B)));
      T.Cycles += C.Alu;
      if (++T.InstCount > MaxInst) {
        trap(T, "dynamic instruction budget exceeded (runaway kernel?)");
        return;
      }
      Cnt.DynamicInstructions++;
      Cnt.Ops[static_cast<std::size_t>(OpClass::Memory)]++;
      const std::uint64_t V = loadMemory(Addr, I.TyKind, I.Size, T);
      if (T.Status != ThreadStatus::Running)
        return;
      F.Slots[I.Dst] = V;
      break;
    }
    case BCOp::GepStore: {
      const DeviceAddr Base(Ref(I.A));
      const DeviceAddr Addr =
          Base.advance(static_cast<std::int64_t>(Ref(I.B)));
      T.Cycles += C.Alu;
      if (++T.InstCount > MaxInst) {
        trap(T, "dynamic instruction budget exceeded (runaway kernel?)");
        return;
      }
      Cnt.DynamicInstructions++;
      Cnt.Ops[static_cast<std::size_t>(OpClass::Memory)]++;
      storeMemory(Addr, I.Size, Ref(I.C), T);
      if (T.Status != ThreadStatus::Running)
        return;
      break;
    }
    case BCOp::AtomicRMW: {
      const DeviceAddr A(Ref(I.A));
      const unsigned Size = I.Size;
      std::uint8_t *P = resolve(A, Size, T);
      if (!P)
        return;
      const auto Op = static_cast<AtomicOp>(I.Imm);
      const std::int64_t V = static_cast<std::int64_t>(Ref(I.B));
      const bool IntK = isIntKind(I.TyKind);
      const auto NewBitsFor = [&](std::uint64_t RawOld) {
        const std::uint64_t OldC =
            IntK ? canonIntK(I.TyKind, RawOld) : RawOld;
        const std::int64_t OldS = static_cast<std::int64_t>(OldC);
        std::int64_t New = 0;
        switch (Op) {
        case AtomicOp::Add:
          New = static_cast<std::int64_t>(
              intops::addWrap(OldC, static_cast<std::uint64_t>(V)));
          break;
        case AtomicOp::Max:
          New = std::max(OldS, V);
          break;
        case AtomicOp::Min:
          New = std::min(OldS, V);
          break;
        case AtomicOp::Exchange:
          New = V;
          break;
        }
        return static_cast<std::uint64_t>(New);
      };
      std::uint64_t Raw = 0;
      if (A.space() == MemSpace::Global && atomicCapable(P, Size)) {
        Raw = Size == 4 ? atomicFetchModify<std::uint32_t>(P, NewBitsFor)
                        : atomicFetchModify<std::uint64_t>(P, NewBitsFor);
      } else {
        std::memcpy(&Raw, P, Size);
        const std::uint64_t NewBits = NewBitsFor(Raw);
        std::memcpy(P, &NewBits, Size);
      }
      const std::uint64_t Old = IntK ? canonIntK(I.TyKind, Raw) : Raw;
      chargeAccess(T, A.space(), /*IsStore=*/true, /*IsAtomic=*/true, Size);
      F.Slots[I.Dst] = Old;
      break;
    }
    case BCOp::CmpXchg: {
      const DeviceAddr A(Ref(I.A));
      const unsigned Size = I.Size;
      std::uint8_t *P = resolve(A, Size, T);
      if (!P)
        return;
      const bool IntK = isIntKind(I.TyKind);
      std::uint64_t Raw = 0;
      if (A.space() == MemSpace::Global && atomicCapable(P, Size)) {
        Raw = Size == 4 ? atomicCas<std::uint32_t>(P, Ref(I.B), Ref(I.C))
                        : atomicCas<std::uint64_t>(P, Ref(I.B), Ref(I.C));
      } else {
        std::memcpy(&Raw, P, Size);
        const std::uint64_t OldC = IntK ? canonIntK(I.TyKind, Raw) : Raw;
        if (OldC == Ref(I.B)) {
          const std::uint64_t Desired = Ref(I.C);
          std::memcpy(P, &Desired, Size);
        }
      }
      const std::uint64_t Old = IntK ? canonIntK(I.TyKind, Raw) : Raw;
      chargeAccess(T, A.space(), /*IsStore=*/true, /*IsAtomic=*/true, Size);
      F.Slots[I.Dst] = Old;
      break;
    }
    case BCOp::Malloc: {
      const std::uint64_t Size = Ref(I.A);
      if (Size == 0) {
        F.Slots[I.Dst] = 0;
      } else {
        auto Off = GM.allocate(Size, 16);
        F.Slots[I.Dst] =
            Off ? DeviceAddr::make(MemSpace::Global, *Off).Bits : 0;
      }
      Metrics.DeviceMallocs++;
      T.Cycles += C.MallocCost;
      break;
    }
    case BCOp::Free: {
      const DeviceAddr A(Ref(I.A));
      if (!A.isNull())
        GM.release(A.offset());
      T.Cycles += C.MallocCost / 2;
      break;
    }
    //--- Control flow ----------------------------------------------------------
    case BCOp::Br: {
      F.PC = I.T0;
      T.Cycles += C.Branch;
      continue;
    }
    case BCOp::CondBr: {
      const bool Taken = Ref(I.A) != 0;
      F.PC = Taken ? I.T0 : I.T1;
      T.Cycles += C.Branch;
      continue;
    }
    case BCOp::CmpBr: {
      // Fused compare + conditional branch: both components count.
      const bool R = evalICmp(static_cast<CmpPred>(I.Pred), Ref(I.A),
                              Ref(I.B));
      T.Cycles += C.Alu;
      if (++T.InstCount > MaxInst) {
        trap(T, "dynamic instruction budget exceeded (runaway kernel?)");
        return;
      }
      Cnt.DynamicInstructions++;
      Cnt.Ops[static_cast<std::size_t>(OpClass::ControlFlow)]++;
      F.PC = R ? I.T0 : I.T1;
      T.Cycles += C.Branch;
      continue;
    }
    case BCOp::Ret: {
      const std::uint64_t RetBits = I.A != BCNoRef ? Ref(I.A) : 0;
      const std::uint64_t Watermark = F.LocalWatermark;
      const std::uint32_t CallerDst = F.CallerDst;
      const std::uint8_t RetTy = F.CallerRetTy;
      const std::uint32_t RetPC = F.RetPC;
      --T.Depth; // frame stays behind as a spare (slot storage recycled)
      T.Local.restore(Watermark);
      if (T.Depth == 0) {
        T.Status = ThreadStatus::Done;
        return;
      }
      BCFrame &Caller = T.Frames[T.Depth - 1];
      if (CallerDst != BCNoSlot)
        Caller.Slots[CallerDst] = canonValK(RetTy, RetBits);
      Caller.PC = RetPC;
      T.Cycles += C.Branch;
      continue;
    }
    case BCOp::Unreachable: {
      trap(T, "unreachable executed");
      return;
    }
    case BCOp::Call: {
      const BCFunction *CalleeBC = nullptr;
      const ir::Function *CalleeIR = nullptr;
      if (I.Imm > 0) {
        CalleeBC = &BC.Functions[static_cast<std::size_t>(I.Imm - 1)];
        CalleeIR = CalleeBC->F;
      } else {
        CalleeIR = Image.functionFor(DeviceAddr(Ref(I.A)));
        if (!CalleeIR) {
          trap(T, "indirect call to a non-function address");
          return;
        }
        CalleeBC = BC.functionFor(CalleeIR);
        CODESIGN_ASSERT(CalleeBC, "function missing from bytecode module");
      }
      if (CalleeIR->isDeclaration()) {
        trap(T, "call to unresolved external function '" +
                    CalleeIR->name() + "'");
        return;
      }
      if (CalleeIR->numArgs() != I.T1) {
        trap(T, "indirect call argument count mismatch for '" +
                    CalleeIR->name() + "'");
        return;
      }
      // Everything needed from the caller frame and its instruction is
      // copied to locals BEFORE the stack may grow: emplace_back can
      // reallocate Frames, invalidating F (and any reference derived from
      // it). I stays valid — it points into the function's code array, not
      // into Frames.
      const std::uint32_t RetPC = F.PC + 1;
      const std::uint32_t CallerDst = I.Dst;
      const std::uint8_t CallerRetTy = I.TyKind;
      const std::uint32_t ArgBase = I.T0;
      const std::uint32_t NumCallArgs = I.T1;
      if (T.Frames.size() == T.Depth)
        T.Frames.emplace_back();
      BCFrame &Caller = T.Frames[T.Depth - 1];
      BCFrame &NewF = T.Frames[T.Depth];
      NewF.BF = CalleeBC;
      NewF.Code = CalleeBC->Code.data();
      NewF.PC = CalleeBC->Entry;
      NewF.RetPC = RetPC;
      NewF.CallerDst = CallerDst;
      NewF.CallerRetTy = CallerRetTy;
      const std::vector<std::uint64_t> &CalleePool = Pools[CalleeBC->Index];
      NewF.Slots.assign(CalleeBC->NumSlots + CalleePool.size(), 0);
      std::copy(CalleePool.begin(), CalleePool.end(),
                NewF.Slots.begin() + CalleeBC->NumSlots);
      for (std::uint32_t A = 0; A < NumCallArgs; ++A)
        NewF.Slots[A] = canonValK(CalleeBC->ArgTyKinds[A],
                                  Caller.Slots[Caller.BF->Extras[ArgBase + A]]);
      NewF.LocalWatermark = T.Local.watermark();
      ++T.Depth;
      T.Cycles += C.CallOverhead;
      Cnt.Calls++;
      continue;
    }
    //--- GPU intrinsics --------------------------------------------------------
    case BCOp::ThreadIdOp:
      F.Slots[I.Dst] = T.Tid;
      T.Cycles += C.Alu;
      break;
    case BCOp::BlockIdOp:
      F.Slots[I.Dst] = TeamId;
      T.Cycles += C.Alu;
      break;
    case BCOp::BlockDimOp:
      F.Slots[I.Dst] = NumThreads;
      T.Cycles += C.Alu;
      break;
    case BCOp::GridDimOp:
      F.Slots[I.Dst] = NumTeams;
      T.Cycles += C.Alu;
      break;
    case BCOp::WarpSizeOp:
      F.Slots[I.Dst] = Config.WarpSize;
      T.Cycles += C.Alu;
      break;
    //--- Synchronization -------------------------------------------------------
    case BCOp::BarrierOp:
    case BCOp::AlignedBarrierOp: {
      T.Status = ThreadStatus::AtBarrier;
      T.BarrierInst = I.Src;
      return;
    }
    //--- Metadata --------------------------------------------------------------
    case BCOp::Assume: {
      if (Config.DebugChecks && Ref(I.A) == 0) {
        trap(T, "compiler assumption violated at runtime (in @" +
                    I.Src->function()->name() + ", block '" +
                    I.Src->parent()->name() + "')");
        return;
      }
      break;
    }
    case BCOp::AssertFail: {
      if (Config.DebugChecks && Ref(I.A) == 0) {
        trap(T, "assertion failed: " + I.Src->str());
        return;
      }
      if (Config.DebugChecks)
        T.Cycles += C.Alu;
      break;
    }
    case BCOp::TrapOp: {
      trap(T, "trap executed");
      return;
    }
    case BCOp::NativeCall: {
      // Threads within a team step sequentially and native ops cannot
      // re-enter the dispatch loop, so one scratch buffer per team suffices.
      NativeArgScratch.clear();
      for (std::uint32_t A = 0; A < I.T1; ++A)
        NativeArgScratch.push_back(Ref(F.BF->Extras[I.T0 + A]));
      NativeCtxImpl Ctx(*this, T, NativeArgScratch.data(), I.T1);
      const NativeOpInfo &Info = Registry.get(I.Imm);
      Info.Fn(Ctx);
      if (T.Status != ThreadStatus::Running)
        return;
      if (static_cast<TypeKind>(I.TyKind) != TypeKind::Void) {
        CODESIGN_ASSERT(Ctx.HasResult,
                        "native op did not produce its declared result");
        F.Slots[I.Dst] = canonValK(I.TyKind, Ctx.Result);
      }
      break;
    }
    case BCOp::PhiBundle:
    case BCOp::PhiTrap:
    default:
      // Phi trampolines are handled before accounting and no other
      // encodings exist; an unreachable default lets the compiler emit the
      // dispatch as a dense indexed jump with no range check (the
      // threaded-dispatch equivalent for a single-site interpreter loop).
#ifdef NDEBUG
      __builtin_unreachable();
#else
      CODESIGN_UNREACHABLE("handled before accounting");
#endif
    }
    F.PC++;
  }
}

} // namespace

BCTeamResult runBytecodeTeam(const DeviceConfig &Config, GlobalMemory &GM,
                             const NativeRegistry &Registry,
                             const ModuleImage &Image,
                             const BytecodeModule &BC,
                             const std::vector<std::vector<std::uint64_t>> &Pools,
                             std::uint32_t TeamId, std::uint32_t NumTeams,
                             std::uint32_t NumThreads,
                             const ir::Function *Kernel,
                             std::span<const std::uint64_t> Args,
                             LaunchMetrics &Metrics, LaunchProfile *Profile) {
  thread_local BCTeamScratch Scratch;
  BCTeamExecutor Exec(Config, GM, Registry, Image, BC, Pools, TeamId,
                      NumTeams, NumThreads, Kernel, Args, Metrics, Profile,
                      Scratch);
  BCTeamResult R;
  R.Err = Exec.run();
  R.Cycles = Exec.teamCycles();
  return R;
}

} // namespace codesign::vgpu

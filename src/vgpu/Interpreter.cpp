#include "vgpu/Interpreter.hpp"

#include "vgpu/IntOps.hpp"
#include "vgpu/KernelStats.hpp"

#include <atomic>
#include <cstring>

#include "ir/BasicBlock.hpp"
#include "rt/RuntimeABI.hpp"

namespace codesign::vgpu {

using ir::AtomicOp;
using ir::BasicBlock;
using ir::CmpPred;
using ir::Opcode;
using ir::Type;
using ir::TypeKind;
using ir::ValueKind;

//===----------------------------------------------------------------------===//
// Value encoding helpers
//===----------------------------------------------------------------------===//

namespace {

/// Canonical 64-bit encoding: i1 is 0/1, i32 is sign-extended, i64/ptr raw,
/// f32 keeps its float bits in the low 32 bits, f64 its double bits.
std::uint64_t canonInt(Type Ty, std::uint64_t Bits) {
  switch (Ty.kind()) {
  case TypeKind::I1:
    return Bits & 1;
  case TypeKind::I32:
    return static_cast<std::uint64_t>(
        static_cast<std::int64_t>(static_cast<std::int32_t>(Bits)));
  default:
    return Bits;
  }
}

double decodeF(Type Ty, std::uint64_t Bits) {
  if (Ty.kind() == TypeKind::F32) {
    float F;
    std::uint32_t B32 = static_cast<std::uint32_t>(Bits);
    std::memcpy(&F, &B32, sizeof(F));
    return static_cast<double>(F);
  }
  double D;
  std::memcpy(&D, &Bits, sizeof(D));
  return D;
}

std::uint64_t encodeF(Type Ty, double V) {
  if (Ty.kind() == TypeKind::F32) {
    const float F = static_cast<float>(V);
    std::uint32_t B32;
    std::memcpy(&B32, &F, sizeof(F));
    return B32;
  }
  std::uint64_t B;
  std::memcpy(&B, &V, sizeof(B));
  return B;
}

std::uint64_t zextToWidth(Type Ty, std::uint64_t CanonBits) {
  switch (Ty.kind()) {
  case TypeKind::I1:
    return CanonBits & 1;
  case TypeKind::I32:
    return CanonBits & 0xFFFFFFFFULL;
  default:
    return CanonBits;
  }
}

/// True when host storage P can serve a lock-free atomic of Size bytes.
bool atomicCapable(const std::uint8_t *P, unsigned Size) {
  return (Size == 4 || Size == 8) &&
         reinterpret_cast<std::uintptr_t>(P) % Size == 0;
}

/// Atomically replace the U-sized word at P with NewBitsFor(old); returns
/// the raw old bits (zero-extended). Teams of one launch may contend on
/// the same global-memory word, so the read-modify-write must be a real
/// atomic — a plain load/store pair would tear under the parallel engine.
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

/// Atomic compare-and-swap of the U-sized word at P; returns the observed
/// raw old bits.
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

} // namespace

//===----------------------------------------------------------------------===//
// ModuleImage
//===----------------------------------------------------------------------===//

ModuleImage::ModuleImage(const Module &M, GlobalMemory &GM) : M(M), GM(GM) {
  // Device statics: compute total size, allocate one block, lay out inside.
  std::uint64_t Off = 0;
  std::vector<std::pair<const GlobalVariable *, std::uint64_t>> DeviceStatics;
  for (const auto &G : M.globals()) {
    const std::uint64_t Align = std::max<unsigned>(G->alignment(), 1);
    if (G->space() == ir::AddrSpace::Shared) {
      SharedSize = (SharedSize + Align - 1) & ~(Align - 1);
      GlobalAddrs[G.get()] = DeviceAddr::make(MemSpace::Shared, SharedSize);
      SharedSize += G->sizeBytes();
    } else {
      Off = (Off + Align - 1) & ~(Align - 1);
      DeviceStatics.emplace_back(G.get(), Off);
      Off += G->sizeBytes();
    }
  }
  StaticsSize = Off;
  if (StaticsSize > 0) {
    auto Statics = GM.allocate(StaticsSize, 16);
    CODESIGN_ASSERT(Statics.hasValue(),
                    "device global memory exhausted laying out module statics");
    StaticsOffset = *Statics;
    for (const auto &[G, LocalOff] : DeviceStatics) {
      const std::uint64_t Abs = StaticsOffset + LocalOff;
      GlobalAddrs[G] = DeviceAddr::make(MemSpace::Global, Abs);
      if (!G->initializer().empty())
        GM.write(Abs, G->initializer());
      else
        std::memset(GM.data(Abs, G->sizeBytes()), 0, G->sizeBytes());
    }
  }
  // Shared-segment initializer template.
  SharedInit.assign(SharedSize, 0);
  for (const auto &G : M.globals()) {
    if (G->space() != ir::AddrSpace::Shared || G->initializer().empty())
      continue;
    const std::uint64_t SOff = GlobalAddrs.at(G.get()).offset();
    std::memcpy(SharedInit.data() + SOff, G->initializer().data(),
                G->initializer().size());
  }
  // Function addresses for indirect calls: tag Invalid, offset index+1.
  for (const auto &F : M.functions()) {
    FunctionIndex[F.get()] =
        static_cast<std::uint32_t>(FunctionsByIndex.size());
    FunctionsByIndex.push_back(F.get());
  }
  // Precompute every function's slot layout now so that layout() is a pure
  // read — team executors running on parallel launch threads query it
  // concurrently.
  for (const auto &F : M.functions()) {
    FunctionLayout L;
    for (const auto &A : F->args())
      L.Slots[A.get()] = L.NumSlots++;
    for (const auto &BB : F->blocks())
      for (const auto &I : BB->instructions())
        if (!I->type().isVoid())
          L.Slots[I.get()] = L.NumSlots++;
    Layouts.emplace(F.get(), std::move(L));
  }
}

ModuleImage::~ModuleImage() {
  if (StaticsSize > 0)
    GM.release(StaticsOffset);
}

DeviceAddr ModuleImage::addressOf(const GlobalVariable *G) const {
  auto It = GlobalAddrs.find(G);
  CODESIGN_ASSERT(It != GlobalAddrs.end(), "global not in image");
  return It->second;
}

void ModuleImage::initTeamShared(std::uint8_t *Arena,
                                 std::uint64_t Bytes) const {
  CODESIGN_ASSERT(Bytes >= SharedSize, "shared arena too small");
  if (SharedSize > 0)
    std::memcpy(Arena, SharedInit.data(), SharedSize);
  if (Bytes > SharedSize)
    std::memset(Arena + SharedSize, 0, Bytes - SharedSize);
}

KernelStaticStats
ModuleImage::kernelStats(const Function *Kernel,
                         const NativeRegistry &Registry) const {
  {
    std::lock_guard<std::mutex> Lock(StatsMutex);
    for (const StatsEntry &E : StatsMemo)
      if (E.Kernel == Kernel && E.Registry == &Registry)
        return E.Stats;
  }
  // Computed outside the lock; racing first launches may both compute the
  // same deterministic value.
  const KernelStaticStats Stats = computeKernelStats(*Kernel, Registry);
  std::lock_guard<std::mutex> Lock(StatsMutex);
  StatsMemo.push_back({Kernel, &Registry, Stats});
  return Stats;
}

DeviceAddr ModuleImage::functionAddress(const Function *F) const {
  auto It = FunctionIndex.find(F);
  CODESIGN_ASSERT(It != FunctionIndex.end(), "function not in image");
  return DeviceAddr::make(MemSpace::Invalid, It->second + 1);
}

const Function *ModuleImage::functionFor(DeviceAddr A) const {
  if (A.space() != MemSpace::Invalid || A.isNull())
    return nullptr;
  const std::uint64_t Idx = A.offset() - 1;
  if (Idx >= FunctionsByIndex.size())
    return nullptr;
  return FunctionsByIndex[Idx];
}

const ModuleImage::FunctionLayout &
ModuleImage::layout(const Function *F) const {
  auto It = Layouts.find(F);
  CODESIGN_ASSERT(It != Layouts.end(), "function not in image");
  return It->second;
}

//===----------------------------------------------------------------------===//
// Team execution
//===----------------------------------------------------------------------===//

namespace {

enum class ThreadStatus : std::uint8_t { Running, AtBarrier, Done, Trapped };

struct Frame {
  const Function *Fn = nullptr;
  const ModuleImage::FunctionLayout *Layout = nullptr;
  const BasicBlock *Block = nullptr;
  std::size_t InstIdx = 0;
  const BasicBlock *PrevBlock = nullptr;
  std::vector<std::uint64_t> Slots;
  std::uint64_t LocalWatermark = 0;
  /// The call instruction in the *caller* frame awaiting our return value.
  const Instruction *CallSite = nullptr;
};

/// Per-byte shadow state for the dynamic race detector: who last wrote and
/// last read this shared byte, and in which barrier epoch. Two plain
/// accesses from different threads in the same epoch with at least one
/// write have no happens-before edge (every barrier is a team-wide
/// rendezvous in this interpreter, so epochs are exactly the HB order).
struct ShadowCell {
  std::uint64_t WriteEpoch = 0;
  std::uint32_t WriteTid = 0;
  std::uint64_t ReadEpoch = 0;
  std::uint32_t ReadTid = 0;
  std::uint32_t ReadTid2 = 0; ///< a second distinct reader (when MultiRead)
  bool MultiRead = false;     ///< >1 distinct readers this epoch
};

struct ThreadState {
  std::uint32_t Tid = 0;
  ThreadStatus Status = ThreadStatus::Running;
  std::vector<Frame> Frames;
  const Instruction *BarrierInst = nullptr;
  std::uint64_t Cycles = 0;
  std::uint64_t InstCount = 0;
  std::string TrapMsg;
  BumpArena Local;

  explicit ThreadState(std::uint64_t LocalCap) : Local(LocalCap) {}
};

class TeamExecutor {
public:
  TeamExecutor(const DeviceConfig &Config, GlobalMemory &GM,
               const NativeRegistry &Registry, const ModuleImage &Image,
               std::uint32_t TeamId, std::uint32_t NumTeams,
               std::uint32_t NumThreads, const Function *Kernel,
               std::span<const std::uint64_t> Args, LaunchMetrics &Metrics,
               LaunchProfile *Profile = nullptr)
      : Config(Config), GM(GM), Registry(Registry), Image(Image),
        TeamId(TeamId), NumTeams(NumTeams), NumThreads(NumThreads),
        Metrics(Metrics), Profile(Profile) {
    SharedArena.resize(
        std::max<std::uint64_t>(Image.sharedStaticSize(), 1), 0);
    Image.initTeamShared(SharedArena);
    if (Config.DetectRaces) {
      // The conditional-write dummy absorbs every thread's non-selected
      // stores by design (Figure 7b); its write-write collisions are benign
      // and never read back, so its byte range is exempt from shadowing.
      if (const ir::GlobalVariable *Dummy =
              Image.module().findGlobal(rt::DummyName)) {
        if (Dummy->space() == ir::AddrSpace::Shared) {
          DummyLo = Image.addressOf(Dummy).offset();
          DummyHi = DummyLo + Dummy->sizeBytes();
        }
      }
    }
    Threads.reserve(NumThreads);
    for (std::uint32_t T = 0; T < NumThreads; ++T) {
      Threads.emplace_back(Config.LocalMemPerThread);
      ThreadState &TS = Threads.back();
      TS.Tid = T;
      Frame F;
      F.Fn = Kernel;
      F.Layout = &Image.layout(Kernel);
      F.Block = Kernel->entry();
      F.Slots.resize(F.Layout->NumSlots, 0);
      for (unsigned A = 0; A < Kernel->numArgs(); ++A)
        F.Slots[F.Layout->Slots.at(Kernel->arg(A))] =
            canonValue(Kernel->arg(A)->type(), Args[A]);
      TS.Frames.push_back(std::move(F));
    }
  }

  /// Run the team to completion. Returns an error message on trap/deadlock.
  std::optional<std::string> run() {
    for (;;) {
      bool AllDone = true;
      for (ThreadState &T : Threads) {
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
      // Every live thread is now blocked at a barrier: rendezvous.
      bool AnyAtBarrier = false;
      for (const ThreadState &T : Threads)
        if (T.Status == ThreadStatus::AtBarrier)
          AnyAtBarrier = true;
      if (!AnyAtBarrier)
        return "team " + std::to_string(TeamId) + ": livelock detected";
      if (auto Err = releaseBarrier())
        return Err;
    }
    for (const ThreadState &T : Threads)
      TeamCycles = std::max(TeamCycles, T.Cycles);
    return std::nullopt;
  }

  [[nodiscard]] std::uint64_t teamCycles() const { return TeamCycles; }

private:
  //--- Barrier rendezvous ---------------------------------------------------

  std::optional<std::string> releaseBarrier() {
    // Debug semantics: if any arrival is at an *aligned* barrier, all live
    // threads must sit at the same instruction (paper Section III-G's
    // runtime invariant verification).
    const Instruction *AlignedAt = nullptr;
    std::uint64_t MaxArrival = 0;
    for (const ThreadState &T : Threads) {
      if (T.Status != ThreadStatus::AtBarrier)
        continue;
      MaxArrival = std::max(MaxArrival, T.Cycles);
      if (T.BarrierInst->opcode() == Opcode::AlignedBarrier)
        AlignedAt = T.BarrierInst;
    }
    if (Config.DebugChecks && AlignedAt) {
      for (const ThreadState &T : Threads) {
        if (T.Status != ThreadStatus::AtBarrier)
          continue;
        if (T.BarrierInst != AlignedAt)
          return "team " + std::to_string(TeamId) +
                 ": aligned barrier reached with unaligned threads";
      }
    }
    if (Config.DetectRaces && AlignedAt) {
      // An aligned barrier promises that *every* thread of the team
      // arrives; a thread that already returned from the kernel can never
      // rendezvous, i.e. the barrier sits under divergent control. Real
      // hardware hangs here — report instead.
      for (const ThreadState &T : Threads)
        if (T.Status == ThreadStatus::Done)
          return "team " + std::to_string(TeamId) +
                 ": divergent aligned barrier (thread " +
                 std::to_string(T.Tid) +
                 " already exited the kernel and can never arrive)";
    }
    Metrics.Barriers++;
    if (Profile)
      for (const ThreadState &T : Threads)
        if (T.Status == ThreadStatus::AtBarrier)
          Profile->BarrierWaitCycles += MaxArrival - T.Cycles;
    const std::uint64_t Release = MaxArrival + Config.Costs.BarrierCost;
    for (ThreadState &T : Threads) {
      if (T.Status != ThreadStatus::AtBarrier)
        continue;
      T.Cycles = Release;
      T.Status = ThreadStatus::Running;
      T.Frames.back().InstIdx++; // resume after the barrier
      T.BarrierInst = nullptr;
    }
    ++BarrierEpoch; // the rendezvous orders all prior accesses before all
                    // later ones: open a new happens-before interval
    return std::nullopt;
  }

  //--- Value plumbing ----------------------------------------------------------

  std::uint64_t canonValue(Type Ty, std::uint64_t Bits) const {
    if (Ty.isInteger())
      return canonInt(Ty, Bits);
    return Bits;
  }

  std::uint64_t operandValue(const Value *V, const Frame &F) const {
    switch (V->kind()) {
    case ValueKind::Instruction:
    case ValueKind::Argument:
      return F.Slots[F.Layout->Slots.at(V)];
    case ValueKind::ConstantInt:
      return canonInt(V->type(),
                      static_cast<std::uint64_t>(
                          ir::cast<ir::ConstantInt>(V)->value()));
    case ValueKind::ConstantFP:
      return encodeF(V->type(), ir::cast<ir::ConstantFP>(V)->value());
    case ValueKind::ConstantNull:
      return 0;
    case ValueKind::Undef:
      return 0;
    case ValueKind::GlobalVariable:
      return Image.addressOf(ir::cast<ir::GlobalVariable>(V)).Bits;
    case ValueKind::Function:
      return Image.functionAddress(Function::fromValue(V)).Bits;
    }
    CODESIGN_UNREACHABLE("unknown value kind");
  }

  void setResult(const Instruction *I, Frame &F, std::uint64_t Bits) {
    F.Slots[F.Layout->Slots.at(I)] = Bits;
  }

  //--- Memory ------------------------------------------------------------------

  /// Resolve a device address to host storage; traps return null and set
  /// the thread's message.
  std::uint8_t *resolve(DeviceAddr A, unsigned Size, ThreadState &T) {
    switch (A.space()) {
    case MemSpace::Global: {
      if (A.offset() + Size > GM.capacity()) {
        trap(T, "global access out of bounds");
        return nullptr;
      }
      return GM.data(A.offset(), Size);
    }
    case MemSpace::Shared: {
      if (A.offset() + Size > SharedArena.size()) {
        // Grow: dynamic shared memory region beyond statics.
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

  void chargeAccess(ThreadState &T, MemSpace S, bool IsStore, bool IsAtomic,
                    unsigned SizeBytes) {
    const CostModel &C = Config.Costs;
    std::uint64_t Cost = 0;
    switch (S) {
    case MemSpace::Global:
      Cost = IsAtomic ? C.AtomicGlobal : C.GlobalAccess;
      (IsStore ? Metrics.GlobalStores : Metrics.GlobalLoads)++;
      if (Profile)
        (IsStore ? Profile->GlobalBytesWritten : Profile->GlobalBytesRead) +=
            SizeBytes;
      break;
    case MemSpace::Shared:
      Cost = IsAtomic ? C.AtomicShared : C.SharedAccess;
      (IsStore ? Metrics.SharedStores : Metrics.SharedLoads)++;
      if (Profile)
        (IsStore ? Profile->SharedBytesWritten : Profile->SharedBytesRead) +=
            SizeBytes;
      break;
    case MemSpace::Local:
      Cost = C.LocalAccess;
      Metrics.LocalAccesses++;
      break;
    case MemSpace::Invalid:
      break;
    }
    if (IsAtomic)
      Metrics.Atomics++;
    T.Cycles += Cost;
  }

  /// Dynamic race check for a plain shared-memory access. Returns false
  /// (after trapping T) when the access races with an earlier one in the
  /// same barrier epoch. Atomics are intended synchronization and bypass
  /// this; so does the conditional-write dummy's byte range.
  bool checkSharedAccess(ThreadState &T, std::uint64_t Off, unsigned Size,
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

  std::uint64_t loadMemory(DeviceAddr A, Type Ty, ThreadState &T) {
    const unsigned Size = Ty.sizeInBytes();
    std::uint8_t *P = resolve(A, Size, T);
    if (!P)
      return 0;
    if (Config.DetectRaces && A.space() == MemSpace::Shared &&
        !checkSharedAccess(T, A.offset(), Size, /*IsStore=*/false))
      return 0;
    std::uint64_t Raw = 0;
    std::memcpy(&Raw, P, Size);
    chargeAccess(T, A.space(), /*IsStore=*/false, /*IsAtomic=*/false, Size);
    if (Ty.isInteger())
      return canonInt(Ty, Raw);
    return Raw;
  }

  void storeMemory(DeviceAddr A, Type Ty, std::uint64_t Bits, ThreadState &T) {
    const unsigned Size = Ty.sizeInBytes();
    std::uint8_t *P = resolve(A, Size, T);
    if (!P)
      return;
    if (Config.DetectRaces && A.space() == MemSpace::Shared &&
        !checkSharedAccess(T, A.offset(), Size, /*IsStore=*/true))
      return;
    std::memcpy(P, &Bits, Size);
    chargeAccess(T, A.space(), /*IsStore=*/true, /*IsAtomic=*/false, Size);
  }

  void trap(ThreadState &T, std::string Msg) {
    T.Status = ThreadStatus::Trapped;
    T.TrapMsg = std::move(Msg);
  }

  //--- Native operations --------------------------------------------------------

  class NativeCtxImpl final : public NativeCtx {
  public:
    NativeCtxImpl(TeamExecutor &Exec, ThreadState &T,
                  std::vector<std::uint64_t> Args)
        : Exec(Exec), T(T), Args(std::move(Args)) {}

    unsigned numArgs() const override {
      return static_cast<unsigned>(Args.size());
    }
    std::uint64_t argBits(unsigned I) const override {
      CODESIGN_ASSERT(I < Args.size(), "native arg out of range");
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
      Exec.Metrics.NativeCycles += Cycles;
    }
    void setResultBits(std::uint64_t Bits) override {
      Result = Bits;
      HasResult = true;
    }
    std::uint32_t threadId() const override { return T.Tid; }
    std::uint32_t teamId() const override { return Exec.TeamId; }

    std::uint64_t Result = 0;
    bool HasResult = false;

  private:
    TeamExecutor &Exec;
    ThreadState &T;
    std::vector<std::uint64_t> Args;
  };

  //--- The interpreter loop ------------------------------------------------------

  /// Run T until it blocks at a barrier, returns from the kernel, or traps.
  void stepThread(ThreadState &T);

  /// Execute leading phis of the current block as a parallel assignment.
  void executePhis(ThreadState &T, Frame &F) {
    std::vector<std::pair<const Instruction *, std::uint64_t>> Results;
    std::size_t Idx = 0;
    while (Idx < F.Block->size() &&
           F.Block->inst(Idx)->opcode() == Opcode::Phi) {
      const Instruction *Phi = F.Block->inst(Idx);
      const Value *In = Phi->incomingFor(F.PrevBlock);
      if (!In) {
        trap(T, "phi has no incoming value for predecessor");
        return;
      }
      Results.emplace_back(Phi, operandValue(In, F));
      ++Idx;
    }
    for (const auto &[Phi, Bits] : Results)
      setResult(Phi, F, Bits);
    F.InstIdx = Idx;
    T.Cycles += Results.size() * Config.Costs.Alu;
  }

  const DeviceConfig &Config;
  GlobalMemory &GM;
  const NativeRegistry &Registry;
  const ModuleImage &Image;
  std::uint32_t TeamId;
  std::uint32_t NumTeams;
  std::uint32_t NumThreads;
  LaunchMetrics &Metrics;
  LaunchProfile *Profile = nullptr;
  std::vector<std::uint8_t> SharedArena;
  std::vector<ThreadState> Threads;
  std::uint64_t TeamCycles = 0;
  // Dynamic race detector state (only touched when Config.DetectRaces).
  // Epochs start at 1 so a zero-initialized ShadowCell never matches.
  std::uint64_t BarrierEpoch = 1;
  std::unordered_map<std::uint64_t, ShadowCell> SharedShadow;
  std::uint64_t DummyLo = 0, DummyHi = 0;
};

/// Coarse classification for the launch profile's op-class histogram.
OpClass classifyOpcode(Opcode Op) {
  switch (Op) {
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::Shl:
  case Opcode::LShr:
  case Opcode::AShr:
  case Opcode::ICmp:
  case Opcode::Select:
  case Opcode::ZExt:
  case Opcode::SExt:
  case Opcode::Trunc:
  case Opcode::PtrToInt:
  case Opcode::IntToPtr:
    return OpClass::IntAlu;
  case Opcode::Mul:
  case Opcode::SDiv:
  case Opcode::UDiv:
  case Opcode::SRem:
  case Opcode::URem:
    return OpClass::IntMulDiv;
  case Opcode::FAdd:
  case Opcode::FSub:
  case Opcode::FMul:
  case Opcode::FDiv:
  case Opcode::FCmp:
  case Opcode::SIToFP:
  case Opcode::FPToSI:
  case Opcode::FPCast:
    return OpClass::Float;
  case Opcode::Alloca:
  case Opcode::Load:
  case Opcode::Store:
  case Opcode::Gep:
  case Opcode::Malloc:
  case Opcode::Free:
    return OpClass::Memory;
  case Opcode::AtomicRMW:
  case Opcode::CmpXchg:
    return OpClass::Atomic;
  case Opcode::Br:
  case Opcode::CondBr:
  case Opcode::Ret:
  case Opcode::Unreachable:
  case Opcode::Phi:
    return OpClass::ControlFlow;
  case Opcode::Call:
    return OpClass::Call;
  case Opcode::ThreadId:
  case Opcode::BlockId:
  case Opcode::BlockDim:
  case Opcode::GridDim:
  case Opcode::WarpSize:
    return OpClass::Intrinsic;
  case Opcode::Barrier:
  case Opcode::AlignedBarrier:
    return OpClass::Sync;
  case Opcode::Assume:
  case Opcode::AssertFail:
  case Opcode::Trap:
    return OpClass::Meta;
  case Opcode::NativeOp:
    return OpClass::Native;
  }
  CODESIGN_UNREACHABLE("unknown opcode");
}

void TeamExecutor::stepThread(ThreadState &T) {
  const CostModel &C = Config.Costs;
  while (T.Status == ThreadStatus::Running) {
    Frame &F = T.Frames.back();
    if (F.InstIdx == 0 && !F.Block->empty() &&
        F.Block->inst(0)->opcode() == Opcode::Phi) {
      executePhis(T, F);
      if (T.Status != ThreadStatus::Running)
        return;
      continue;
    }
    if (F.InstIdx >= F.Block->size()) {
      trap(T, "fell off the end of a basic block");
      return;
    }
    const Instruction *I = F.Block->inst(F.InstIdx);
    if (++T.InstCount > Config.MaxDynamicInstPerThread) {
      trap(T, "dynamic instruction budget exceeded (runaway kernel?)");
      return;
    }
    Metrics.DynamicInstructions++;
    if (Profile)
      Profile->OpCounts[static_cast<std::size_t>(classifyOpcode(
          I->opcode()))]++;

    auto opI = [&](unsigned Idx) { return operandValue(I->operand(Idx), F); };

    switch (I->opcode()) {
    //--- Integer arithmetic ---------------------------------------------------
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Mul:
    case Opcode::SDiv:
    case Opcode::UDiv:
    case Opcode::SRem:
    case Opcode::URem:
    case Opcode::And:
    case Opcode::Or:
    case Opcode::Xor:
    case Opcode::Shl:
    case Opcode::LShr:
    case Opcode::AShr: {
      const Type Ty = I->type();
      // Canonical (sign-extended) and width-adjusted (zero-extended)
      // operand views. All arithmetic runs through intops:: so signed
      // overflow and INT64_MIN / -1 have the defined wrapping semantics
      // shared with the bytecode tier (DESIGN.md section 5).
      const std::uint64_t A = opI(0);
      const std::uint64_t B = opI(1);
      const std::uint64_t UA = zextToWidth(Ty, A);
      const std::uint64_t UB = zextToWidth(Ty, B);
      std::uint64_t R = 0;
      std::uint32_t Cost = C.Alu;
      const unsigned ShMask = Ty.kind() == TypeKind::I32 ? 31 : 63;
      switch (I->opcode()) {
      case Opcode::Add:
        R = intops::addWrap(A, B);
        break;
      case Opcode::Sub:
        R = intops::subWrap(A, B);
        break;
      case Opcode::Mul:
        R = intops::mulWrap(A, B);
        Cost = C.Mul;
        break;
      case Opcode::SDiv:
        if (!intops::sdiv(A, B, R)) {
          trap(T, "integer division by zero");
          return;
        }
        Cost = C.Div;
        break;
      case Opcode::UDiv:
        if (!intops::udiv(UA, UB, R)) {
          trap(T, "integer division by zero");
          return;
        }
        Cost = C.Div;
        break;
      case Opcode::SRem:
        if (!intops::srem(A, B, R)) {
          trap(T, "integer remainder by zero");
          return;
        }
        Cost = C.Div;
        break;
      case Opcode::URem:
        if (!intops::urem(UA, UB, R)) {
          trap(T, "integer remainder by zero");
          return;
        }
        Cost = C.Div;
        break;
      case Opcode::And:
        R = A & B;
        break;
      case Opcode::Or:
        R = A | B;
        break;
      case Opcode::Xor:
        R = A ^ B;
        break;
      case Opcode::Shl:
        R = UA << (UB & ShMask);
        break;
      case Opcode::LShr:
        R = UA >> (UB & ShMask);
        break;
      case Opcode::AShr:
        R = intops::ashr(A, static_cast<unsigned>(UB & ShMask));
        break;
      default:
        CODESIGN_UNREACHABLE("not an int binop");
      }
      setResult(I, F, canonInt(Ty, R));
      T.Cycles += Cost;
      break;
    }
    //--- Float arithmetic ------------------------------------------------------
    case Opcode::FAdd:
    case Opcode::FSub:
    case Opcode::FMul:
    case Opcode::FDiv: {
      const Type Ty = I->type();
      const double A = decodeF(Ty, opI(0));
      const double B = decodeF(Ty, opI(1));
      double R = 0;
      std::uint32_t Cost = C.FAlu;
      switch (I->opcode()) {
      case Opcode::FAdd:
        R = A + B;
        break;
      case Opcode::FSub:
        R = A - B;
        break;
      case Opcode::FMul:
        R = A * B;
        break;
      case Opcode::FDiv:
        R = A / B;
        Cost = C.FDiv;
        break;
      default:
        CODESIGN_UNREACHABLE("not a float binop");
      }
      setResult(I, F, encodeF(Ty, R));
      T.Cycles += Cost;
      break;
    }
    //--- Compare / select ------------------------------------------------------
    case Opcode::ICmp: {
      const std::int64_t A = static_cast<std::int64_t>(opI(0));
      const std::int64_t B = static_cast<std::int64_t>(opI(1));
      const std::uint64_t UA = opI(0), UB = opI(1);
      bool R = false;
      switch (I->pred()) {
      case CmpPred::EQ:
        R = UA == UB;
        break;
      case CmpPred::NE:
        R = UA != UB;
        break;
      case CmpPred::SLT:
        R = A < B;
        break;
      case CmpPred::SLE:
        R = A <= B;
        break;
      case CmpPred::SGT:
        R = A > B;
        break;
      case CmpPred::SGE:
        R = A >= B;
        break;
      // Canonical sign-extension is an order-preserving embedding for the
      // unsigned predicates as well (see tests), so raw compares suffice.
      case CmpPred::ULT:
        R = UA < UB;
        break;
      case CmpPred::ULE:
        R = UA <= UB;
        break;
      case CmpPred::UGT:
        R = UA > UB;
        break;
      case CmpPred::UGE:
        R = UA >= UB;
        break;
      default:
        CODESIGN_UNREACHABLE("float predicate on icmp");
      }
      setResult(I, F, R ? 1 : 0);
      T.Cycles += C.Alu;
      break;
    }
    case Opcode::FCmp: {
      const Type Ty = I->operand(0)->type();
      const double A = decodeF(Ty, opI(0));
      const double B = decodeF(Ty, opI(1));
      bool R = false;
      switch (I->pred()) {
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
      setResult(I, F, R ? 1 : 0);
      T.Cycles += C.FAlu;
      break;
    }
    case Opcode::Select: {
      setResult(I, F, opI(0) ? opI(1) : opI(2));
      T.Cycles += C.Alu;
      break;
    }
    //--- Conversions -------------------------------------------------------------
    case Opcode::ZExt: {
      setResult(I, F,
                canonInt(I->type(), zextToWidth(I->operand(0)->type(), opI(0))));
      T.Cycles += C.Alu;
      break;
    }
    case Opcode::SExt: {
      setResult(I, F, canonInt(I->type(), opI(0)));
      T.Cycles += C.Alu;
      break;
    }
    case Opcode::Trunc: {
      setResult(I, F, canonInt(I->type(), opI(0)));
      T.Cycles += C.Alu;
      break;
    }
    case Opcode::SIToFP: {
      setResult(I, F,
                encodeF(I->type(),
                        static_cast<double>(static_cast<std::int64_t>(opI(0)))));
      T.Cycles += C.FAlu;
      break;
    }
    case Opcode::FPToSI: {
      const double D = decodeF(I->operand(0)->type(), opI(0));
      setResult(I, F,
                canonInt(I->type(),
                         static_cast<std::uint64_t>(intops::fpToI64(D))));
      T.Cycles += C.FAlu;
      break;
    }
    case Opcode::FPCast: {
      setResult(I, F,
                encodeF(I->type(), decodeF(I->operand(0)->type(), opI(0))));
      T.Cycles += C.FAlu;
      break;
    }
    case Opcode::PtrToInt:
    case Opcode::IntToPtr: {
      setResult(I, F, opI(0));
      T.Cycles += C.Alu;
      break;
    }
    //--- Memory ------------------------------------------------------------------
    case Opcode::Alloca: {
      const std::uint64_t Off =
          T.Local.allocate(static_cast<std::uint64_t>(I->imm()));
      setResult(I, F,
                DeviceAddr::make(MemSpace::Local, Off,
                                 static_cast<std::uint16_t>(T.Tid))
                    .Bits);
      T.Cycles += C.Alu;
      break;
    }
    case Opcode::Load: {
      const DeviceAddr A(opI(0));
      const std::uint64_t V = loadMemory(A, I->type(), T);
      if (T.Status != ThreadStatus::Running)
        return;
      setResult(I, F, V);
      break;
    }
    case Opcode::Store: {
      const DeviceAddr A(opI(1));
      storeMemory(A, I->operand(0)->type(), opI(0), T);
      if (T.Status != ThreadStatus::Running)
        return;
      break;
    }
    case Opcode::Gep: {
      const DeviceAddr Base(opI(0));
      setResult(I, F, Base.advance(static_cast<std::int64_t>(opI(1))).Bits);
      T.Cycles += C.Alu;
      break;
    }
    case Opcode::AtomicRMW: {
      const DeviceAddr A(opI(0));
      const Type Ty = I->type();
      const unsigned Size = Ty.sizeInBytes();
      std::uint8_t *P = resolve(A, Size, T);
      if (!P)
        return;
      const AtomicOp Op = I->atomicOp();
      const std::int64_t V = static_cast<std::int64_t>(opI(1));
      const auto NewBitsFor = [&](std::uint64_t RawOld) {
        const std::uint64_t OldC = Ty.isInteger() ? canonInt(Ty, RawOld)
                                                  : RawOld;
        const std::int64_t OldS = static_cast<std::int64_t>(OldC);
        std::int64_t New = 0;
        switch (Op) {
        case AtomicOp::Add:
          // Wrapping add (signed overflow on int64 would be UB).
          New = static_cast<std::int64_t>(intops::addWrap(
              OldC, static_cast<std::uint64_t>(V)));
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
        // Teams in other launch threads may hit the same word: take the
        // real atomic path.
        Raw = Size == 4 ? atomicFetchModify<std::uint32_t>(P, NewBitsFor)
                        : atomicFetchModify<std::uint64_t>(P, NewBitsFor);
      } else {
        // Shared/local memory is team-private; a plain RMW is race-free.
        std::memcpy(&Raw, P, Size);
        const std::uint64_t NewBits = NewBitsFor(Raw);
        std::memcpy(P, &NewBits, Size);
      }
      const std::uint64_t Old = Ty.isInteger() ? canonInt(Ty, Raw) : Raw;
      chargeAccess(T, A.space(), /*IsStore=*/true, /*IsAtomic=*/true, Size);
      setResult(I, F, Old);
      break;
    }
    case Opcode::CmpXchg: {
      const DeviceAddr A(opI(0));
      const Type Ty = I->type();
      const unsigned Size = Ty.sizeInBytes();
      std::uint8_t *P = resolve(A, Size, T);
      if (!P)
        return;
      std::uint64_t Raw = 0;
      if (A.space() == MemSpace::Global && atomicCapable(P, Size)) {
        // Compare at storage width: equal raw words <=> equal canonical
        // values, since canonicalization is injective on the width.
        Raw = Size == 4 ? atomicCas<std::uint32_t>(P, opI(1), opI(2))
                        : atomicCas<std::uint64_t>(P, opI(1), opI(2));
      } else {
        std::memcpy(&Raw, P, Size);
        const std::uint64_t OldC = Ty.isInteger() ? canonInt(Ty, Raw) : Raw;
        if (OldC == opI(1)) {
          const std::uint64_t Desired = opI(2);
          std::memcpy(P, &Desired, Size);
        }
      }
      const std::uint64_t Old = Ty.isInteger() ? canonInt(Ty, Raw) : Raw;
      chargeAccess(T, A.space(), /*IsStore=*/true, /*IsAtomic=*/true, Size);
      setResult(I, F, Old);
      break;
    }
    case Opcode::Malloc: {
      const std::uint64_t Size = opI(0);
      if (Size == 0) {
        setResult(I, F, 0);
      } else {
        // Device malloc mirrors CUDA semantics: exhaustion yields a null
        // pointer the kernel can test, never a host-side abort.
        auto Off = GM.allocate(Size, 16);
        setResult(I, F,
                  Off ? DeviceAddr::make(MemSpace::Global, *Off).Bits : 0);
      }
      Metrics.DeviceMallocs++;
      T.Cycles += C.MallocCost;
      break;
    }
    case Opcode::Free: {
      const DeviceAddr A(opI(0));
      if (!A.isNull())
        GM.release(A.offset());
      T.Cycles += C.MallocCost / 2;
      break;
    }
    //--- Control flow ---------------------------------------------------------
    case Opcode::Br: {
      F.PrevBlock = F.Block;
      F.Block = I->blockOperand(0);
      F.InstIdx = 0;
      T.Cycles += C.Branch;
      continue;
    }
    case Opcode::CondBr: {
      F.PrevBlock = F.Block;
      F.Block = opI(0) ? I->blockOperand(0) : I->blockOperand(1);
      F.InstIdx = 0;
      T.Cycles += C.Branch;
      continue;
    }
    case Opcode::Ret: {
      const bool HasValue = I->numOperands() == 1;
      const std::uint64_t RetBits = HasValue ? opI(0) : 0;
      const std::uint64_t Watermark = F.LocalWatermark;
      const Instruction *CallSite = F.CallSite;
      T.Frames.pop_back();
      T.Local.restore(Watermark);
      if (T.Frames.empty()) {
        T.Status = ThreadStatus::Done;
        return;
      }
      Frame &Caller = T.Frames.back();
      if (CallSite && !CallSite->type().isVoid())
        Caller.Slots[Caller.Layout->Slots.at(CallSite)] =
            canonValue(CallSite->type(), RetBits);
      Caller.InstIdx++; // resume after the call
      T.Cycles += C.Branch;
      continue;
    }
    case Opcode::Unreachable: {
      trap(T, "unreachable executed");
      return;
    }
    case Opcode::Phi: {
      // Phis are handled en bloc at block entry; reaching one here means a
      // mid-block phi, which the verifier rejects.
      trap(T, "phi encountered mid-block");
      return;
    }
    case Opcode::Call: {
      const Function *Callee = I->calledFunction();
      if (!Callee) {
        Callee = Image.functionFor(DeviceAddr(opI(0)));
        if (!Callee) {
          trap(T, "indirect call to a non-function address");
          return;
        }
      }
      if (Callee->isDeclaration()) {
        trap(T, "call to unresolved external function '" + Callee->name() +
                    "'");
        return;
      }
      if (Callee->numArgs() != I->numCallArgs()) {
        trap(T, "indirect call argument count mismatch for '" +
                    Callee->name() + "'");
        return;
      }
      Frame NewF;
      NewF.Fn = Callee;
      NewF.Layout = &Image.layout(Callee);
      NewF.Block = Callee->entry();
      NewF.Slots.resize(NewF.Layout->NumSlots, 0);
      for (unsigned A = 0; A < Callee->numArgs(); ++A)
        NewF.Slots[NewF.Layout->Slots.at(Callee->arg(A))] =
            canonValue(Callee->arg(A)->type(), opI(A + 1));
      NewF.LocalWatermark = T.Local.watermark();
      NewF.CallSite = I;
      T.Frames.push_back(std::move(NewF));
      T.Cycles += C.CallOverhead;
      Metrics.Calls++;
      continue;
    }
    //--- GPU intrinsics ----------------------------------------------------------
    case Opcode::ThreadId:
      setResult(I, F, T.Tid);
      T.Cycles += C.Alu;
      break;
    case Opcode::BlockId:
      setResult(I, F, TeamId);
      T.Cycles += C.Alu;
      break;
    case Opcode::BlockDim:
      setResult(I, F, NumThreads);
      T.Cycles += C.Alu;
      break;
    case Opcode::GridDim:
      setResult(I, F, NumTeams);
      T.Cycles += C.Alu;
      break;
    case Opcode::WarpSize:
      setResult(I, F, Config.WarpSize);
      T.Cycles += C.Alu;
      break;
    //--- Synchronization ---------------------------------------------------------
    case Opcode::Barrier:
    case Opcode::AlignedBarrier: {
      T.Status = ThreadStatus::AtBarrier;
      T.BarrierInst = I;
      return;
    }
    //--- Metadata ------------------------------------------------------------------
    case Opcode::Assume: {
      if (Config.DebugChecks && opI(0) == 0) {
        trap(T, "compiler assumption violated at runtime (in @" +
                    F.Fn->name() + ", block '" + F.Block->name() + "')");
        return;
      }
      break;
    }
    case Opcode::AssertFail: {
      if (Config.DebugChecks && opI(0) == 0) {
        trap(T, "assertion failed: " + I->str());
        return;
      }
      if (Config.DebugChecks)
        T.Cycles += C.Alu;
      break;
    }
    case Opcode::Trap: {
      trap(T, "trap executed");
      return;
    }
    case Opcode::NativeOp: {
      std::vector<std::uint64_t> Args;
      Args.reserve(I->numOperands());
      for (unsigned A = 0; A < I->numOperands(); ++A)
        Args.push_back(opI(A));
      NativeCtxImpl Ctx(*this, T, std::move(Args));
      const NativeOpInfo &Info = Registry.get(I->imm());
      Info.Fn(Ctx);
      if (T.Status != ThreadStatus::Running)
        return;
      if (!I->type().isVoid()) {
        CODESIGN_ASSERT(Ctx.HasResult,
                        "native op did not produce its declared result");
        setResult(I, F, canonValue(I->type(), Ctx.Result));
      }
      break;
    }
    }
    F.InstIdx++;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Tree-tier team entry point
//===----------------------------------------------------------------------===//

TeamRunOutcome runTreeTeam(const DeviceConfig &Config, GlobalMemory &GM,
                           const NativeRegistry &Registry,
                           const ModuleImage &Image, std::uint32_t TeamId,
                           std::uint32_t NumTeams, std::uint32_t NumThreads,
                           const Function *Kernel,
                           std::span<const std::uint64_t> Args,
                           LaunchMetrics &Metrics, LaunchProfile *Profile) {
  TeamExecutor Exec(Config, GM, Registry, Image, TeamId, NumTeams, NumThreads,
                    Kernel, Args, Metrics, Profile);
  TeamRunOutcome Out;
  Out.Err = Exec.run();
  Out.Cycles = Exec.teamCycles();
  return Out;
}

} // namespace codesign::vgpu

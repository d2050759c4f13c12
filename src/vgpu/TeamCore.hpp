//===- vgpu/TeamCore.hpp - Team semantics shared by every engine -----------===//
//
// One definition of how a team of the virtual GPU executes, shared by all
// three engines: the tree interpreter (Interpreter.cpp), the bytecode
// executor (BytecodeExecutor.cpp) and the host side of the native backend
// (exec/NativeBackend.cpp):
//
//   - the canonical value encoding, keyed on ir::TypeKind: i1 is 0/1, i32
//     is sign-extended, i64/ptr raw, f32 keeps its float bits in the low
//     32 bits, f64 its double bits;
//   - the evaluation rules for arithmetic, compares and atomics, and the
//     op-class map of the launch profile;
//   - TeamCore: the shared arena and its one reset policy, address
//     resolution with every trap text, local allocation, access charging
//     into one per-team counter block, the race detector's shadow, device
//     malloc/free, the run-to-barrier loop with its rendezvous, team trap
//     formatting, and the NativeCtx implementation.
//
// An engine adds only its thread state and the step that runs one thread
// until it blocks: the interpreters dispatch over frame stacks, the native
// backend runs compiled code, on a fiber when the module has barriers.
// Everything on a per-access path is an inline template here, so no engine
// pays a virtual call for it, and nothing here asks which engine calls:
// barrier identity is a value and the shared high-water mark is a plain
// word the generated code raises through a pointer. The one other resolve
// is the generated cg_resolve (exec/NativeCodegen.cpp); the three-way
// parity suites check it against this one.
//
//===----------------------------------------------------------------------===//
#pragma once

#include <algorithm>
#include <atomic>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/Instruction.hpp"
#include "rt/RuntimeABI.hpp"
#include "vgpu/IntOps.hpp"
#include "vgpu/Interpreter.hpp"

namespace codesign::vgpu {

//===----------------------------------------------------------------------===//
// Value encoding
//===----------------------------------------------------------------------===//

[[nodiscard]] inline bool isIntKind(ir::TypeKind K) {
  return K == ir::TypeKind::I1 || K == ir::TypeKind::I32 ||
         K == ir::TypeKind::I64;
}

/// Canonical 64-bit pattern of an integer of kind K.
[[nodiscard]] inline std::uint64_t canonInt(ir::TypeKind K,
                                            std::uint64_t Bits) {
  switch (K) {
  case ir::TypeKind::I1:
    return Bits & 1;
  case ir::TypeKind::I32:
    return static_cast<std::uint64_t>(
        static_cast<std::int64_t>(static_cast<std::int32_t>(Bits)));
  default:
    return Bits;
  }
}

/// Canonical pattern of any value of kind K (non-integers are raw).
[[nodiscard]] inline std::uint64_t canonValue(ir::TypeKind K,
                                              std::uint64_t Bits) {
  return isIntKind(K) ? canonInt(K, Bits) : Bits;
}

/// The storage-width (zero-extended) view of a canonical integer.
[[nodiscard]] inline std::uint64_t zextToWidth(ir::TypeKind K,
                                               std::uint64_t CanonBits) {
  switch (K) {
  case ir::TypeKind::I1:
    return CanonBits & 1;
  case ir::TypeKind::I32:
    return CanonBits & 0xFFFFFFFFULL;
  default:
    return CanonBits;
  }
}

[[nodiscard]] inline double decodeF(ir::TypeKind K, std::uint64_t Bits) {
  if (K == ir::TypeKind::F32) {
    float F;
    const std::uint32_t B32 = static_cast<std::uint32_t>(Bits);
    std::memcpy(&F, &B32, sizeof(F));
    return static_cast<double>(F);
  }
  double D;
  std::memcpy(&D, &Bits, sizeof(D));
  return D;
}

[[nodiscard]] inline std::uint64_t encodeF(ir::TypeKind K, double V) {
  if (K == ir::TypeKind::F32) {
    const float F = static_cast<float>(V);
    std::uint32_t B32;
    std::memcpy(&B32, &F, sizeof(F));
    return B32;
  }
  std::uint64_t B;
  std::memcpy(&B, &V, sizeof(B));
  return B;
}

//===----------------------------------------------------------------------===//
// Evaluation rules
//===----------------------------------------------------------------------===//

/// A binary operation's canonical result and its cost, or the text of the
/// trap it raises (Trap non-null).
struct BinopResult {
  std::uint64_t Bits = 0;
  std::uint32_t Cost = 0;
  const char *Trap = nullptr;
};

/// Integer Add..AShr on canonical operands. All arithmetic runs through
/// intops::, so signed overflow and INT64_MIN / -1 have defined wrapping
/// semantics (DESIGN.md section 5).
[[nodiscard]] inline BinopResult evalIntBinop(ir::Opcode Op, ir::TypeKind K,
                                              std::uint64_t A,
                                              std::uint64_t B,
                                              const CostModel &C) {
  using ir::Opcode;
  const std::uint64_t UA = zextToWidth(K, A);
  const std::uint64_t UB = zextToWidth(K, B);
  const unsigned ShMask = K == ir::TypeKind::I32 ? 31 : 63;
  BinopResult R;
  R.Cost = C.Alu;
  switch (Op) {
  case Opcode::Add:
    R.Bits = intops::addWrap(A, B);
    break;
  case Opcode::Sub:
    R.Bits = intops::subWrap(A, B);
    break;
  case Opcode::Mul:
    R.Bits = intops::mulWrap(A, B);
    R.Cost = C.Mul;
    break;
  case Opcode::SDiv:
    if (!intops::sdiv(A, B, R.Bits))
      R.Trap = "integer division by zero";
    R.Cost = C.Div;
    break;
  case Opcode::UDiv:
    if (!intops::udiv(UA, UB, R.Bits))
      R.Trap = "integer division by zero";
    R.Cost = C.Div;
    break;
  case Opcode::SRem:
    if (!intops::srem(A, B, R.Bits))
      R.Trap = "integer remainder by zero";
    R.Cost = C.Div;
    break;
  case Opcode::URem:
    if (!intops::urem(UA, UB, R.Bits))
      R.Trap = "integer remainder by zero";
    R.Cost = C.Div;
    break;
  case Opcode::And:
    R.Bits = A & B;
    break;
  case Opcode::Or:
    R.Bits = A | B;
    break;
  case Opcode::Xor:
    R.Bits = A ^ B;
    break;
  case Opcode::Shl:
    R.Bits = UA << (UB & ShMask);
    break;
  case Opcode::LShr:
    R.Bits = UA >> (UB & ShMask);
    break;
  case Opcode::AShr:
    R.Bits = intops::ashr(A, static_cast<unsigned>(UB & ShMask));
    break;
  default:
    CODESIGN_UNREACHABLE("not an int binop");
  }
  R.Bits = canonInt(K, R.Bits);
  return R;
}

/// Float FAdd..FDiv on encoded operands of kind K.
[[nodiscard]] inline BinopResult evalFloatBinop(ir::Opcode Op, ir::TypeKind K,
                                                std::uint64_t ABits,
                                                std::uint64_t BBits,
                                                const CostModel &C) {
  const double A = decodeF(K, ABits);
  const double B = decodeF(K, BBits);
  double V = 0;
  BinopResult R;
  R.Cost = C.FAlu;
  switch (Op) {
  case ir::Opcode::FAdd:
    V = A + B;
    break;
  case ir::Opcode::FSub:
    V = A - B;
    break;
  case ir::Opcode::FMul:
    V = A * B;
    break;
  case ir::Opcode::FDiv:
    V = A / B;
    R.Cost = C.FDiv;
    break;
  default:
    CODESIGN_UNREACHABLE("not a float binop");
  }
  R.Bits = encodeF(K, V);
  return R;
}

/// Integer compare on canonical operand bits. Canonical sign-extension is
/// an order-preserving embedding for the unsigned predicates as well, so
/// raw compares suffice.
[[nodiscard]] inline bool evalICmp(ir::CmpPred Pred, std::uint64_t UA,
                                   std::uint64_t UB) {
  using ir::CmpPred;
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

/// Ordered float compare of two encoded operands of kind K.
[[nodiscard]] inline bool evalFCmp(ir::CmpPred Pred, ir::TypeKind K,
                                   std::uint64_t ABits, std::uint64_t BBits) {
  using ir::CmpPred;
  const double A = decodeF(K, ABits);
  const double B = decodeF(K, BBits);
  switch (Pred) {
  case CmpPred::OEQ:
    return A == B;
  case CmpPred::ONE:
    return A != B;
  case CmpPred::OLT:
    return A < B;
  case CmpPred::OLE:
    return A <= B;
  case CmpPred::OGT:
    return A > B;
  case CmpPred::OGE:
    return A >= B;
  default:
    CODESIGN_UNREACHABLE("int predicate on fcmp");
  }
}

/// The AtomicRMW new-value rule: the word's new raw bits given its old raw
/// bits and the (canonical) operand V.
[[nodiscard]] inline std::uint64_t atomicNewBits(ir::AtomicOp Op,
                                                 ir::TypeKind K,
                                                 std::uint64_t RawOld,
                                                 std::uint64_t V) {
  const std::uint64_t OldC = canonValue(K, RawOld);
  const auto OldS = static_cast<std::int64_t>(OldC);
  const auto VS = static_cast<std::int64_t>(V);
  switch (Op) {
  case ir::AtomicOp::Add:
    return intops::addWrap(OldC, V);
  case ir::AtomicOp::Max:
    return static_cast<std::uint64_t>(std::max(OldS, VS));
  case ir::AtomicOp::Min:
    return static_cast<std::uint64_t>(std::min(OldS, VS));
  case ir::AtomicOp::Exchange:
    return V;
  }
  CODESIGN_UNREACHABLE("unknown atomic op");
}

/// True when host storage P can serve a lock-free atomic of Size bytes.
[[nodiscard]] inline bool atomicCapable(const std::uint8_t *P, unsigned Size) {
  return (Size == 4 || Size == 8) &&
         reinterpret_cast<std::uintptr_t>(P) % Size == 0;
}

/// Atomically replace the U-sized word at P with NewBitsFor(old); returns
/// the raw old bits (zero-extended). Teams of one launch may contend on
/// the same global-memory word, so the read-modify-write must be a real
/// atomic: a plain load/store pair would tear under the parallel engine.
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

/// Coarse classification for the launch profile's op-class histogram.
[[nodiscard]] constexpr OpClass classifyOpcode(ir::Opcode Op) {
  using ir::Opcode;
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

//===----------------------------------------------------------------------===//
// Team state
//===----------------------------------------------------------------------===//

enum class ThreadStatus : std::uint8_t { Running, AtBarrier, Done, Trapped };

/// The per-thread state TeamCore reads and writes. An engine's thread type
/// derives from it, adds its execution state, and supplies the run loop's
/// one engine hook: `void resumeAfterBarrier()`, which lets the thread
/// continue past the barrier it is parked on.
struct CoreThread {
  std::uint32_t Tid = 0;
  ThreadStatus Status = ThreadStatus::Running;
  /// The barrier the thread is parked at: whether it is aligned, and a
  /// value unique per barrier site of the module (the interpreters use the
  /// instruction's address, native code its site number).
  bool BarrierAligned = false;
  std::uint64_t BarrierId = 0;
  std::uint64_t Cycles = 0;
  std::uint64_t InstCount = 0;
  std::string TrapMsg;
  BumpArena Local{0};
};

/// Per-byte shadow state for the dynamic race detector: who last wrote and
/// last read this shared byte, and in which barrier epoch. Two plain
/// accesses from different threads in the same epoch with at least one
/// write have no happens-before edge (every barrier is a team-wide
/// rendezvous here, so epochs are exactly the happens-before order).
struct ShadowCell {
  std::uint64_t WriteEpoch = 0;
  std::uint32_t WriteTid = 0;
  std::uint64_t ReadEpoch = 0;
  std::uint32_t ReadTid = 0;
  std::uint32_t ReadTid2 = 0; ///< a second distinct reader (when MultiRead)
  bool MultiRead = false;     ///< >1 distinct readers this epoch
};

/// Hot metric/profile counters of one team. They accumulate in plain
/// memory and are flushed into the team's shard once, when it retires: the
/// shard array is shared with other host threads, so per-event increments
/// there would ping-pong cache lines. Totals are those of per-event
/// counting.
struct HotCounters {
  std::uint64_t DynamicInstructions = 0;
  std::array<std::uint64_t, NumOpClasses> Ops{};
  GlobalAccessCounts Global;
  std::uint64_t SharedLoads = 0, SharedStores = 0;
  std::uint64_t SharedBytesRead = 0, SharedBytesWritten = 0;
  std::uint64_t LocalAccesses = 0, Atomics = 0, Calls = 0;
  std::uint64_t NativeCycles = 0;

  void flush(LaunchMetrics &M, LaunchProfile *P) const {
    M.DynamicInstructions += DynamicInstructions;
    M.GlobalLoads += Global.Loads;
    M.GlobalStores += Global.Stores;
    M.SharedLoads += SharedLoads;
    M.SharedStores += SharedStores;
    M.LocalAccesses += LocalAccesses;
    M.Atomics += Atomics;
    M.Calls += Calls;
    M.NativeCycles += NativeCycles;
    if (!P)
      return;
    for (std::size_t K = 0; K < NumOpClasses; ++K)
      P->OpCounts[K] += Ops[K];
    P->GlobalBytesRead += Global.BytesRead;
    P->GlobalBytesWritten += Global.BytesWritten;
    P->SharedBytesRead += SharedBytesRead;
    P->SharedBytesWritten += SharedBytesWritten;
  }
};

/// Team storage kept per worker thread and recycled across the teams it
/// runs: once a worker has run one team of a given size, setting up the
/// next allocates nothing. Thread entries past the current team's count
/// are spares that keep their capacity for larger teams. Teams never nest
/// on a host thread (native ops cannot launch), so one instance per thread
/// suffices.
template <typename Thread> struct TeamScratch {
  std::vector<Thread> Threads;
  /// Sized once at the device cap, so the storage never moves.
  std::vector<std::uint8_t> SharedArena;
  /// End of the shared prefix a team may have written: every byte at or
  /// beyond it is zero.
  std::uint64_t SharedHwm = 0;
  std::vector<std::uint64_t> NativeArgs;
  std::unordered_map<std::uint64_t, ShadowCell> SharedShadow;
};

/// The engine-independent part of one team's execution. Engines derive
/// from it, set up each thread's execution state, and call run() with
/// their step.
template <typename Thread> class TeamCore {
public:
  TeamCore(const DeviceConfig &Config, GlobalMemory &GM,
           const NativeRegistry &Registry, const ModuleImage &Image,
           std::uint32_t TeamId, std::uint32_t NumTeams,
           std::uint32_t NumThreads, LaunchMetrics &Metrics,
           LaunchProfile *Profile, TeamScratch<Thread> &Scratch)
      : Config(Config), GM(GM), Registry(Registry), Image(Image),
        TeamId(TeamId), NumTeams(NumTeams), NumThreads(NumThreads),
        Metrics(Metrics), Profile(Profile), GMBase(GM.data(0, 0)),
        GMCap(GM.capacity()), MaxInst(Config.MaxDynamicInstPerThread),
        SharedArena(Scratch.SharedArena), SharedHwm(Scratch.SharedHwm),
        NativeArgs(Scratch.NativeArgs), SharedShadow(Scratch.SharedShadow) {
    // The arena only grows, with zero fill, and every shared access raises
    // the high-water mark first (sharedBytes), so re-initializing
    // [0, max(static segment, mark)) is a complete reset.
    const std::uint64_t Static = Image.sharedStaticSize();
    const std::uint64_t Cap =
        std::max({Config.SharedMemPerTeam, Static, std::uint64_t{1}});
    if (SharedArena.size() < Cap)
      SharedArena.resize(Cap, 0);
    SharedZeroedBytes = std::max(Static, SharedHwm);
    Image.initTeamShared(SharedArena.data(), SharedZeroedBytes);
    SharedHwm = Static;
    SharedShadow.clear();
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
    if (Scratch.Threads.size() < NumThreads)
      Scratch.Threads.resize(NumThreads);
    Threads = std::span<Thread>(Scratch.Threads.data(), NumThreads);
    for (std::uint32_t T = 0; T < NumThreads; ++T) {
      CoreThread &TS = Threads[T];
      TS.Tid = T;
      TS.Status = ThreadStatus::Running;
      TS.BarrierId = 0;
      TS.BarrierAligned = false;
      TS.Cycles = 0;
      TS.InstCount = 0;
      TS.TrapMsg.clear();
      // Fresh local memory reads back zeroed: reset() drops the bytes and
      // regrowth zero-fills only what this team maps.
      TS.Local.reset(Config.LocalMemPerThread);
    }
  }

  /// Run the team to completion: sweep the threads in thread order, run
  /// each through Step (the engine's dispatch loop) until it blocks at a
  /// barrier, returns from the kernel, or traps; stop at the first trap;
  /// release each rendezvous. Flushes the hot counters either way.
  template <typename StepFn> TeamRunOutcome run(StepFn &&Step) {
    TeamRunOutcome Out;
    Out.SharedZeroedBytes = SharedZeroedBytes;
    Out.Err = runToCompletion(Step);
    Cnt.flush(Metrics, Profile);
    if (!Out.Err)
      for (const Thread &T : Threads)
        Out.Cycles = std::max(Out.Cycles, T.Cycles);
    return Out;
  }

protected:
  //--- Accounting ------------------------------------------------------------

  void trap(CoreThread &T, std::string Msg) {
    T.Status = ThreadStatus::Trapped;
    T.TrapMsg = std::move(Msg);
  }

  /// Per-instruction accounting in the order every engine keeps: the
  /// dynamic budget check, then the instruction and op-class counters.
  /// Returns false after trapping T.
  bool countInstruction(CoreThread &T, std::size_t Cls) {
    if (++T.InstCount > MaxInst) {
      trap(T, "dynamic instruction budget exceeded (runaway kernel?)");
      return false;
    }
    Cnt.DynamicInstructions++;
    Cnt.Ops[Cls]++;
    return true;
  }

  //--- Memory ----------------------------------------------------------------

  /// Resolve a device address to host storage; traps return null and set
  /// the thread's message.
  std::uint8_t *resolve(DeviceAddr A, unsigned Size, CoreThread &T) {
    switch (A.space()) {
    case MemSpace::Global:
      // The arena never reallocates during a launch (its capacity is fixed
      // at device construction), so the cached base pointer serves every
      // access.
      if (A.offset() + Size > GMCap) {
        trap(T, "global access out of bounds");
        return nullptr;
      }
      return GMBase + A.offset();
    case MemSpace::Shared:
      if (std::uint8_t *P = sharedBytes(A.offset(), Size))
        return P;
      trap(T, "shared memory access out of bounds");
      return nullptr;
    case MemSpace::Local:
      if (Config.DebugChecks && A.owner() != T.Tid) {
        trap(T,
             "cross-thread access to local memory (thread " +
                 std::to_string(T.Tid) + " dereferenced a pointer owned by "
                 "thread " + std::to_string(A.owner()) +
                 "); such variables must be globalized");
        return nullptr;
      }
      if (!T.Local.inBounds(A.offset(), Size)) {
        trap(T, "local access out of bounds");
        return nullptr;
      }
      return T.Local.data(A.offset(), Size);
    case MemSpace::Invalid:
      trap(T, A.isNull() ? "null pointer dereference"
                         : "dereference of a function address");
      return nullptr;
    }
    CODESIGN_UNREACHABLE("bad memory space");
  }

  /// Host storage of shared bytes [Off, Off + Bytes), raising the
  /// high-water mark over them; null beyond SharedMemPerTeam.
  std::uint8_t *sharedBytes(std::uint64_t Off, std::uint64_t Bytes) {
    if (Off + Bytes > Config.SharedMemPerTeam)
      return nullptr;
    SharedHwm = std::max(SharedHwm, Off + Bytes);
    return SharedArena.data() + Off;
  }

  /// Alloca of Size bytes in T's local arena: the device address of the
  /// slot, or 0 after trapping when the arena is exhausted.
  std::uint64_t allocaLocal(CoreThread &T, std::uint64_t Size) {
    if (!T.Local.fits(Size)) {
      trap(T, "local memory exhausted");
      return 0;
    }
    return DeviceAddr::make(MemSpace::Local, T.Local.allocate(Size),
                            static_cast<std::uint16_t>(T.Tid))
        .Bits;
  }

  void chargeAccess(CoreThread &T, MemSpace S, bool IsStore, bool IsAtomic,
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

  /// Dynamic race check for a plain shared-memory access. Returns false
  /// (after trapping T) when the access races with an earlier one in the
  /// same barrier epoch. Atomics are intended synchronization and bypass
  /// this; so does the conditional-write dummy's byte range.
  bool checkSharedAccess(CoreThread &T, std::uint64_t Off, unsigned Size,
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

  /// Load a value of kind K (Size bytes) and return it canonicalized; on a
  /// trap T stops running and the result is 0.
  std::uint64_t loadMemory(DeviceAddr A, ir::TypeKind K, unsigned Size,
                           CoreThread &T) {
    // Global fast path: one bounds check, direct read, local counters. The
    // race detector only shadows shared memory, so it never diverts this.
    if (A.space() == MemSpace::Global && A.offset() + Size <= GMCap) {
      std::uint64_t Raw = 0;
      std::memcpy(&Raw, GMBase + A.offset(), Size);
      Cnt.Global.Loads++;
      Cnt.Global.BytesRead += Size;
      T.Cycles += Config.Costs.GlobalAccess;
      return canonValue(K, Raw);
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
    return canonValue(K, Raw);
  }

  void storeMemory(DeviceAddr A, unsigned Size, std::uint64_t Bits,
                   CoreThread &T) {
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

  /// AtomicRMW of kind K (Size bytes) at A with canonical operand V;
  /// returns the canonical old value (0 after a trap).
  std::uint64_t atomicRMW(DeviceAddr A, ir::AtomicOp Op, ir::TypeKind K,
                          unsigned Size, std::uint64_t V, CoreThread &T) {
    std::uint8_t *P = resolve(A, Size, T);
    if (!P)
      return 0;
    const auto NewBitsFor = [&](std::uint64_t RawOld) {
      return atomicNewBits(Op, K, RawOld, V);
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
    chargeAccess(T, A.space(), /*IsStore=*/true, /*IsAtomic=*/true, Size);
    return canonValue(K, Raw);
  }

  /// CmpXchg of kind K (Size bytes) at A; returns the canonical old value
  /// (0 after a trap).
  std::uint64_t cmpXchg(DeviceAddr A, ir::TypeKind K, unsigned Size,
                        std::uint64_t Expected, std::uint64_t Desired,
                        CoreThread &T) {
    std::uint8_t *P = resolve(A, Size, T);
    if (!P)
      return 0;
    std::uint64_t Raw = 0;
    if (A.space() == MemSpace::Global && atomicCapable(P, Size)) {
      // Compare at storage width: equal raw words <=> equal canonical
      // values, since canonicalization is injective on the width.
      Raw = Size == 4 ? atomicCas<std::uint32_t>(P, Expected, Desired)
                      : atomicCas<std::uint64_t>(P, Expected, Desired);
    } else {
      std::memcpy(&Raw, P, Size);
      if (canonValue(K, Raw) == Expected)
        std::memcpy(P, &Desired, Size);
    }
    chargeAccess(T, A.space(), /*IsStore=*/true, /*IsAtomic=*/true, Size);
    return canonValue(K, Raw);
  }

  /// Device malloc mirrors CUDA semantics: exhaustion (and size 0) yields
  /// a null pointer the kernel can test, never a host-side abort.
  std::uint64_t deviceMalloc(std::uint64_t Size, CoreThread &T) {
    std::uint64_t Bits = 0;
    if (Size != 0)
      if (auto Off = GM.allocate(Size, 16))
        Bits = DeviceAddr::make(MemSpace::Global, *Off).Bits;
    Metrics.DeviceMallocs++;
    T.Cycles += Config.Costs.MallocCost;
    return Bits;
  }

  void deviceFree(DeviceAddr A, CoreThread &T) {
    if (!A.isNull())
      GM.release(A.offset());
    T.Cycles += Config.Costs.MallocCost / 2;
  }

  //--- Native operations -----------------------------------------------------

  /// The inline global-memory window for T's native calls.
  GlobalWindow globalWindow(CoreThread &T) {
    return {GMBase, GMCap, Config.Costs.GlobalAccess, &T.Cycles, &Cnt.Global};
  }

  /// Run registered native op Id for T over Args. Accesses inside W are
  /// served inline; an empty window keeps every access on NativeCtx's
  /// virtual path. Returns the canonical result for a non-void RetK (0
  /// after a trap).
  std::uint64_t callNative(CoreThread &T, std::int64_t Id, ir::TypeKind RetK,
                           GlobalWindow W, std::span<const std::uint64_t> Args) {
    NativeCtxImpl Ctx(*this, T, W, Args);
    Registry.get(Id).Fn(Ctx);
    if (T.Status != ThreadStatus::Running || RetK == ir::TypeKind::Void)
      return 0;
    if (!Ctx.HasResult) {
      trap(T, "native op did not produce its declared result");
      return 0;
    }
    return canonValue(RetK, Ctx.Result);
  }

  const DeviceConfig &Config;
  GlobalMemory &GM;
  const NativeRegistry &Registry;
  const ModuleImage &Image;
  std::uint32_t TeamId;
  std::uint32_t NumTeams;
  std::uint32_t NumThreads;
  LaunchMetrics &Metrics;
  LaunchProfile *Profile;
  /// Cached global-arena view; the arena is fixed-size for the device's
  /// lifetime, so one pointer serves every access of the launch.
  std::uint8_t *GMBase;
  std::uint64_t GMCap;
  const std::uint64_t MaxInst; ///< Config.MaxDynamicInstPerThread
  // Per-worker scratch (TeamScratch), reset for this team.
  std::vector<std::uint8_t> &SharedArena;
  std::uint64_t &SharedHwm;
  std::vector<std::uint64_t> &NativeArgs;
  std::unordered_map<std::uint64_t, ShadowCell> &SharedShadow;
  std::span<Thread> Threads;
  HotCounters Cnt;
  std::uint64_t SharedZeroedBytes = 0; ///< re-initialized at team start
  // Race detector state (only touched when Config.DetectRaces). Epochs
  // start at 1 so a zero-initialized ShadowCell never matches.
  std::uint64_t BarrierEpoch = 1;
  std::uint64_t DummyLo = 0, DummyHi = 0;

private:
  /// NativeCtx over one thread: registered functors see exactly the
  /// resolve/charge semantics of the engine's own loads and stores (race
  /// detection aside: native bodies are opaque to the shadow).
  class NativeCtxImpl final : public NativeCtx {
  public:
    NativeCtxImpl(TeamCore &Core, CoreThread &T, GlobalWindow W,
                  std::span<const std::uint64_t> Args)
        : Core(Core), T(T), Args(Args) {
      Window = W;
    }

    unsigned numArgs() const override {
      return static_cast<unsigned>(Args.size());
    }
    std::uint64_t argBits(unsigned I) const override {
      CODESIGN_ASSERT(I < Args.size(), "native arg out of range");
      return Args[I];
    }
    std::uint64_t loadBits(DeviceAddr A, unsigned Size) override {
      std::uint8_t *P = Core.resolve(A, Size, T);
      if (!P)
        return 0;
      std::uint64_t Raw = 0;
      std::memcpy(&Raw, P, Size);
      Core.chargeAccess(T, A.space(), false, false, Size);
      return Raw;
    }
    void storeBits(DeviceAddr A, std::uint64_t Bits, unsigned Size) override {
      std::uint8_t *P = Core.resolve(A, Size, T);
      if (!P)
        return;
      std::memcpy(P, &Bits, Size);
      Core.chargeAccess(T, A.space(), true, false, Size);
    }
    void chargeCycles(std::uint64_t Cycles) override {
      T.Cycles += Cycles;
      Core.Cnt.NativeCycles += Cycles;
    }
    void setResultBits(std::uint64_t Bits) override {
      Result = Bits;
      HasResult = true;
    }
    std::uint32_t threadId() const override { return T.Tid; }
    std::uint32_t teamId() const override { return Core.TeamId; }

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
    /// En-bloc view of Count in-cap shared f64s at A, or null to take the
    /// scalar loop.
    std::uint8_t *sharedBlock(DeviceAddr A, std::uint32_t Count) {
      if (A.space() != MemSpace::Shared)
        return nullptr;
      return Core.sharedBytes(A.offset(), static_cast<std::uint64_t>(Count) * 8);
    }
    void chargeShared(bool IsStore, std::uint32_t Count) {
      const std::uint64_t Bytes = static_cast<std::uint64_t>(Count) * 8;
      HotCounters &Cnt = Core.Cnt;
      (IsStore ? Cnt.SharedStores : Cnt.SharedLoads) += Count;
      (IsStore ? Cnt.SharedBytesWritten : Cnt.SharedBytesRead) += Bytes;
      T.Cycles += Count * Core.Config.Costs.SharedAccess;
    }

    TeamCore &Core;
    CoreThread &T;
    std::span<const std::uint64_t> Args;
  };

  //--- Barrier rendezvous ----------------------------------------------------

  /// Every live thread is blocked at a barrier: check the debug invariants,
  /// synchronize the clocks to the latest arrival plus the barrier cost,
  /// and resume the arrivals.
  std::optional<std::string> releaseBarrier() {
    // Debug semantics: if any arrival is at an *aligned* barrier, all live
    // threads must sit at the same barrier (paper Section III-G's runtime
    // invariant verification).
    bool AnyAligned = false;
    std::uint64_t AlignedAt = 0;
    std::uint64_t MaxArrival = 0;
    for (const Thread &T : Threads) {
      if (T.Status != ThreadStatus::AtBarrier)
        continue;
      MaxArrival = std::max(MaxArrival, T.Cycles);
      if (T.BarrierAligned) {
        AnyAligned = true;
        AlignedAt = T.BarrierId;
      }
    }
    if (Config.DebugChecks && AnyAligned) {
      for (const Thread &T : Threads)
        if (T.Status == ThreadStatus::AtBarrier && T.BarrierId != AlignedAt)
          return "team " + std::to_string(TeamId) +
                 ": aligned barrier reached with unaligned threads";
    }
    if (Config.DetectRaces && AnyAligned) {
      // An aligned barrier promises that *every* thread of the team
      // arrives; a thread that already returned from the kernel can never
      // rendezvous, i.e. the barrier sits under divergent control. Real
      // hardware hangs here: report instead.
      for (const Thread &T : Threads)
        if (T.Status == ThreadStatus::Done)
          return "team " + std::to_string(TeamId) +
                 ": divergent aligned barrier (thread " +
                 std::to_string(T.Tid) +
                 " already exited the kernel and can never arrive)";
    }
    Metrics.Barriers++;
    if (Profile)
      for (const Thread &T : Threads)
        if (T.Status == ThreadStatus::AtBarrier)
          Profile->BarrierWaitCycles += MaxArrival - T.Cycles;
    const std::uint64_t Release = MaxArrival + Config.Costs.BarrierCost;
    for (Thread &T : Threads) {
      if (T.Status != ThreadStatus::AtBarrier)
        continue;
      T.Cycles = Release;
      T.Status = ThreadStatus::Running;
      T.resumeAfterBarrier();
    }
    ++BarrierEpoch; // the rendezvous orders all prior accesses before all
                    // later ones: open a new happens-before interval
    return std::nullopt;
  }

  template <typename StepFn>
  std::optional<std::string> runToCompletion(StepFn &Step) {
    for (;;) {
      bool AllDone = true;
      for (Thread &T : Threads) {
        if (T.Status == ThreadStatus::Running)
          Step(T);
        if (T.Status == ThreadStatus::Trapped)
          return "thread " + std::to_string(T.Tid) + " of team " +
                 std::to_string(TeamId) + ": " + T.TrapMsg;
        if (T.Status != ThreadStatus::Done)
          AllDone = false;
      }
      if (AllDone)
        return std::nullopt;
      // Every live thread is now blocked at a barrier: rendezvous.
      const bool AnyAtBarrier =
          std::any_of(Threads.begin(), Threads.end(), [](const Thread &T) {
            return T.Status == ThreadStatus::AtBarrier;
          });
      if (!AnyAtBarrier)
        return "team " + std::to_string(TeamId) + ": livelock detected";
      if (auto Err = releaseBarrier())
        return Err;
    }
  }
};

} // namespace codesign::vgpu

//===- vgpu/BytecodeExecutor.cpp - Fast-tier team execution ----------------===//
//
// A register-machine VM over vgpu/Bytecode.hpp programs. Team state, memory,
// atomics, the race detector and the barrier rendezvous are the shared
// TeamCore (TeamCore.hpp); this file owns only the frame stack and the
// instruction dispatch, which keeps the tree interpreter's per-instruction
// accounting order (budget check, dynamic-instruction counter, op-class
// histogram) and trap messages. The differential tests pin every proxy
// app's outputs, metrics and profiles across both engines.
//
//===----------------------------------------------------------------------===//
#include "vgpu/BytecodeExecutor.hpp"

#include <utility>

#include "ir/BasicBlock.hpp"
#include "vgpu/TeamCore.hpp"

namespace codesign::vgpu {

using ir::TypeKind;

namespace {

/// The arithmetic BCOps share ir::Opcode's numbering, so the evaluators of
/// TeamCore.hpp take them by a plain cast.
constexpr bool arithmeticNumberingShared() {
  using ir::Opcode;
  constexpr std::pair<BCOp, Opcode> Same[] = {
      {BCOp::Add, Opcode::Add},   {BCOp::Sub, Opcode::Sub},
      {BCOp::Mul, Opcode::Mul},   {BCOp::SDiv, Opcode::SDiv},
      {BCOp::UDiv, Opcode::UDiv}, {BCOp::SRem, Opcode::SRem},
      {BCOp::URem, Opcode::URem}, {BCOp::And, Opcode::And},
      {BCOp::Or, Opcode::Or},     {BCOp::Xor, Opcode::Xor},
      {BCOp::Shl, Opcode::Shl},   {BCOp::LShr, Opcode::LShr},
      {BCOp::AShr, Opcode::AShr}, {BCOp::FAdd, Opcode::FAdd},
      {BCOp::FSub, Opcode::FSub}, {BCOp::FMul, Opcode::FMul},
      {BCOp::FDiv, Opcode::FDiv}};
  for (const auto &[B, O] : Same)
    if (static_cast<int>(B) != static_cast<int>(O))
      return false;
  return true;
}
static_assert(arithmeticNumberingShared());

ir::Opcode irOp(BCOp Op) { return static_cast<ir::Opcode>(Op); }
TypeKind kind(std::uint8_t K) { return static_cast<TypeKind>(K); }

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

struct BCThreadState : CoreThread {
  /// Frame stack with recycling: entries [0, Depth) are live; entries past
  /// Depth are retired frames kept as spares so their Slots vectors retain
  /// capacity (no allocation per call once the stack has been this deep).
  std::vector<BCFrame> Frames;
  std::uint32_t Depth = 0;

  void resumeAfterBarrier() { Frames[Depth - 1].PC++; }
};

struct BCTeamScratch : TeamScratch<BCThreadState> {
  std::vector<std::uint64_t> PhiBuf; ///< parallel-copy staging buffer
};

class BCTeamExecutor : public TeamCore<BCThreadState> {
public:
  BCTeamExecutor(const DeviceConfig &Config, GlobalMemory &GM,
                 const NativeRegistry &Registry, const ModuleImage &Image,
                 const BytecodeModule &BC,
                 const std::vector<std::vector<std::uint64_t>> &Pools,
                 std::uint32_t TeamId, std::uint32_t NumTeams,
                 std::uint32_t NumThreads, const ir::Function *Kernel,
                 std::span<const std::uint64_t> Args, LaunchMetrics &Metrics,
                 LaunchProfile *Profile, BCTeamScratch &Scratch)
      : TeamCore(Config, GM, Registry, Image, TeamId, NumTeams, NumThreads,
                 Metrics, Profile, Scratch),
        BC(BC), Pools(Pools), PhiBuf(Scratch.PhiBuf) {
    const BCFunction *KernelBC = BC.functionFor(Kernel);
    CODESIGN_ASSERT(KernelBC && KernelBC->HasBody,
                    "kernel has no bytecode body");
    const std::vector<std::uint64_t> &Pool = Pools[KernelBC->Index];
    for (BCThreadState &TS : Threads) {
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
        F.Slots[A] = canonValue(kind(KernelBC->ArgTyKinds[A]), Args[A]);
    }
  }

  TeamRunOutcome run() {
    return TeamCore::run([this](BCThreadState &T) { stepThread(T); });
  }

private:
  /// Run T until it blocks at a barrier, returns from the kernel, or traps.
  void stepThread(BCThreadState &T);

  const BytecodeModule &BC;
  const std::vector<std::vector<std::uint64_t>> &Pools;
  std::vector<std::uint64_t> &PhiBuf;
};

void BCTeamExecutor::stepThread(BCThreadState &T) {
  const CostModel &C = Config.Costs;

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
      if (countInstruction(T, I.Cls))
        trap(T, "phi encountered mid-block");
      return;
    }

    if (!countInstruction(T, I.Cls))
      return;

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
      const BinopResult R =
          evalIntBinop(irOp(I.Op), kind(I.TyKind), Ref(I.A), Ref(I.B), C);
      if (R.Trap) {
        trap(T, R.Trap);
        return;
      }
      F.Slots[I.Dst] = R.Bits;
      T.Cycles += R.Cost;
      break;
    }
    //--- Float arithmetic ------------------------------------------------------
    case BCOp::FAdd:
    case BCOp::FSub:
    case BCOp::FMul:
    case BCOp::FDiv: {
      const BinopResult R =
          evalFloatBinop(irOp(I.Op), kind(I.TyKind), Ref(I.A), Ref(I.B), C);
      F.Slots[I.Dst] = R.Bits;
      T.Cycles += R.Cost;
      break;
    }
    //--- Compare / select ------------------------------------------------------
    case BCOp::ICmp: {
      F.Slots[I.Dst] =
          evalICmp(static_cast<ir::CmpPred>(I.Pred), Ref(I.A), Ref(I.B)) ? 1
                                                                         : 0;
      T.Cycles += C.Alu;
      break;
    }
    case BCOp::FCmp: {
      F.Slots[I.Dst] = evalFCmp(static_cast<ir::CmpPred>(I.Pred),
                                kind(I.SrcTyKind), Ref(I.A), Ref(I.B))
                           ? 1
                           : 0;
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
      F.Slots[I.Dst] = canonInt(kind(I.TyKind),
                                zextToWidth(kind(I.SrcTyKind), Ref(I.A)));
      T.Cycles += C.Alu;
      break;
    }
    case BCOp::SExt:
    case BCOp::Trunc: {
      F.Slots[I.Dst] = canonInt(kind(I.TyKind), Ref(I.A));
      T.Cycles += C.Alu;
      break;
    }
    case BCOp::SIToFP: {
      F.Slots[I.Dst] = encodeF(
          kind(I.TyKind),
          static_cast<double>(static_cast<std::int64_t>(Ref(I.A))));
      T.Cycles += C.FAlu;
      break;
    }
    case BCOp::FPToSI: {
      const double D = decodeF(kind(I.SrcTyKind), Ref(I.A));
      F.Slots[I.Dst] = canonInt(
          kind(I.TyKind), static_cast<std::uint64_t>(intops::fpToI64(D)));
      T.Cycles += C.FAlu;
      break;
    }
    case BCOp::FPCast: {
      F.Slots[I.Dst] =
          encodeF(kind(I.TyKind), decodeF(kind(I.SrcTyKind), Ref(I.A)));
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
      const std::uint64_t A =
          allocaLocal(T, static_cast<std::uint64_t>(I.Imm));
      if (T.Status != ThreadStatus::Running)
        return;
      F.Slots[I.Dst] = A;
      T.Cycles += C.Alu;
      break;
    }
    case BCOp::Load: {
      const DeviceAddr A(Ref(I.A));
      const std::uint64_t V = loadMemory(A, kind(I.TyKind), I.Size, T);
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
      if (!countInstruction(T, static_cast<std::size_t>(OpClass::Memory)))
        return;
      const std::uint64_t V = loadMemory(Addr, kind(I.TyKind), I.Size, T);
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
      if (!countInstruction(T, static_cast<std::size_t>(OpClass::Memory)))
        return;
      storeMemory(Addr, I.Size, Ref(I.C), T);
      if (T.Status != ThreadStatus::Running)
        return;
      break;
    }
    case BCOp::AtomicRMW: {
      const std::uint64_t Old =
          atomicRMW(DeviceAddr(Ref(I.A)), static_cast<ir::AtomicOp>(I.Imm),
                    kind(I.TyKind), I.Size, Ref(I.B), T);
      if (T.Status != ThreadStatus::Running)
        return;
      F.Slots[I.Dst] = Old;
      break;
    }
    case BCOp::CmpXchg: {
      const std::uint64_t Old = cmpXchg(DeviceAddr(Ref(I.A)), kind(I.TyKind),
                                        I.Size, Ref(I.B), Ref(I.C), T);
      if (T.Status != ThreadStatus::Running)
        return;
      F.Slots[I.Dst] = Old;
      break;
    }
    case BCOp::Malloc:
      F.Slots[I.Dst] = deviceMalloc(Ref(I.A), T);
      break;
    case BCOp::Free:
      deviceFree(DeviceAddr(Ref(I.A)), T);
      break;
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
      const bool R = evalICmp(static_cast<ir::CmpPred>(I.Pred), Ref(I.A),
                              Ref(I.B));
      T.Cycles += C.Alu;
      if (!countInstruction(T, static_cast<std::size_t>(OpClass::ControlFlow)))
        return;
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
        Caller.Slots[CallerDst] = canonValue(kind(RetTy), RetBits);
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
        NewF.Slots[A] =
            canonValue(kind(CalleeBC->ArgTyKinds[A]),
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
      T.BarrierId = reinterpret_cast<std::uintptr_t>(I.Src);
      T.BarrierAligned = I.Op == BCOp::AlignedBarrierOp;
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
      // re-enter the dispatch loop, so one argument buffer per team
      // suffices.
      NativeArgs.clear();
      for (std::uint32_t A = 0; A < I.T1; ++A)
        NativeArgs.push_back(Ref(F.BF->Extras[I.T0 + A]));
      const std::uint64_t R = callNative(T, I.Imm, kind(I.TyKind),
                                         globalWindow(T), NativeArgs);
      if (T.Status != ThreadStatus::Running)
        return;
      if (kind(I.TyKind) != TypeKind::Void)
        F.Slots[I.Dst] = R;
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

TeamRunOutcome
runBytecodeTeam(const DeviceConfig &Config, GlobalMemory &GM,
                const NativeRegistry &Registry, const ModuleImage &Image,
                const BytecodeModule &BC,
                const std::vector<std::vector<std::uint64_t>> &Pools,
                std::uint32_t TeamId, std::uint32_t NumTeams,
                std::uint32_t NumThreads, const ir::Function *Kernel,
                std::span<const std::uint64_t> Args, LaunchMetrics &Metrics,
                LaunchProfile *Profile) {
  thread_local BCTeamScratch Scratch;
  return BCTeamExecutor(Config, GM, Registry, Image, BC, Pools, TeamId,
                        NumTeams, NumThreads, Kernel, Args, Metrics, Profile,
                        Scratch)
      .run();
}

} // namespace codesign::vgpu

#include "vgpu/Interpreter.hpp"

#include "vgpu/KernelStats.hpp"
#include "vgpu/TeamCore.hpp"

#include <cstring>

#include "ir/BasicBlock.hpp"

namespace codesign::vgpu {

using ir::BasicBlock;
using ir::Opcode;
using ir::ValueKind;

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

struct ThreadState : CoreThread {
  std::vector<Frame> Frames;

  void resumeAfterBarrier() { Frames.back().InstIdx++; }
};

/// The tree walker: TeamCore's team semantics with a dispatch loop that
/// reads the IR directly. It stays the semantic reference for the
/// bytecode engine's dispatch, so it keeps native bodies on NativeCtx's
/// virtual path (an empty global window) and classifies every dynamic
/// instruction afresh.
class TeamExecutor : public TeamCore<ThreadState> {
public:
  TeamExecutor(const DeviceConfig &Config, GlobalMemory &GM,
               const NativeRegistry &Registry, const ModuleImage &Image,
               std::uint32_t TeamId, std::uint32_t NumTeams,
               std::uint32_t NumThreads, const Function *Kernel,
               std::span<const std::uint64_t> Args, LaunchMetrics &Metrics,
               LaunchProfile *Profile, TeamScratch<ThreadState> &Scratch)
      : TeamCore(Config, GM, Registry, Image, TeamId, NumTeams, NumThreads,
                 Metrics, Profile, Scratch) {
    for (ThreadState &TS : Threads) {
      Frame F;
      F.Fn = Kernel;
      F.Layout = &Image.layout(Kernel);
      F.Block = Kernel->entry();
      F.Slots.resize(F.Layout->NumSlots, 0);
      for (unsigned A = 0; A < Kernel->numArgs(); ++A)
        F.Slots[F.Layout->Slots.at(Kernel->arg(A))] =
            canonValue(Kernel->arg(A)->type().kind(), Args[A]);
      TS.Frames.clear();
      TS.Frames.push_back(std::move(F));
    }
  }

  TeamRunOutcome run() {
    return TeamCore::run([this](ThreadState &T) { stepThread(T); });
  }

private:
  //--- Value plumbing ----------------------------------------------------------

  std::uint64_t operandValue(const Value *V, const Frame &F) const {
    switch (V->kind()) {
    case ValueKind::Instruction:
    case ValueKind::Argument:
      return F.Slots[F.Layout->Slots.at(V)];
    case ValueKind::ConstantInt:
      return canonInt(V->type().kind(),
                      static_cast<std::uint64_t>(
                          ir::cast<ir::ConstantInt>(V)->value()));
    case ValueKind::ConstantFP:
      return encodeF(V->type().kind(), ir::cast<ir::ConstantFP>(V)->value());
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
};

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
    if (!countInstruction(
            T, static_cast<std::size_t>(classifyOpcode(I->opcode()))))
      return;

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
      const BinopResult R =
          evalIntBinop(I->opcode(), I->type().kind(), opI(0), opI(1), C);
      if (R.Trap) {
        trap(T, R.Trap);
        return;
      }
      setResult(I, F, R.Bits);
      T.Cycles += R.Cost;
      break;
    }
    //--- Float arithmetic ------------------------------------------------------
    case Opcode::FAdd:
    case Opcode::FSub:
    case Opcode::FMul:
    case Opcode::FDiv: {
      const BinopResult R =
          evalFloatBinop(I->opcode(), I->type().kind(), opI(0), opI(1), C);
      setResult(I, F, R.Bits);
      T.Cycles += R.Cost;
      break;
    }
    //--- Compare / select ------------------------------------------------------
    case Opcode::ICmp: {
      setResult(I, F, evalICmp(I->pred(), opI(0), opI(1)) ? 1 : 0);
      T.Cycles += C.Alu;
      break;
    }
    case Opcode::FCmp: {
      setResult(I, F,
                evalFCmp(I->pred(), I->operand(0)->type().kind(), opI(0),
                         opI(1))
                    ? 1
                    : 0);
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
                canonInt(I->type().kind(),
                         zextToWidth(I->operand(0)->type().kind(), opI(0))));
      T.Cycles += C.Alu;
      break;
    }
    case Opcode::SExt:
    case Opcode::Trunc: {
      setResult(I, F, canonInt(I->type().kind(), opI(0)));
      T.Cycles += C.Alu;
      break;
    }
    case Opcode::SIToFP: {
      setResult(I, F,
                encodeF(I->type().kind(),
                        static_cast<double>(static_cast<std::int64_t>(opI(0)))));
      T.Cycles += C.FAlu;
      break;
    }
    case Opcode::FPToSI: {
      const double D = decodeF(I->operand(0)->type().kind(), opI(0));
      setResult(I, F,
                canonInt(I->type().kind(),
                         static_cast<std::uint64_t>(intops::fpToI64(D))));
      T.Cycles += C.FAlu;
      break;
    }
    case Opcode::FPCast: {
      setResult(I, F,
                encodeF(I->type().kind(),
                        decodeF(I->operand(0)->type().kind(), opI(0))));
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
      const std::uint64_t A =
          allocaLocal(T, static_cast<std::uint64_t>(I->imm()));
      if (T.Status != ThreadStatus::Running)
        return;
      setResult(I, F, A);
      T.Cycles += C.Alu;
      break;
    }
    case Opcode::Load: {
      const DeviceAddr A(opI(0));
      const std::uint64_t V =
          loadMemory(A, I->type().kind(), I->type().sizeInBytes(), T);
      if (T.Status != ThreadStatus::Running)
        return;
      setResult(I, F, V);
      break;
    }
    case Opcode::Store: {
      const DeviceAddr A(opI(1));
      storeMemory(A, I->operand(0)->type().sizeInBytes(), opI(0), T);
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
      const std::uint64_t Old =
          atomicRMW(DeviceAddr(opI(0)), I->atomicOp(), I->type().kind(),
                    I->type().sizeInBytes(), opI(1), T);
      if (T.Status != ThreadStatus::Running)
        return;
      setResult(I, F, Old);
      break;
    }
    case Opcode::CmpXchg: {
      const std::uint64_t Old =
          cmpXchg(DeviceAddr(opI(0)), I->type().kind(),
                  I->type().sizeInBytes(), opI(1), opI(2), T);
      if (T.Status != ThreadStatus::Running)
        return;
      setResult(I, F, Old);
      break;
    }
    case Opcode::Malloc:
      setResult(I, F, deviceMalloc(opI(0), T));
      break;
    case Opcode::Free:
      deviceFree(DeviceAddr(opI(0)), T);
      break;
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
            canonValue(CallSite->type().kind(), RetBits);
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
            canonValue(Callee->arg(A)->type().kind(), opI(A + 1));
      NewF.LocalWatermark = T.Local.watermark();
      NewF.CallSite = I;
      T.Frames.push_back(std::move(NewF));
      T.Cycles += C.CallOverhead;
      Cnt.Calls++;
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
      T.BarrierId = reinterpret_cast<std::uintptr_t>(I);
      T.BarrierAligned = I->opcode() == Opcode::AlignedBarrier;
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
      NativeArgs.clear();
      for (unsigned A = 0; A < I->numOperands(); ++A)
        NativeArgs.push_back(opI(A));
      const std::uint64_t R = callNative(T, I->imm(), I->type().kind(),
                                         GlobalWindow{}, NativeArgs);
      if (T.Status != ThreadStatus::Running)
        return;
      if (!I->type().isVoid())
        setResult(I, F, R);
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
  thread_local TeamScratch<ThreadState> Scratch;
  return TeamExecutor(Config, GM, Registry, Image, TeamId, NumTeams,
                      NumThreads, Kernel, Args, Metrics, Profile, Scratch)
      .run();
}

} // namespace codesign::vgpu

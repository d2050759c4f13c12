//===- exec/NativeCodegen.cpp - IR -> standalone C++ emission --------------===//
//
// Emits one self-contained C++ translation unit per ir::Module. The
// generated code mirrors the tree interpreter instruction by instruction —
// the same canonical 64-bit value encoding (I1 masked, I32 sign-extended,
// f32 stored as its 4 raw bytes), the same intops:: wrapping arithmetic,
// and the same trap conditions and messages — so its outputs are
// bit-identical to the interpreting backends on any input. Speed comes
// from the host compiler, not from semantic shortcuts: values live in
// plain uint64 slots, control flow is gotos, and only traps, native ops,
// device mallocs and barrier suspension call back into the host.
//
// Lanes run on host-side fibers under the team core every engine shares
// (vgpu::TeamCore, driven by NativeBackend.cpp): a barrier — in the kernel
// entry or any callee, including ones reached through the state machine's
// indirect work-function calls — records its site and suspends via
// cg_team::host_suspend, and the core's run-to-barrier loop resumes the
// suspended call stacks. Barrier site ids are unique across the module, so
// they serve as the core's barrier ids.
//
// Layout of a generated TU:
//   includes
//   vgpu/IntOps.hpp          (embedded verbatim at build time)
//   exec/NativeABI.inc       (embedded verbatim; host structs, same bytes)
//   prelude                  (trap/resolve/canon/atomic helpers)
//   static body functions    (cg_f<i>)
//   extern "C" lane entries  (one per kernel; what the fibers run)
//
//===----------------------------------------------------------------------===//
#include "exec/NativeCodegen.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "NativeEmbedded.hpp"
#include "ir/Function.hpp"
#include "ir/Instruction.hpp"
#include "vgpu/TeamCore.hpp"

namespace codesign::exec {

namespace {

using namespace ir;

std::string hexU64(std::uint64_t V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "0x%llxULL",
                static_cast<unsigned long long>(V));
  return Buf;
}

/// C string literal contents for a trap message (octal escapes are
/// self-terminating, unlike \x).
std::string escapeC(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (const char Ch : S) {
    const auto U = static_cast<unsigned char>(Ch);
    if (Ch == '\\' || Ch == '"') {
      Out += '\\';
      Out += Ch;
    } else if (U >= 0x20 && U < 0x7F) {
      Out += Ch;
    } else {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\%03o", U);
      Out += Buf;
    }
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Emitter
//===----------------------------------------------------------------------===//

class Emitter {
public:
  explicit Emitter(const Module &M) : M(M) {
    std::uint32_t GIdx = 0;
    for (const auto &G : M.globals())
      GlobalOrdinal[G.get()] = GIdx++;
    std::uint32_t FIdx = 0;
    for (const auto &F : M.functions())
      FnOrdinal[F.get()] = FIdx++;
  }

  NativeModuleSource run() {
    emitHeader();
    for (const auto &F : M.functions())
      if (!F->isDeclaration())
        emitForwardDecl(*F);
    S += "\n";
    for (const auto &F : M.functions())
      if (!F->isDeclaration())
        emitFunction(*F);
    for (const auto &F : M.functions())
      if (!F->isDeclaration() && F->hasAttr(FnAttr::Kernel))
        emitLaneEntry(*F);
    Out.Source = std::move(S);
    Out.AnyBarriers = NextSite > 0;
    return std::move(Out);
  }

private:
  const Module &M;
  NativeModuleSource Out;
  std::string S;

  std::unordered_map<const GlobalVariable *, std::uint32_t> GlobalOrdinal;
  std::unordered_map<const Function *, std::uint32_t> FnOrdinal;
  /// cpool position of an already-referenced global/function.
  std::unordered_map<const Value *, std::uint32_t> PoolIndex;

  // Per-function state.
  const Function *F = nullptr;
  std::unordered_map<const Value *, std::uint32_t> Slots;
  std::unordered_map<const BasicBlock *, std::uint32_t> BlockIds;
  std::unordered_map<const Instruction *, std::uint32_t> BarrierSites;
  std::uint32_t NextSite = 0; ///< module-global barrier site counter
  std::uint32_t NumSlots = 0;
  bool KernelMode = false;
  std::string Arr;     ///< "R" (lane slots) or "S" (callee-local array)
  std::string RetDflt; ///< "return;" or "return 0ULL;"

  //--- Small emission helpers ----------------------------------------------

  void line(const std::string &Text) {
    S += "  ";
    S += Text;
    S += '\n';
  }

  [[nodiscard]] std::string trapStmt(const std::string &Msg) const {
    return "{ cg_trap(L, \"" + escapeC(Msg) + "\"); " + RetDflt + " }";
  }

  [[nodiscard]] std::uint32_t poolIndexOf(const Value *V, bool IsFunction,
                                          std::uint32_t Ordinal) {
    auto It = PoolIndex.find(V);
    if (It != PoolIndex.end())
      return It->second;
    const auto Pos = static_cast<std::uint32_t>(Out.CPool.size());
    Out.CPool.push_back({IsFunction, Ordinal});
    PoolIndex.emplace(V, Pos);
    return Pos;
  }

  /// Expression for a value's canonical 64-bit representation (mirrors
  /// the tree interpreter's operandValue).
  [[nodiscard]] std::string val(const Value *V) {
    switch (V->kind()) {
    case ValueKind::Instruction:
    case ValueKind::Argument:
      return Arr + "[" + std::to_string(Slots.at(V)) + "]";
    case ValueKind::ConstantInt:
      return hexU64(vgpu::canonInt(
          V->type().kind(),
          static_cast<std::uint64_t>(ir::cast<ir::ConstantInt>(V)->value())));
    case ValueKind::ConstantFP:
      return hexU64(vgpu::encodeF(V->type().kind(),
                                  ir::cast<ir::ConstantFP>(V)->value()));
    case ValueKind::ConstantNull:
    case ValueKind::Undef:
      return "0ULL";
    case ValueKind::GlobalVariable: {
      const auto *G = ir::cast<ir::GlobalVariable>(V);
      return "T->cpool[" +
             std::to_string(poolIndexOf(V, false, GlobalOrdinal.at(G))) + "]";
    }
    case ValueKind::Function: {
      const Function *Fn = Function::fromValue(V);
      return "T->cpool[" +
             std::to_string(poolIndexOf(V, true, FnOrdinal.at(Fn))) + "]";
    }
    }
    return "0ULL";
  }

  /// canonInt as an expression over E (already width-correct bits).
  [[nodiscard]] static std::string canonExpr(Type Ty, const std::string &E) {
    switch (Ty.kind()) {
    case TypeKind::I1:
      return "((" + E + ") & 1ULL)";
    case TypeKind::I32:
      return "cg_sx32(" + E + ")";
    default:
      return "(" + E + ")";
    }
  }

  /// zextToWidth as an expression over E.
  [[nodiscard]] static std::string zextExpr(Type Ty, const std::string &E) {
    switch (Ty.kind()) {
    case TypeKind::I1:
      return "((" + E + ") & 1ULL)";
    case TypeKind::I32:
      return "((" + E + ") & 0xffffffffULL)";
    default:
      return "(" + E + ")";
    }
  }

  [[nodiscard]] static std::string decfCall(Type Ty, const std::string &E) {
    return (Ty.kind() == TypeKind::F32 ? "cg_decf32(" : "cg_decf64(") + E +
           ")";
  }

  [[nodiscard]] static std::string encfCall(Type Ty, const std::string &E) {
    return (Ty.kind() == TypeKind::F32 ? "cg_encf32(" : "cg_encf64(") + E +
           ")";
  }

  [[nodiscard]] std::string slotRef(const Value *V) const {
    return Arr + "[" + std::to_string(Slots.at(V)) + "]";
  }

  /// `Arr[slot(I)] = E;` — or nothing for void-typed instructions.
  [[nodiscard]] std::string setRes(const Instruction *I,
                                   const std::string &E) const {
    if (I->type().isVoid())
      return "(void)(" + E + ");";
    return slotRef(I) + " = " + E + ";";
  }

  //--- Module-level pieces --------------------------------------------------

  void emitHeader() {
    S += "// Generated by codesign exec::NativeBackend. Do not edit.\n";
    S += "#include <atomic>\n#include <cstdint>\n#include <cstdio>\n"
         "#include <cstring>\n\n";
    // vgpu/IntOps.hpp verbatim, minus the include guard (we are the main
    // file here and GCC warns about #pragma once in it).
    std::string IntOps = embedded::IntOpsText;
    const std::size_t Pragma = IntOps.find("#pragma once");
    if (Pragma != std::string::npos)
      IntOps.erase(Pragma, std::strlen("#pragma once"));
    S += IntOps;
    S += "\nnamespace intops = codesign::vgpu::intops;\n\n";
    S += embedded::AbiText;
    S += R"CGPRE(
static constexpr std::uint64_t CG_OFF_MASK = (1ULL << 46) - 1ULL;

static inline void cg_trap(cg_lane *L, const char *Msg) {
  L->trap_msg = Msg;
  L->status = 2u;
}

static inline std::uint64_t cg_sx32(std::uint64_t X) {
  return static_cast<std::uint64_t>(static_cast<std::int64_t>(
      static_cast<std::int32_t>(static_cast<std::uint32_t>(X))));
}

static inline double cg_decf32(std::uint64_t B) {
  const std::uint32_t W = static_cast<std::uint32_t>(B);
  float F;
  std::memcpy(&F, &W, sizeof(F));
  return static_cast<double>(F);
}

static inline double cg_decf64(std::uint64_t B) {
  double D;
  std::memcpy(&D, &B, sizeof(D));
  return D;
}

static inline std::uint64_t cg_encf32(double D) {
  const float F = static_cast<float>(D);
  std::uint32_t W;
  std::memcpy(&W, &F, sizeof(W));
  return static_cast<std::uint64_t>(W);
}

static inline std::uint64_t cg_encf64(double D) {
  std::uint64_t B;
  std::memcpy(&B, &D, sizeof(B));
  return B;
}

// TeamCore::resolve(): device address -> host pointer, trapping with the
// core's exact messages. Local resolution is always against the executing
// lane's arena; growth beyond the mapped prefix goes through the host
// (which also enforces the per-thread capacity).
static std::uint8_t *cg_resolve(cg_lane *L, std::uint64_t A,
                                std::uint64_t Size) {
  cg_team *const T = L->team;
  const std::uint64_t Off = A & CG_OFF_MASK;
  switch (A >> 62) {
  case 1: // global
    if (Off + Size > T->global_size) {
      cg_trap(L, "global access out of bounds");
      return nullptr;
    }
    return T->global_base + Off;
  case 2: // shared
    if (Off + Size > T->shared_cap) {
      cg_trap(L, "shared memory access out of bounds");
      return nullptr;
    }
    if (Off + Size > *T->shared_hwm)
      *T->shared_hwm = Off + Size;
    return T->shared_base + Off;
  case 3: { // local
    const std::uint64_t Owner = (A >> 46) & 0xffffULL;
    if (T->debug_checks && Owner != L->tid) {
      std::snprintf(T->msg_buf, sizeof(T->msg_buf),
                    "cross-thread access to local memory (thread %u "
                    "dereferenced a pointer owned by thread %llu); such "
                    "variables must be globalized",
                    L->tid, static_cast<unsigned long long>(Owner));
      L->trap_msg = T->msg_buf;
      L->status = 2u;
      return nullptr;
    }
    if (Off + Size <= L->local_size)
      return L->local_base + Off;
    return T->host_local_data(T->host, L, Off, Size);
  }
  default: // invalid: null or a function address
    cg_trap(L, A == 0 ? "null pointer dereference"
                      : "dereference of a function address");
    return nullptr;
  }
}

// Interpreter atomicFetchModify: relaxed load + acq_rel/relaxed weak CAS.
template <typename U, typename FnT>
static std::uint64_t cg_atomic_rmw(std::uint8_t *P, FnT Fn) {
  auto *A = reinterpret_cast<std::atomic<U> *>(P);
  U Old = A->load(std::memory_order_relaxed);
  while (!A->compare_exchange_weak(
      Old, static_cast<U>(Fn(static_cast<std::uint64_t>(Old))),
      std::memory_order_acq_rel, std::memory_order_relaxed)) {
  }
  return static_cast<std::uint64_t>(Old);
}

// Interpreter atomicCas: acq_rel/relaxed strong CAS at storage width.
template <typename U>
static std::uint64_t cg_atomic_cas(std::uint8_t *P, std::uint64_t Expected,
                                   std::uint64_t Desired) {
  auto *A = reinterpret_cast<std::atomic<U> *>(P);
  U Exp = static_cast<U>(Expected);
  A->compare_exchange_strong(Exp, static_cast<U>(Desired),
                             std::memory_order_acq_rel,
                             std::memory_order_relaxed);
  return static_cast<std::uint64_t>(Exp);
}

)CGPRE";
  }

  void emitForwardDecl(const Function &Fn) {
    const std::uint32_t Idx = FnOrdinal.at(&Fn);
    if (Fn.hasAttr(FnAttr::Kernel)) {
      S += "static void cg_f" + std::to_string(Idx) + "(cg_lane *const L);\n";
      return;
    }
    S += "static std::uint64_t cg_f" + std::to_string(Idx) +
         "(cg_lane *const L";
    for (unsigned A = 0; A < Fn.numArgs(); ++A)
      S += ", std::uint64_t";
    S += ");\n";
  }

  //--- Function emission ----------------------------------------------------

  void setupFunction(const Function &Fn) {
    F = &Fn;
    Slots.clear();
    BlockIds.clear();
    BarrierSites.clear();
    NumSlots = 0;
    for (unsigned A = 0; A < Fn.numArgs(); ++A)
      Slots[Fn.arg(A)] = NumSlots++;
    std::uint32_t BlockId = 0;
    for (const auto &BB : Fn.blocks()) {
      BlockIds[BB.get()] = BlockId++;
      for (std::size_t Idx = 0; Idx < BB->size(); ++Idx) {
        const Instruction *I = BB->inst(Idx);
        if (!I->type().isVoid())
          Slots[I] = NumSlots++;
        if (I->opcode() == Opcode::Barrier ||
            I->opcode() == Opcode::AlignedBarrier)
          BarrierSites[I] = ++NextSite; // unique across the whole module
      }
    }
  }

  void emitFunction(const Function &Fn) {
    setupFunction(Fn);
    const std::uint32_t Idx = FnOrdinal.at(&Fn);
    KernelMode = Fn.hasAttr(FnAttr::Kernel);
    Arr = KernelMode ? "R" : "S";
    RetDflt = KernelMode ? "return;" : "return 0ULL;";

    S += "\n// @" + Fn.name() + "\n";
    if (KernelMode) {
      Out.Kernels[Fn.name()] = {"codesign_native_kernel_" +
                                    std::to_string(Idx),
                                NumSlots};
      S += "static void cg_f" + std::to_string(Idx) + "(cg_lane *const L) {\n";
      line("cg_team *const T = L->team; (void)T;");
      line("std::uint64_t *const R = L->slots; (void)R;");
    } else {
      S += "static std::uint64_t cg_f" + std::to_string(Idx) +
           "(cg_lane *const L";
      for (unsigned A = 0; A < Fn.numArgs(); ++A)
        S += ", std::uint64_t cg_a" + std::to_string(A);
      S += ") {\n";
      line("cg_team *const T = L->team; (void)T;");
      line("std::uint64_t S[" +
           std::to_string(std::max<std::uint32_t>(NumSlots, 1)) +
           "] = {}; (void)S;");
      for (unsigned A = 0; A < Fn.numArgs(); ++A)
        line("S[" + std::to_string(Slots.at(Fn.arg(A))) + "] = cg_a" +
             std::to_string(A) + ";");
      line("const std::uint64_t cg_wm = L->local_top; (void)cg_wm;");
    }
    line("goto cg_bb" + std::to_string(BlockIds.at(Fn.entry())) + ";");
    for (const auto &BB : Fn.blocks())
      emitBlock(*BB);
    S += "}\n";
  }

  void emitBlock(const BasicBlock &BB) {
    S += "cg_bb" + std::to_string(BlockIds.at(&BB)) + ": ;\n";
    std::size_t Idx = 0;
    // Leading phis are assigned on the incoming edges.
    while (Idx < BB.size() && BB.inst(Idx)->opcode() == Opcode::Phi)
      ++Idx;
    for (; Idx < BB.size(); ++Idx)
      emitInstruction(BB.inst(Idx));
    // Interpreter safety net for blocks without a terminator.
    line(trapStmt("fell off the end of a basic block"));
  }

  /// Parallel phi assignment for the edge Pred -> Succ (the interpreter's
  /// executePhis: evaluate every incoming first, then write — and trap
  /// before any write when an incoming value is missing).
  [[nodiscard]] std::string edgeCopies(const BasicBlock *Pred,
                                       const BasicBlock *Succ) {
    std::vector<std::pair<std::string, std::string>> Items; // slot ref, expr
    for (std::size_t Idx = 0; Idx < Succ->size(); ++Idx) {
      const Instruction *Phi = Succ->inst(Idx);
      if (Phi->opcode() != Opcode::Phi)
        break;
      const Value *In = Phi->incomingFor(Pred);
      if (!In)
        return trapStmt("phi has no incoming value for predecessor") + " ";
      Items.emplace_back(slotRef(Phi), val(In));
    }
    if (Items.empty())
      return "";
    std::string Code = "{ ";
    for (std::size_t K = 0; K < Items.size(); ++K)
      Code += "const std::uint64_t cg_t" + std::to_string(K) + " = " +
              Items[K].second + "; ";
    for (std::size_t K = 0; K < Items.size(); ++K)
      Code += Items[K].first + " = cg_t" + std::to_string(K) + "; ";
    Code += "} ";
    return Code;
  }

  [[nodiscard]] std::string branchTo(const BasicBlock *Pred,
                                     const BasicBlock *Succ) {
    return edgeCopies(Pred, Succ) + "goto cg_bb" +
           std::to_string(BlockIds.at(Succ)) + ";";
  }

  //--- Instruction emission -------------------------------------------------

  void emitInstruction(const Instruction *I);
  void emitIntBinop(const Instruction *I);
  void emitAtomicRMW(const Instruction *I);
  void emitCmpXchg(const Instruction *I);
  void emitCall(const Instruction *I);
  void emitNativeOp(const Instruction *I);

  /// One call expression for target Callee (a known function with a body),
  /// or the interpreter's trap for declarations/arity mismatches. Appends
  /// statements assigning cg_v.
  [[nodiscard]] std::string callTarget(const Instruction *I,
                                       const Function *Callee) {
    if (Callee->isDeclaration())
      return trapStmt("call to unresolved external function '" +
                      Callee->name() + "'");
    if (Callee->numArgs() != I->numCallArgs())
      return trapStmt("indirect call argument count mismatch for '" +
                      Callee->name() + "'");
    if (Callee->hasAttr(FnAttr::Kernel))
      return trapStmt("native backend limit: call to a kernel entry");
    std::string Code =
        "cg_v = cg_f" + std::to_string(FnOrdinal.at(Callee)) + "(L";
    for (unsigned A = 0; A < Callee->numArgs(); ++A)
      Code += ", " + canonExpr(Callee->arg(A)->type(), val(I->operand(A + 1)));
    Code += ");";
    return Code;
  }

  void emitLaneEntry(const Function &Fn);
};

void Emitter::emitIntBinop(const Instruction *I) {
  const Type Ty = I->type();
  const std::string A = val(I->operand(0));
  const std::string B = val(I->operand(1));
  const std::string UA = zextExpr(Ty, A);
  const std::string UB = zextExpr(Ty, B);
  const std::string ShMask = Ty.kind() == TypeKind::I32 ? "31ULL" : "63ULL";
  switch (I->opcode()) {
  case Opcode::Add:
    line(setRes(I, canonExpr(Ty, "intops::addWrap(" + A + ", " + B + ")")));
    return;
  case Opcode::Sub:
    line(setRes(I, canonExpr(Ty, "intops::subWrap(" + A + ", " + B + ")")));
    return;
  case Opcode::Mul:
    line(setRes(I, canonExpr(Ty, "intops::mulWrap(" + A + ", " + B + ")")));
    return;
  case Opcode::SDiv:
  case Opcode::SRem:
  case Opcode::UDiv:
  case Opcode::URem: {
    const bool Signed =
        I->opcode() == Opcode::SDiv || I->opcode() == Opcode::SRem;
    const bool IsDiv =
        I->opcode() == Opcode::SDiv || I->opcode() == Opcode::UDiv;
    const std::string Fn = Signed ? (IsDiv ? "sdiv" : "srem")
                                  : (IsDiv ? "udiv" : "urem");
    const std::string &LhsE = Signed ? A : UA;
    const std::string &RhsE = Signed ? B : UB;
    line("{ std::uint64_t cg_r = 0;");
    line("  if (!intops::" + Fn + "(" + LhsE + ", " + RhsE + ", cg_r)) " +
         trapStmt(IsDiv ? "integer division by zero"
                        : "integer remainder by zero"));
    line("  " + setRes(I, canonExpr(Ty, "cg_r")) + " }");
    return;
  }
  case Opcode::And:
    line(setRes(I, canonExpr(Ty, "(" + A + ") & (" + B + ")")));
    return;
  case Opcode::Or:
    line(setRes(I, canonExpr(Ty, "(" + A + ") | (" + B + ")")));
    return;
  case Opcode::Xor:
    line(setRes(I, canonExpr(Ty, "(" + A + ") ^ (" + B + ")")));
    return;
  case Opcode::Shl:
    line(setRes(I, canonExpr(Ty, UA + " << (" + UB + " & " + ShMask + ")")));
    return;
  case Opcode::LShr:
    line(setRes(I, canonExpr(Ty, UA + " >> (" + UB + " & " + ShMask + ")")));
    return;
  case Opcode::AShr:
    line(setRes(I, canonExpr(Ty, "intops::ashr(" + A +
                                     ", static_cast<unsigned>(" + UB + " & " +
                                     ShMask + "))")));
    return;
  default:
    line(trapStmt("native backend limit: unsupported opcode"));
    return;
  }
}

void Emitter::emitAtomicRMW(const Instruction *I) {
  const Type Ty = I->type();
  const unsigned Size = Ty.sizeInBytes();
  const std::string SizeS = std::to_string(Size);
  line("{ const std::uint64_t cg_a = " + val(I->operand(0)) + ";");
  line("  std::uint8_t *const cg_p = cg_resolve(L, cg_a, " + SizeS + ");");
  line("  if (!cg_p) { " + RetDflt + " }");
  line("  const std::int64_t cg_val = static_cast<std::int64_t>(" +
       val(I->operand(1)) + ");");
  const std::string OldC =
      Ty.isInteger() ? canonExpr(Ty, "cg_old") : std::string("(cg_old)");
  line("  const auto cg_new = [&](std::uint64_t cg_old) -> std::uint64_t {");
  line("    const std::uint64_t cg_oldc = " + OldC + ";");
  line("    const std::int64_t cg_olds = "
       "static_cast<std::int64_t>(cg_oldc); (void)cg_olds;");
  line("    std::int64_t cg_n = 0;");
  switch (I->atomicOp()) {
  case AtomicOp::Add:
    line("    cg_n = static_cast<std::int64_t>(intops::addWrap(cg_oldc, "
         "static_cast<std::uint64_t>(cg_val)));");
    break;
  case AtomicOp::Max:
    line("    cg_n = cg_olds > cg_val ? cg_olds : cg_val;");
    break;
  case AtomicOp::Min:
    line("    cg_n = cg_olds < cg_val ? cg_olds : cg_val;");
    break;
  case AtomicOp::Exchange:
    line("    cg_n = cg_val;");
    break;
  }
  line("    return static_cast<std::uint64_t>(cg_n);");
  line("  };");
  line("  std::uint64_t cg_raw = 0;");
  if (Size == 4 || Size == 8) {
    const std::string U = Size == 4 ? "std::uint32_t" : "std::uint64_t";
    line("  if ((cg_a >> 62) == 1ULL && "
         "(reinterpret_cast<std::uintptr_t>(cg_p) % " +
         SizeS + ") == 0) {");
    line("    cg_raw = cg_atomic_rmw<" + U + ">(cg_p, cg_new);");
    line("  } else {");
  } else {
    line("  {");
  }
  line("    std::memcpy(&cg_raw, cg_p, " + SizeS + ");");
  line("    const std::uint64_t cg_nb = cg_new(cg_raw);");
  line("    std::memcpy(cg_p, &cg_nb, " + SizeS + ");");
  line("  }");
  const std::string Result =
      Ty.isInteger() ? canonExpr(Ty, "cg_raw") : std::string("cg_raw");
  line("  " + setRes(I, Result) + " }");
}

void Emitter::emitCmpXchg(const Instruction *I) {
  const Type Ty = I->type();
  const unsigned Size = Ty.sizeInBytes();
  const std::string SizeS = std::to_string(Size);
  line("{ const std::uint64_t cg_a = " + val(I->operand(0)) + ";");
  line("  std::uint8_t *const cg_p = cg_resolve(L, cg_a, " + SizeS + ");");
  line("  if (!cg_p) { " + RetDflt + " }");
  line("  const std::uint64_t cg_exp = " + val(I->operand(1)) + ";");
  line("  const std::uint64_t cg_des = " + val(I->operand(2)) + ";");
  line("  std::uint64_t cg_raw = 0;");
  if (Size == 4 || Size == 8) {
    const std::string U = Size == 4 ? "std::uint32_t" : "std::uint64_t";
    line("  if ((cg_a >> 62) == 1ULL && "
         "(reinterpret_cast<std::uintptr_t>(cg_p) % " +
         SizeS + ") == 0) {");
    line("    cg_raw = cg_atomic_cas<" + U + ">(cg_p, cg_exp, cg_des);");
    line("  } else {");
  } else {
    line("  {");
  }
  const std::string OldC =
      Ty.isInteger() ? canonExpr(Ty, "cg_raw") : std::string("cg_raw");
  line("    std::memcpy(&cg_raw, cg_p, " + SizeS + ");");
  line("    if (" + OldC + " == cg_exp) { std::memcpy(cg_p, &cg_des, " +
       SizeS + "); }");
  line("  }");
  line("  " + setRes(I, OldC) + " }");
}

void Emitter::emitCall(const Instruction *I) {
  line("{ std::uint64_t cg_v = 0; (void)cg_v;");
  if (const Function *Callee = I->calledFunction()) {
    line("  " + callTarget(I, Callee));
  } else {
    line("  const std::uint64_t cg_tgt = " + val(I->operand(0)) + ";");
    line("  if (cg_tgt == 0ULL || (cg_tgt >> 62) != 0ULL) " +
         trapStmt("indirect call to a non-function address"));
    line("  switch ((cg_tgt & CG_OFF_MASK) - 1ULL) {");
    std::uint32_t Idx = 0;
    for (const auto &Target : M.functions()) {
      line("  case " + std::to_string(Idx) + "ULL: " +
           (Target->numArgs() == I->numCallArgs() || Target->isDeclaration()
                ? callTarget(I, Target.get())
                : trapStmt("indirect call argument count mismatch for '" +
                           Target->name() + "'")) +
           " break;");
      ++Idx;
    }
    line("  default: " + trapStmt("indirect call to a non-function address"));
    line("  }");
  }
  line("  if (L->status != 0u) { " + RetDflt + " }");
  if (!I->type().isVoid())
    line("  " + setRes(I, canonExpr(I->type(), "cg_v")));
  line("}");
}

void Emitter::emitNativeOp(const Instruction *I) {
  const unsigned N = I->numOperands();
  line("{");
  if (N > 0) {
    std::string Init = "  const std::uint64_t cg_na[" + std::to_string(N) +
                       "] = {";
    for (unsigned A = 0; A < N; ++A)
      Init += (A ? ", " : "") + val(I->operand(A));
    Init += "};";
    line(Init);
  } else {
    line("  const std::uint64_t *cg_na = nullptr;");
  }
  line("  const std::uint64_t cg_v = T->host_native_op(T->host, L, " +
       std::to_string(I->imm()) + "LL, cg_na, " + std::to_string(N) + "u, " +
       std::to_string(static_cast<unsigned>(I->type().kind())) +
       "u); (void)cg_v;");
  line("  if (L->status != 0u) { " + RetDflt + " }");
  if (!I->type().isVoid())
    line("  " + setRes(I, "cg_v"));
  line("}");
}

void Emitter::emitInstruction(const Instruction *I) {
  switch (I->opcode()) {
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
  case Opcode::AShr:
    emitIntBinop(I);
    return;
  case Opcode::FAdd:
  case Opcode::FSub:
  case Opcode::FMul:
  case Opcode::FDiv: {
    const Type Ty = I->type();
    const char Op = I->opcode() == Opcode::FAdd   ? '+'
                    : I->opcode() == Opcode::FSub ? '-'
                    : I->opcode() == Opcode::FMul ? '*'
                                                  : '/';
    line(setRes(I, encfCall(Ty, decfCall(Ty, val(I->operand(0))) + " " + Op +
                                    " " +
                                    decfCall(Ty, val(I->operand(1))))));
    return;
  }
  case Opcode::ICmp: {
    const std::string A = val(I->operand(0));
    const std::string B = val(I->operand(1));
    const std::string SA = "static_cast<std::int64_t>(" + A + ")";
    const std::string SB = "static_cast<std::int64_t>(" + B + ")";
    std::string Cmp;
    switch (I->pred()) {
    case CmpPred::EQ:
      Cmp = "(" + A + ") == (" + B + ")";
      break;
    case CmpPred::NE:
      Cmp = "(" + A + ") != (" + B + ")";
      break;
    case CmpPred::SLT:
      Cmp = SA + " < " + SB;
      break;
    case CmpPred::SLE:
      Cmp = SA + " <= " + SB;
      break;
    case CmpPred::SGT:
      Cmp = SA + " > " + SB;
      break;
    case CmpPred::SGE:
      Cmp = SA + " >= " + SB;
      break;
    case CmpPred::ULT:
      Cmp = "(" + A + ") < (" + B + ")";
      break;
    case CmpPred::ULE:
      Cmp = "(" + A + ") <= (" + B + ")";
      break;
    case CmpPred::UGT:
      Cmp = "(" + A + ") > (" + B + ")";
      break;
    case CmpPred::UGE:
      Cmp = "(" + A + ") >= (" + B + ")";
      break;
    default:
      line(trapStmt("native backend limit: unsupported compare"));
      return;
    }
    line(setRes(I, "(" + Cmp + ") ? 1ULL : 0ULL"));
    return;
  }
  case Opcode::FCmp: {
    const Type Ty = I->operand(0)->type();
    const std::string A = decfCall(Ty, val(I->operand(0)));
    const std::string B = decfCall(Ty, val(I->operand(1)));
    std::string Op;
    switch (I->pred()) {
    case CmpPred::OEQ:
      Op = "==";
      break;
    case CmpPred::ONE:
      Op = "!=";
      break;
    case CmpPred::OLT:
      Op = "<";
      break;
    case CmpPred::OLE:
      Op = "<=";
      break;
    case CmpPred::OGT:
      Op = ">";
      break;
    case CmpPred::OGE:
      Op = ">=";
      break;
    default:
      line(trapStmt("native backend limit: unsupported compare"));
      return;
    }
    line(setRes(I, "(" + A + " " + Op + " " + B + ") ? 1ULL : 0ULL"));
    return;
  }
  case Opcode::Select:
    line(setRes(I, "(" + val(I->operand(0)) + ") ? (" + val(I->operand(1)) +
                       ") : (" + val(I->operand(2)) + ")"));
    return;
  case Opcode::ZExt:
    line(setRes(I, canonExpr(I->type(), zextExpr(I->operand(0)->type(),
                                                 val(I->operand(0))))));
    return;
  case Opcode::SExt:
  case Opcode::Trunc:
    line(setRes(I, canonExpr(I->type(), val(I->operand(0)))));
    return;
  case Opcode::SIToFP:
    line(setRes(I, encfCall(I->type(),
                            "static_cast<double>(static_cast<std::int64_t>(" +
                                val(I->operand(0)) + "))")));
    return;
  case Opcode::FPToSI:
    line(setRes(
        I, canonExpr(I->type(),
                     "static_cast<std::uint64_t>(intops::fpToI64(" +
                         decfCall(I->operand(0)->type(), val(I->operand(0))) +
                         "))")));
    return;
  case Opcode::FPCast:
    line(setRes(I, encfCall(I->type(), decfCall(I->operand(0)->type(),
                                                val(I->operand(0))))));
    return;
  case Opcode::PtrToInt:
  case Opcode::IntToPtr:
    line(setRes(I, val(I->operand(0))));
    return;
  case Opcode::Alloca: {
    const std::string Size = std::to_string(I->imm()) + "ULL";
    line("{ const std::uint64_t cg_off = (L->local_top + 15ULL) & ~15ULL;");
    line("  if (cg_off + " + Size + " > T->local_cap) " +
         trapStmt("local memory exhausted"));
    line("  L->local_top = cg_off + " + Size + ";");
    line("  " +
         setRes(I, "(3ULL << 62) | ((static_cast<std::uint64_t>(L->tid) & "
                   "0xffffULL) << 46) | (cg_off & CG_OFF_MASK)") +
         " }");
    return;
  }
  case Opcode::Load: {
    const Type Ty = I->type();
    const std::string SizeS = std::to_string(Ty.sizeInBytes());
    line("{ std::uint8_t *const cg_p = cg_resolve(L, " + val(I->operand(0)) +
         ", " + SizeS + ");");
    line("  if (!cg_p) { " + RetDflt + " }");
    line("  std::uint64_t cg_v = 0; std::memcpy(&cg_v, cg_p, " + SizeS +
         ");");
    line("  " +
         setRes(I, Ty.isInteger() ? canonExpr(Ty, "cg_v")
                                  : std::string("cg_v")) +
         " }");
    return;
  }
  case Opcode::Store: {
    const std::string SizeS =
        std::to_string(I->operand(0)->type().sizeInBytes());
    line("{ std::uint8_t *const cg_p = cg_resolve(L, " + val(I->operand(1)) +
         ", " + SizeS + ");");
    line("  if (!cg_p) { " + RetDflt + " }");
    line("  const std::uint64_t cg_v = " + val(I->operand(0)) + ";");
    line("  std::memcpy(cg_p, &cg_v, " + SizeS + "); }");
    return;
  }
  case Opcode::Gep: {
    line("{ const std::uint64_t cg_a = " + val(I->operand(0)) + ";");
    line("  " +
         setRes(I, "(cg_a & ~CG_OFF_MASK) | (((cg_a & CG_OFF_MASK) + "
                   "static_cast<std::uint64_t>(static_cast<std::int64_t>(" +
                       val(I->operand(1)) + "))) & CG_OFF_MASK)") +
         " }");
    return;
  }
  case Opcode::AtomicRMW:
    emitAtomicRMW(I);
    return;
  case Opcode::CmpXchg:
    emitCmpXchg(I);
    return;
  case Opcode::Malloc:
    line(setRes(I, "T->host_malloc(T->host, L, " + val(I->operand(0)) + ")"));
    return;
  case Opcode::Free:
    line("T->host_free(T->host, L, " + val(I->operand(0)) + ");");
    return;
  case Opcode::Br:
    line(branchTo(I->parent(), I->blockOperand(0)));
    return;
  case Opcode::CondBr:
    line("if (" + val(I->operand(0)) + ") { " +
         branchTo(I->parent(), I->blockOperand(0)) + " } else { " +
         branchTo(I->parent(), I->blockOperand(1)) + " }");
    return;
  case Opcode::Ret:
    if (KernelMode) {
      line("L->local_top = 0; L->status = 1u; return;");
    } else {
      const std::string RV =
          I->numOperands() == 1 ? val(I->operand(0)) : std::string("0ULL");
      line("{ const std::uint64_t cg_rv = " + RV +
           "; L->local_top = cg_wm; return cg_rv; }");
    }
    return;
  case Opcode::Unreachable:
    line(trapStmt("unreachable executed"));
    return;
  case Opcode::Phi:
    line(trapStmt("phi encountered mid-block"));
    return;
  case Opcode::Call:
    emitCall(I);
    return;
  case Opcode::ThreadId:
    line(setRes(I, "static_cast<std::uint64_t>(L->tid)"));
    return;
  case Opcode::BlockId:
    line(setRes(I, "static_cast<std::uint64_t>(T->team_id)"));
    return;
  case Opcode::BlockDim:
    line(setRes(I, "static_cast<std::uint64_t>(T->num_threads)"));
    return;
  case Opcode::GridDim:
    line(setRes(I, "static_cast<std::uint64_t>(T->num_teams)"));
    return;
  case Opcode::WarpSize:
    line(setRes(I, "static_cast<std::uint64_t>(T->warp_size)"));
    return;
  case Opcode::Barrier:
  case Opcode::AlignedBarrier: {
    // Suspend this lane's fiber at the rendezvous; the team core
    // releases it (status back to 0) once every live lane has arrived, and
    // execution continues right here — whatever the call depth.
    const std::string SiteS = std::to_string(BarrierSites.at(I));
    line("L->barrier_site = " + SiteS + "u; L->barrier_aligned = " +
         (I->opcode() == Opcode::AlignedBarrier ? "1u" : "0u") +
         "; L->status = 3u; T->host_suspend(T->host, L);");
    return;
  }
  case Opcode::Assume:
    line("if (T->debug_checks && (" + val(I->operand(0)) + ") == 0ULL) " +
         trapStmt("compiler assumption violated at runtime (in @" +
                  F->name() + ", block '" + I->parent()->name() + "')"));
    return;
  case Opcode::AssertFail:
    line("if (T->debug_checks && (" + val(I->operand(0)) + ") == 0ULL) " +
         trapStmt("assertion failed: " + I->str()));
    return;
  case Opcode::Trap:
    line(trapStmt("trap executed"));
    return;
  case Opcode::NativeOp:
    emitNativeOp(I);
    return;
  }
  line(trapStmt("native backend limit: unsupported opcode"));
}

/// The exported per-kernel lane entry: what the host runs for each lane,
/// on its fiber. Scheduling (strict lane-order sweeps, trap-stops-team,
/// livelock detection, the barrier rendezvous) is the team core's run().
void Emitter::emitLaneEntry(const Function &Fn) {
  S += "\nextern \"C\" void " + Out.Kernels.at(Fn.name()).Symbol +
       "(void *LanePtr) {\n  cg_f" + std::to_string(FnOrdinal.at(&Fn)) +
       "(static_cast<cg_lane *>(LanePtr));\n}\n";
}

} // namespace

NativeModuleSource emitNativeModule(const ir::Module &M) {
  return Emitter(M).run();
}

} // namespace codesign::exec

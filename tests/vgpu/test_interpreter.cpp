#include "vgpu/VirtualGPU.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "ir/IRBuilder.hpp"
#include "ir/Verifier.hpp"

namespace codesign::vgpu {
namespace {

using namespace ir;

/// Build a kernel `out[gid] = f(gid)` as a grid-stride loop — the shape of
/// the paper's Figure 5 worksharing core, hand-lowered like CUDA.
void buildGridStrideKernel(Module &M, const std::string &Name,
                           const std::function<Value *(IRBuilder &, Value *)>
                               &ComputeFromIv) {
  Function *K = M.createFunction(Name, Type::voidTy(),
                                 {Type::ptr(), Type::i64()});
  K->addAttr(FnAttr::Kernel);
  BasicBlock *Entry = K->createBlock("entry");
  BasicBlock *Header = K->createBlock("header");
  BasicBlock *Body = K->createBlock("body");
  BasicBlock *Exit = K->createBlock("exit");
  IRBuilder B(M);
  B.setInsertPoint(Entry);
  Value *Tid = B.zext(B.threadId(), Type::i64());
  Value *Bid = B.zext(B.blockId(), Type::i64());
  Value *Dim = B.zext(B.blockDim(), Type::i64());
  Value *Grid = B.zext(B.gridDim(), Type::i64());
  Value *Start = B.add(B.mul(Bid, Dim), Tid);
  Value *Stride = B.mul(Grid, Dim);
  B.br(Header);
  B.setInsertPoint(Header);
  Instruction *IV = B.phi(Type::i64());
  Value *InRange = B.icmpSLT(IV, K->arg(1));
  B.condBr(InRange, Body, Exit);
  B.setInsertPoint(Body);
  Value *Elt = B.gep(K->arg(0), B.mul(IV, B.i64(8)));
  B.store(ComputeFromIv(B, IV), Elt);
  Value *Next = B.add(IV, Stride);
  B.br(Header);
  IV->addIncoming(Start, Entry);
  IV->addIncoming(Next, Body);
  B.setInsertPoint(Exit);
  B.retVoid();
  ASSERT_TRUE(verifyModule(M).empty());
}

TEST(Interpreter, GridStrideCoversEveryIterationExactlyOnce) {
  Module M;
  buildGridStrideKernel(M, "iota", [](IRBuilder &B, Value *IV) {
    return B.add(IV, B.i64(1));
  });
  VirtualGPU GPU;
  auto Image = GPU.loadImage(M);
  constexpr std::uint64_t N = 1000;
  DeviceAddr Buf = GPU.allocate(N * 8);
  std::vector<std::uint8_t> Zero(N * 8, 0);
  GPU.write(Buf, Zero);
  std::uint64_t Args[] = {Buf.Bits, N};
  LaunchResult R = GPU.launch(*Image, "iota", Args, /*Teams=*/7,
                              /*Threads=*/33);
  ASSERT_TRUE(R.Ok) << R.Error;
  std::vector<std::uint8_t> Raw(N * 8);
  GPU.read(Buf, Raw);
  for (std::uint64_t I = 0; I < N; ++I) {
    std::int64_t V;
    std::memcpy(&V, Raw.data() + I * 8, 8);
    EXPECT_EQ(V, static_cast<std::int64_t>(I + 1)) << "index " << I;
  }
}

/// Property sweep: coverage holds for awkward team/thread/tripcount shapes
/// (fewer iterations than threads, non-divisible sizes, single thread).
struct LaunchShape {
  std::uint32_t Teams, Threads;
  std::uint64_t N;
};
class GridStrideShapes : public ::testing::TestWithParam<LaunchShape> {};

TEST_P(GridStrideShapes, SumMatches) {
  const LaunchShape S = GetParam();
  Module M;
  buildGridStrideKernel(M, "iota", [](IRBuilder &B, Value *IV) {
    return B.add(IV, B.i64(1));
  });
  VirtualGPU GPU;
  auto Image = GPU.loadImage(M);
  DeviceAddr Buf = GPU.allocate(std::max<std::uint64_t>(S.N, 1) * 8);
  std::vector<std::uint8_t> Zero(std::max<std::uint64_t>(S.N, 1) * 8, 0);
  GPU.write(Buf, Zero);
  std::uint64_t Args[] = {Buf.Bits, S.N};
  LaunchResult R = GPU.launch(*Image, "iota", Args, S.Teams, S.Threads);
  ASSERT_TRUE(R.Ok) << R.Error;
  std::vector<std::uint8_t> Raw(std::max<std::uint64_t>(S.N, 1) * 8);
  GPU.read(Buf, Raw);
  std::int64_t Sum = 0;
  for (std::uint64_t I = 0; I < S.N; ++I) {
    std::int64_t V;
    std::memcpy(&V, Raw.data() + I * 8, 8);
    Sum += V;
  }
  EXPECT_EQ(Sum, static_cast<std::int64_t>(S.N * (S.N + 1) / 2));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GridStrideShapes,
    ::testing::Values(LaunchShape{1, 1, 17}, LaunchShape{1, 64, 10},
                      LaunchShape{16, 32, 1}, LaunchShape{3, 5, 1000},
                      LaunchShape{8, 128, 4096}, LaunchShape{2, 7, 0}));

TEST(Interpreter, FloatArithmetic) {
  Module M2;
  Function *K = M2.createFunction("fsq", Type::voidTy(),
                                  {Type::ptr(), Type::i64()});
  K->addAttr(FnAttr::Kernel);
  IRBuilder B(M2);
  B.setInsertPoint(K->createBlock("entry"));
  Value *Tid = B.zext(B.threadId(), Type::i64());
  Value *D = B.sitofp(Tid, Type::f64());
  Value *Sq = B.fadd(B.fmul(D, D), B.f64(0.5));
  Value *Elt = B.gep(K->arg(0), B.mul(Tid, B.i64(8)));
  // Store the f64 bit pattern.
  B.store(Sq, Elt);
  B.retVoid();
  ASSERT_TRUE(verifyModule(M2).empty());

  VirtualGPU GPU;
  auto Image = GPU.loadImage(M2);
  constexpr std::uint32_t T = 8;
  DeviceAddr Buf = GPU.allocate(T * 8);
  std::uint64_t Args[] = {Buf.Bits, T};
  LaunchResult R = GPU.launch(*Image, "fsq", Args, 1, T);
  ASSERT_TRUE(R.Ok) << R.Error;
  std::vector<std::uint8_t> Raw(T * 8);
  GPU.read(Buf, Raw);
  for (std::uint32_t I = 0; I < T; ++I) {
    double V;
    std::memcpy(&V, Raw.data() + I * 8, 8);
    EXPECT_DOUBLE_EQ(V, I * static_cast<double>(I) + 0.5);
  }
}

TEST(Interpreter, UnsignedOpsOnI32) {
  // udiv/lshr on i32 must operate on the 32-bit value, not the canonical
  // sign-extended representation.
  Module M;
  Function *K = M.createFunction("u32", Type::voidTy(), {Type::ptr()});
  K->addAttr(FnAttr::Kernel);
  IRBuilder B(M);
  B.setInsertPoint(K->createBlock("entry"));
  Value *Neg = B.i32(-8); // 0xFFFFFFF8 as u32
  Value *Div = B.udiv(Neg, B.i32(16)); // 0x0FFFFFFF
  Value *Shr = B.lshr(Neg, B.i32(4));  // 0x0FFFFFFF
  B.store(Div, K->arg(0));
  B.store(Shr, B.gep(K->arg(0), 4));
  Value *Cmp = B.cmp(CmpPred::UGT, Neg, B.i32(7)); // true as unsigned
  B.store(B.zext(Cmp, Type::i32()), B.gep(K->arg(0), 8));
  B.retVoid();
  VirtualGPU GPU;
  auto Image = GPU.loadImage(M);
  DeviceAddr Buf = GPU.allocate(12);
  std::uint64_t Args[] = {Buf.Bits};
  ASSERT_TRUE(GPU.launch(*Image, "u32", Args, 1, 1).Ok);
  std::vector<std::uint8_t> Raw(12);
  GPU.read(Buf, Raw);
  std::uint32_t DivV, ShrV, CmpV;
  std::memcpy(&DivV, Raw.data(), 4);
  std::memcpy(&ShrV, Raw.data() + 4, 4);
  std::memcpy(&CmpV, Raw.data() + 8, 4);
  EXPECT_EQ(DivV, 0xFFFFFFF8u / 16);
  EXPECT_EQ(ShrV, 0xFFFFFFF8u >> 4);
  EXPECT_EQ(CmpV, 1u);
}

TEST(Interpreter, NativeOpRoundTrip) {
  Module M;
  Function *K = M.createFunction("native", Type::voidTy(),
                                 {Type::ptr(), Type::f64()});
  K->addAttr(FnAttr::Kernel);
  IRBuilder B(M);
  B.setInsertPoint(K->createBlock("entry"));
  NativeOpFlags Flags;
  Flags.ReadsMemory = false;
  Flags.WritesMemory = true;
  Value *R = B.nativeOp(0, Type::f64(), {K->arg(0), K->arg(1)}, Flags);
  B.store(R, B.gep(K->arg(0), 8));
  B.retVoid();

  VirtualGPU GPU;
  GPU.registry().add(NativeOpInfo{
      "triple_and_store",
      [](NativeCtx &Ctx) {
        const double X = Ctx.argF64(1);
        Ctx.storeF64(Ctx.argPtr(0), X + 1.0);
        Ctx.chargeCycles(50);
        Ctx.setResultF64(3.0 * X);
      },
      4});
  auto Image = GPU.loadImage(M);
  DeviceAddr Buf = GPU.allocate(16);
  double Xin = 2.5;
  std::uint64_t XBits;
  std::memcpy(&XBits, &Xin, 8);
  std::uint64_t Args[] = {Buf.Bits, XBits};
  LaunchResult R2 = GPU.launch(*Image, "native", Args, 1, 1);
  ASSERT_TRUE(R2.Ok) << R2.Error;
  EXPECT_EQ(R2.Metrics.NativeCycles, 50u);
  double A, Bv;
  std::vector<std::uint8_t> Raw(16);
  GPU.read(Buf, Raw);
  std::memcpy(&A, Raw.data(), 8);
  std::memcpy(&Bv, Raw.data() + 8, 8);
  EXPECT_DOUBLE_EQ(A, 3.5);
  EXPECT_DOUBLE_EQ(Bv, 7.5);
}

TEST(Interpreter, DeviceMallocAndFree) {
  Module M;
  Function *K = M.createFunction("heap", Type::voidTy(), {Type::ptr()});
  K->addAttr(FnAttr::Kernel);
  IRBuilder B(M);
  B.setInsertPoint(K->createBlock("entry"));
  Value *P = B.mallocOp(B.i64(64));
  B.store(B.i64(99), P);
  Value *V = B.load(Type::i64(), P);
  B.store(V, K->arg(0));
  B.freeOp(P);
  B.retVoid();
  VirtualGPU GPU;
  auto Image = GPU.loadImage(M);
  DeviceAddr Buf = GPU.allocate(8);
  const std::uint64_t Before = GPU.bytesInUse();
  std::uint64_t Args[] = {Buf.Bits};
  LaunchResult R = GPU.launch(*Image, "heap", Args, 1, 1);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Metrics.DeviceMallocs, 1u);
  EXPECT_EQ(GPU.bytesInUse(), Before) << "kernel-side malloc must be freed";
  std::vector<std::uint8_t> Raw(8);
  GPU.read(Buf, Raw);
  std::int64_t V2;
  std::memcpy(&V2, Raw.data(), 8);
  EXPECT_EQ(V2, 99);
}

TEST(Interpreter, CallsAndReturnValues) {
  Module M;
  Function *Sq = M.createFunction("sq", Type::i64(), {Type::i64()});
  Sq->addAttr(FnAttr::Internal);
  IRBuilder B(M);
  B.setInsertPoint(Sq->createBlock("entry"));
  B.ret(B.mul(Sq->arg(0), Sq->arg(0)));

  Function *K = M.createFunction("call_k", Type::voidTy(), {Type::ptr()});
  K->addAttr(FnAttr::Kernel);
  B.setInsertPoint(K->createBlock("entry"));
  Value *R = B.call(Sq, {B.i64(12)});
  B.store(R, K->arg(0));
  B.retVoid();

  VirtualGPU GPU;
  auto Image = GPU.loadImage(M);
  DeviceAddr Buf = GPU.allocate(8);
  std::uint64_t Args[] = {Buf.Bits};
  LaunchResult LR = GPU.launch(*Image, "call_k", Args, 1, 4);
  ASSERT_TRUE(LR.Ok) << LR.Error;
  EXPECT_EQ(LR.Metrics.Calls, 4u);
  std::vector<std::uint8_t> Raw(8);
  GPU.read(Buf, Raw);
  std::int64_t V;
  std::memcpy(&V, Raw.data(), 8);
  EXPECT_EQ(V, 144);
}

TEST(Interpreter, IndirectCallThroughSharedSlot) {
  // The essence of the generic-mode state machine: the main thread stores a
  // work-function address into shared memory; workers load and call it.
  Module M;
  GlobalVariable *Slot = M.createGlobal("workfn", AddrSpace::Shared, 8);
  Function *Work = M.createFunction("work", Type::i64(), {});
  Work->addAttr(FnAttr::Internal);
  IRBuilder B(M);
  B.setInsertPoint(Work->createBlock("entry"));
  B.ret(B.i64(77));

  Function *K = M.createFunction("indirect", Type::voidTy(), {Type::ptr()});
  K->addAttr(FnAttr::Kernel);
  BasicBlock *Entry = K->createBlock("entry");
  BasicBlock *IsMain = K->createBlock("is_main");
  BasicBlock *AfterStore = K->createBlock("after_store");
  B.setInsertPoint(Entry);
  Value *Tid = B.threadId();
  B.condBr(B.icmpEQ(Tid, B.i32(0)), IsMain, AfterStore);
  B.setInsertPoint(IsMain);
  B.store(Work->asValue(), Slot);
  B.br(AfterStore);
  B.setInsertPoint(AfterStore);
  B.barrier();
  Value *Fn = B.load(Type::ptr(), Slot);
  Value *R = B.callIndirect(Type::i64(), Fn, {});
  // out[bid * T + tid]: teams store to disjoint words.
  Value *Row = B.mul(B.zext(B.blockId(), Type::i64()),
                     B.zext(B.blockDim(), Type::i64()));
  Value *Idx = B.add(Row, B.zext(Tid, Type::i64()));
  B.store(R, B.gep(K->arg(0), B.mul(Idx, B.i64(8))));
  B.retVoid();
  ASSERT_TRUE(verifyModule(M).empty());

  VirtualGPU GPU;
  auto Image = GPU.loadImage(M);
  constexpr std::uint32_t T = 16, Teams = 2;
  DeviceAddr Buf = GPU.allocate(Teams * T * 8);
  std::uint64_t Args[] = {Buf.Bits};
  LaunchResult LR = GPU.launch(*Image, "indirect", Args, Teams, T);
  ASSERT_TRUE(LR.Ok) << LR.Error;
  std::vector<std::uint8_t> Raw(Teams * T * 8);
  GPU.read(Buf, Raw);
  for (std::uint32_t I = 0; I < Teams * T; ++I) {
    std::int64_t V;
    std::memcpy(&V, Raw.data() + I * 8, 8);
    EXPECT_EQ(V, 77) << "team " << I / T << " thread " << I % T;
  }
}

} // namespace
} // namespace codesign::vgpu

#include "vgpu/VirtualGPU.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "host/HostRuntime.hpp"
#include "ir/IRBuilder.hpp"
#include "ir/Verifier.hpp"
#include "support/Stats.hpp"

namespace codesign::vgpu {
namespace {

using namespace ir;

TEST(Safety, CrossThreadLocalAccessCaughtInDebug) {
  // Thread 0 publishes a pointer to its *local* (stack) variable through
  // shared memory; another thread dereferences it. On a real GPU this reads
  // garbage — it is the exact bug OpenMP variable globalization prevents
  // (paper Section IV-A2). The debug execution must flag it.
  Module M;
  GlobalVariable *Slot = M.createGlobal("escape", AddrSpace::Shared, 8);
  Function *K = M.createFunction("leak", Type::voidTy(), {Type::ptr()});
  K->addAttr(FnAttr::Kernel);
  BasicBlock *Entry = K->createBlock("entry");
  BasicBlock *Pub = K->createBlock("pub");
  BasicBlock *Join = K->createBlock("join");
  IRBuilder B(M);
  B.setInsertPoint(Entry);
  Value *Tid = B.threadId();
  Value *Mine = B.allocaBytes(8, "local_var");
  B.store(B.i64(7), Mine);
  B.condBr(B.icmpEQ(Tid, B.i32(0)), Pub, Join);
  B.setInsertPoint(Pub);
  B.store(Mine, Slot);
  B.br(Join);
  B.setInsertPoint(Join);
  B.barrier();
  Value *Stolen = B.load(Type::ptr(), Slot);
  Value *V = B.load(Type::i64(), Stolen); // thread != 0 reads thread 0's stack
  B.store(V, K->arg(0));
  B.retVoid();
  ASSERT_TRUE(verifyModule(M).empty());

  VirtualGPU GPU;
  auto Image = GPU.loadImage(M);
  DeviceAddr Buf = GPU.allocate(8);
  std::uint64_t Args[] = {Buf.Bits};
  LaunchResult R = GPU.launch(*Image, "leak", Args, 1, 4);
  ASSERT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("globalized"), std::string::npos) << R.Error;
}

TEST(Safety, AssertFailTrapsInDebugOnly) {
  Module M;
  Function *K = M.createFunction("asserting", Type::voidTy(), {Type::i64()});
  K->addAttr(FnAttr::Kernel);
  IRBuilder B(M);
  B.setInsertPoint(K->createBlock("entry"));
  B.assertCond(B.icmpEQ(K->arg(0), B.i64(1)), "argument must be one");
  B.retVoid();

  VirtualGPU GPU;
  auto Image = GPU.loadImage(M);
  std::uint64_t Bad[] = {std::uint64_t(2)};
  LaunchResult R = GPU.launch(*Image, "asserting", Bad, 1, 2);
  ASSERT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("argument must be one"), std::string::npos);

  std::uint64_t Good[] = {std::uint64_t(1)};
  EXPECT_TRUE(GPU.launch(*Image, "asserting", Good, 1, 2).Ok);

  // Release mode: the failed check is skipped entirely (the optimizer would
  // have removed it; the interpreter models the same policy).
  GPU.setDebugChecks(false);
  EXPECT_TRUE(GPU.launch(*Image, "asserting", Bad, 1, 2).Ok);
}

TEST(Safety, ViolatedAssumeCaughtInDebug) {
  // The paper (Section III-G): assumptions "are implicitly checked in debug
  // runs to verify correctness".
  Module M;
  Function *K = M.createFunction("assuming", Type::voidTy(), {Type::i64()});
  K->addAttr(FnAttr::Kernel);
  IRBuilder B(M);
  B.setInsertPoint(K->createBlock("entry"));
  B.assume(B.icmpSLT(K->arg(0), B.i64(10)));
  B.retVoid();
  VirtualGPU GPU;
  auto Image = GPU.loadImage(M);
  std::uint64_t Bad[] = {std::uint64_t(50)};
  LaunchResult R = GPU.launch(*Image, "assuming", Bad, 1, 1);
  ASSERT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("assumption"), std::string::npos);
}

TEST(Safety, NullDereferenceTraps) {
  Module M;
  Function *K = M.createFunction("nullderef", Type::voidTy(), {});
  K->addAttr(FnAttr::Kernel);
  IRBuilder B(M);
  B.setInsertPoint(K->createBlock("entry"));
  B.load(Type::i64(), B.nullPtr());
  B.retVoid();
  VirtualGPU GPU;
  auto Image = GPU.loadImage(M);
  LaunchResult R = GPU.launch(*Image, "nullderef", {}, 1, 1);
  ASSERT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("null pointer"), std::string::npos);
}

TEST(Safety, DivisionByZeroTraps) {
  Module M;
  Function *K = M.createFunction("div0", Type::voidTy(), {Type::i64()});
  K->addAttr(FnAttr::Kernel);
  IRBuilder B(M);
  B.setInsertPoint(K->createBlock("entry"));
  B.sdiv(B.i64(1), K->arg(0));
  B.retVoid();
  VirtualGPU GPU;
  auto Image = GPU.loadImage(M);
  std::uint64_t Args[] = {std::uint64_t(0)};
  LaunchResult R = GPU.launch(*Image, "div0", Args, 1, 1);
  ASSERT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("division by zero"), std::string::npos);
}

TEST(Safety, RunawayLoopHitsInstructionBudget) {
  Module M;
  Function *K = M.createFunction("spin", Type::voidTy(), {});
  K->addAttr(FnAttr::Kernel);
  BasicBlock *Entry = K->createBlock("entry");
  BasicBlock *Loop = K->createBlock("loop");
  IRBuilder B(M);
  B.setInsertPoint(Entry);
  B.br(Loop);
  B.setInsertPoint(Loop);
  B.br(Loop);

  DeviceConfig Cfg;
  Cfg.MaxDynamicInstPerThread = 10000;
  VirtualGPU GPU(Cfg);
  auto Image = GPU.loadImage(M);
  LaunchResult R = GPU.launch(*Image, "spin", {}, 1, 1);
  ASSERT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("budget"), std::string::npos);
}

TEST(Safety, LaunchValidation) {
  Module M;
  Function *K = M.createFunction("k", Type::voidTy(), {});
  K->addAttr(FnAttr::Kernel);
  Function *NotKernel = M.createFunction("plain", Type::voidTy(), {});
  IRBuilder B(M);
  B.setInsertPoint(K->createBlock("entry"));
  B.retVoid();
  B.setInsertPoint(NotKernel->createBlock("entry"));
  B.retVoid();
  VirtualGPU GPU;
  auto Image = GPU.loadImage(M);
  EXPECT_FALSE(GPU.launch(*Image, "plain", {}, 1, 1).Ok);
  EXPECT_FALSE(GPU.launch(*Image, "missing", {}, 1, 1).Ok);
  EXPECT_FALSE(GPU.launch(*Image, "k", {}, 0, 1).Ok);
  EXPECT_FALSE(GPU.launch(*Image, "k", {}, 1, 1 << 20).Ok);
  std::uint64_t Args[] = {std::uint64_t(1)};
  EXPECT_FALSE(GPU.launch(*Image, "k", Args, 1, 1).Ok)
      << "argument count mismatch";
  EXPECT_TRUE(GPU.launch(*Image, "k", {}, 1, 1).Ok);
}

/// Backend names have one owner, the exec::BackendRegistry: a name it does
/// not list is an error that names the registered backends, and it never
/// falls back to another engine.
constexpr const char *Registered = "tree, bytecode, native";

/// Kernel "fill": out[tid] = 7 (i64).
void buildFillKernel(Module &M) {
  Function *K = M.createFunction("fill", Type::voidTy(), {Type::ptr()});
  K->addAttr(FnAttr::Kernel);
  IRBuilder B(M);
  B.setInsertPoint(K->createBlock("entry"));
  Value *Off = B.mul(B.zext(B.threadId(), Type::i64()), B.i64(8));
  B.store(B.i64(7), B.gep(K->arg(0), Off));
  B.retVoid();
}

/// Teams run so far on any backend (exec.launch.teams.<backend>).
std::uint64_t teamsRun() {
  std::uint64_t N = 0;
  for (const char *Name : {"tree", "bytecode", "native"})
    N += Counters::global().value(std::string("exec.launch.teams.") + Name);
  return N;
}

TEST(Safety, UnknownBackendNameRejectedBySetExecBackend) {
  VirtualGPU GPU;
  ASSERT_TRUE(GPU.setExecBackend("tree").hasValue());
  auto Bad = GPU.setExecBackend("bc");
  ASSERT_FALSE(Bad.hasValue());
  EXPECT_NE(Bad.error().message().find("unknown execution backend 'bc'"),
            std::string::npos)
      << Bad.error().message();
  EXPECT_NE(Bad.error().message().find(Registered), std::string::npos)
      << Bad.error().message();
  EXPECT_EQ(GPU.execBackend(), "tree") << "a rejected name changes nothing";
  EXPECT_TRUE(GPU.backendError().empty());

  ASSERT_TRUE(GPU.setExecBackend("bytecode").hasValue());
  EXPECT_EQ(GPU.execBackend(), "bytecode");
  Module M;
  buildFillKernel(M);
  auto Image = GPU.loadImage(M);
  const DeviceAddr Out = GPU.allocate(4 * 8);
  const std::uint64_t Args[] = {Out.Bits};
  const LaunchResult R = GPU.launch(*Image, "fill", Args, 1, 4);
  ASSERT_TRUE(R.Ok) << R.Error;
  std::vector<std::uint8_t> Bytes(4 * 8);
  GPU.read(Out, Bytes);
  for (unsigned T = 0; T < 4; ++T) {
    std::int64_t V = 0;
    std::memcpy(&V, Bytes.data() + T * 8, 8);
    EXPECT_EQ(V, 7) << "thread " << T;
  }
}

TEST(Safety, LaunchRequestWithUnknownBackendRunsNoTeam) {
  VirtualGPU GPU;
  host::HostRuntime RT(GPU);
  Module M;
  buildFillKernel(M);
  ASSERT_TRUE(RT.registerImage(M).hasValue());
  std::vector<std::int64_t> Out(4, 0);
  auto Req = host::LaunchRequest::make(
      "fill", {host::KernelArg::buffer(Out.data(), Out.size() * 8)}, 1, 4);

  Req.Backend = "bc";
  const std::uint64_t Before = teamsRun();
  const host::TransferStats Moved = RT.transfers().stats();
  auto Bad = RT.launch(Req);
  const std::string Msg = Bad ? Bad->Error : Bad.error().message();
  EXPECT_FALSE(Bad && Bad->Ok);
  EXPECT_NE(Msg.find("unknown execution backend 'bc'"), std::string::npos)
      << Msg;
  EXPECT_NE(Msg.find(Registered), std::string::npos) << Msg;
  EXPECT_EQ(teamsRun(), Before) << "no team may run";
  EXPECT_EQ(Out, std::vector<std::int64_t>(4, 0));
  // The backend is resolved before any buffer is mapped: a launch that
  // cannot run moves no bytes and leaves no mapping behind.
  const host::TransferStats After = RT.transfers().stats();
  EXPECT_EQ(After.totalTransfers(), Moved.totalTransfers());
  EXPECT_EQ(After.totalBytes(), Moved.totalBytes());
  EXPECT_EQ(After.ModeledCycles, Moved.ModeledCycles);
  EXPECT_EQ(RT.numMappings(), 0u);

  Req.Backend = "bytecode";
  auto Good = RT.launch(Req);
  ASSERT_TRUE(Good.hasValue()) << Good.error().message();
  ASSERT_TRUE(Good->Ok) << Good->Error;
  EXPECT_EQ(teamsRun(), Before + 1);
  EXPECT_EQ(Out, std::vector<std::int64_t>(4, 7));
}

} // namespace
} // namespace codesign::vgpu

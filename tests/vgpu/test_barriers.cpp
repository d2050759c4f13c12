#include "vgpu/VirtualGPU.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "ir/IRBuilder.hpp"
#include "ir/Verifier.hpp"

namespace codesign::vgpu {
namespace {

using namespace ir;

TEST(Barriers, BroadcastThroughShared) {
  // Thread 0 writes a value to shared memory; after an aligned barrier all
  // threads read it — the broadcast idiom of the paper's Figure 7a.
  Module M;
  GlobalVariable *State = M.createGlobal("state", AddrSpace::Shared, 8);
  Function *K = M.createFunction("bcast", Type::voidTy(),
                                 {Type::ptr(), Type::i64()});
  K->addAttr(FnAttr::Kernel);
  BasicBlock *Entry = K->createBlock("entry");
  BasicBlock *WriteBB = K->createBlock("write");
  BasicBlock *JoinBB = K->createBlock("join");
  IRBuilder B(M);
  B.setInsertPoint(Entry);
  Value *Tid = B.threadId();
  B.condBr(B.icmpEQ(Tid, B.i32(0)), WriteBB, JoinBB);
  B.setInsertPoint(WriteBB);
  B.store(K->arg(1), State);
  B.br(JoinBB);
  B.setInsertPoint(JoinBB);
  B.barrier(); // unaligned: threads arrive from different blocks
  Value *V = B.load(Type::i64(), State);
  // out[bid * T + tid]: teams store to disjoint words.
  Value *Row = B.mul(B.zext(B.blockId(), Type::i64()),
                     B.zext(B.blockDim(), Type::i64()));
  Value *Idx = B.add(Row, B.zext(Tid, Type::i64()));
  B.store(V, B.gep(K->arg(0), B.mul(Idx, B.i64(8))));
  B.retVoid();
  ASSERT_TRUE(verifyModule(M).empty());

  VirtualGPU GPU;
  auto Image = GPU.loadImage(M);
  constexpr std::uint32_t T = 32, Teams = 3;
  DeviceAddr Buf = GPU.allocate(Teams * T * 8);
  std::uint64_t Args[] = {Buf.Bits, 4242};
  LaunchResult R = GPU.launch(*Image, "bcast", Args, Teams, T);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Metrics.Barriers, 3u) << "one rendezvous per team";
  std::vector<std::uint8_t> Raw(Teams * T * 8);
  GPU.read(Buf, Raw);
  for (std::uint32_t I = 0; I < Teams * T; ++I) {
    std::int64_t V;
    std::memcpy(&V, Raw.data() + I * 8, 8);
    EXPECT_EQ(V, 4242) << "team " << I / T << " thread " << I % T;
  }
}

TEST(Barriers, SharedStateIsPerTeam) {
  // Each team's main thread writes its team id; threads must observe their
  // own team's value, never another team's.
  Module M;
  GlobalVariable *State = M.createGlobal("state", AddrSpace::Shared, 8);
  Function *K = M.createFunction("perteam", Type::voidTy(), {Type::ptr()});
  K->addAttr(FnAttr::Kernel);
  BasicBlock *Entry = K->createBlock("entry");
  BasicBlock *WriteBB = K->createBlock("write");
  BasicBlock *JoinBB = K->createBlock("join");
  IRBuilder B(M);
  B.setInsertPoint(Entry);
  Value *Tid = B.threadId();
  Value *Bid = B.blockId();
  B.condBr(B.icmpEQ(Tid, B.i32(0)), WriteBB, JoinBB);
  B.setInsertPoint(WriteBB);
  B.store(B.zext(Bid, Type::i64()), State);
  B.br(JoinBB);
  B.setInsertPoint(JoinBB);
  B.barrier();
  Value *V = B.load(Type::i64(), State);
  // out[bid * T + tid] = v
  Value *Dim = B.zext(B.blockDim(), Type::i64());
  Value *Idx = B.add(B.mul(B.zext(Bid, Type::i64()), Dim),
                     B.zext(Tid, Type::i64()));
  B.store(V, B.gep(K->arg(0), B.mul(Idx, B.i64(8))));
  B.retVoid();

  VirtualGPU GPU;
  auto Image = GPU.loadImage(M);
  constexpr std::uint32_t Teams = 5, T = 16;
  DeviceAddr Buf = GPU.allocate(Teams * T * 8);
  std::uint64_t Args[] = {Buf.Bits};
  LaunchResult R = GPU.launch(*Image, "perteam", Args, Teams, T);
  ASSERT_TRUE(R.Ok) << R.Error;
  std::vector<std::uint8_t> Raw(Teams * T * 8);
  GPU.read(Buf, Raw);
  for (std::uint32_t Team = 0; Team < Teams; ++Team)
    for (std::uint32_t I = 0; I < T; ++I) {
      std::int64_t V;
      std::memcpy(&V, Raw.data() + (Team * T + I) * 8, 8);
      EXPECT_EQ(V, Team) << "team " << Team << " thread " << I;
    }
}

TEST(Barriers, ClockSynchronizesAtRendezvous) {
  // One slow thread (does extra global loads) delays everyone: the kernel
  // time must reflect the slowest arrival plus barrier cost.
  Module M;
  Function *K = M.createFunction("slowpoke", Type::voidTy(), {Type::ptr()});
  K->addAttr(FnAttr::Kernel);
  BasicBlock *Entry = K->createBlock("entry");
  BasicBlock *Slow = K->createBlock("slow");
  BasicBlock *Join = K->createBlock("join");
  IRBuilder B(M);
  B.setInsertPoint(Entry);
  Value *Tid = B.threadId();
  B.condBr(B.icmpEQ(Tid, B.i32(0)), Slow, Join);
  B.setInsertPoint(Slow);
  // 10 dependent global loads.
  Value *P = K->arg(0);
  for (int I = 0; I < 10; ++I) {
    Value *L = B.load(Type::i64(), P);
    P = B.gep(K->arg(0), B.and_(L, B.i64(0)));
  }
  B.br(Join);
  B.setInsertPoint(Join);
  B.barrier();
  B.retVoid();

  VirtualGPU GPU;
  auto Image = GPU.loadImage(M);
  DeviceAddr Buf = GPU.allocate(64);
  std::vector<std::uint8_t> Zero(64, 0);
  GPU.write(Buf, Zero);
  std::uint64_t Args[] = {Buf.Bits};
  LaunchResult R = GPU.launch(*Image, "slowpoke", Args, 1, 8);
  ASSERT_TRUE(R.Ok) << R.Error;
  const std::uint64_t MinExpected =
      10ULL * GPU.config().Costs.GlobalAccess + GPU.config().Costs.BarrierCost;
  EXPECT_GE(R.Metrics.KernelCycles, MinExpected)
      << "every thread must wait for the slow one";
}

TEST(Barriers, AlignedBarrierMisalignmentDetectedInDebug) {
  // Threads diverge on thread id and hit *different* aligned barriers —
  // invalid, and the debug execution must catch it (paper Section III-G).
  Module M;
  Function *K = M.createFunction("misaligned", Type::voidTy(), {});
  K->addAttr(FnAttr::Kernel);
  BasicBlock *Entry = K->createBlock("entry");
  BasicBlock *A = K->createBlock("a");
  BasicBlock *Bb = K->createBlock("b");
  BasicBlock *Join = K->createBlock("join");
  IRBuilder B(M);
  B.setInsertPoint(Entry);
  B.condBr(B.icmpEQ(B.threadId(), B.i32(0)), A, Bb);
  B.setInsertPoint(A);
  B.alignedBarrier(1);
  B.br(Join);
  B.setInsertPoint(Bb);
  B.alignedBarrier(2);
  B.br(Join);
  B.setInsertPoint(Join);
  B.retVoid();

  VirtualGPU GPU; // DebugChecks on by default
  auto Image = GPU.loadImage(M);
  LaunchResult R = GPU.launch(*Image, "misaligned", {}, 1, 4);
  ASSERT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("aligned barrier"), std::string::npos) << R.Error;

  // Release execution does not verify the invariant; the rendezvous still
  // completes under team-wide semantics.
  GPU.setDebugChecks(false);
  LaunchResult R2 = GPU.launch(*Image, "misaligned", {}, 1, 4);
  EXPECT_TRUE(R2.Ok) << R2.Error;
}

TEST(Barriers, StateMachinePattern) {
  // A minimal generic-mode state machine: workers loop {barrier; load fn;
  // exit if null; call; barrier}, the main thread publishes one parallel
  // region then terminates the machine. This is the structure the new
  // runtime emits and SPMDization later removes.
  Module M;
  GlobalVariable *Slot = M.createGlobal("workfn", AddrSpace::Shared, 8);
  GlobalVariable *ArgSlot = M.createGlobal("workarg", AddrSpace::Shared, 8);

  Function *Work = M.createFunction("work_item", Type::voidTy(),
                                    {Type::ptr()});
  Work->addAttr(FnAttr::Internal);
  IRBuilder B(M);
  B.setInsertPoint(Work->createBlock("entry"));
  Value *Tid64 = B.zext(B.threadId(), Type::i64());
  B.store(B.add(Tid64, B.i64(100)),
          B.gep(Work->arg(0), B.mul(Tid64, B.i64(8))));
  B.retVoid();

  Function *K = M.createFunction("machine", Type::voidTy(), {Type::ptr()});
  K->addAttr(FnAttr::Kernel);
  K->setExecMode(ExecMode::Generic);
  BasicBlock *Entry = K->createBlock("entry");
  BasicBlock *WorkerLoop = K->createBlock("worker_loop");
  BasicBlock *WorkerExec = K->createBlock("worker_exec");
  BasicBlock *WorkerDone = K->createBlock("worker_done");
  BasicBlock *Main = K->createBlock("main");
  B.setInsertPoint(Entry);
  Value *Tid = B.threadId();
  Value *IsMain = B.icmpEQ(Tid, B.sub(B.blockDim(), B.i32(1)));
  B.condBr(IsMain, Main, WorkerLoop);

  B.setInsertPoint(WorkerLoop);
  B.barrier(1); // wait for work
  Value *Fn = B.load(Type::ptr(), Slot);
  B.condBr(B.icmpEQ(B.ptrToInt(Fn), B.i64(0)), WorkerDone, WorkerExec);
  B.setInsertPoint(WorkerExec);
  Value *Arg = B.load(Type::ptr(), ArgSlot);
  B.callIndirect(Type::voidTy(), Fn, {Arg});
  B.barrier(2); // join
  B.br(WorkerLoop);
  B.setInsertPoint(WorkerDone);
  B.retVoid();

  B.setInsertPoint(Main);
  // Each team's workers write their own row of the output: arg0 + bid*T*8.
  Value *RowBytes = B.mul(B.mul(B.zext(B.blockId(), Type::i64()),
                                B.zext(B.blockDim(), Type::i64())),
                          B.i64(8));
  B.store(B.gep(K->arg(0), RowBytes), ArgSlot);
  B.store(Work->asValue(), Slot);
  B.barrier(1); // release workers
  B.barrier(2); // join
  B.store(B.i64(0), B.intToPtr(B.ptrToInt(Slot))); // terminate: null fn
  B.barrier(1);
  B.retVoid();
  ASSERT_TRUE(verifyModule(M).empty());

  VirtualGPU GPU;
  auto Image = GPU.loadImage(M);
  constexpr std::uint32_t T = 9, Teams = 2; // 8 workers + 1 main per team
  DeviceAddr Buf = GPU.allocate(Teams * T * 8);
  std::vector<std::uint8_t> Zero(Teams * T * 8, 0);
  GPU.write(Buf, Zero);
  std::uint64_t Args[] = {Buf.Bits};
  LaunchResult R = GPU.launch(*Image, "machine", Args, Teams, T);
  ASSERT_TRUE(R.Ok) << R.Error;
  std::vector<std::uint8_t> Raw(Teams * T * 8);
  GPU.read(Buf, Raw);
  for (std::uint32_t Team = 0; Team < Teams; ++Team) {
    for (std::uint32_t I = 0; I + 1 < T; ++I) { // workers only
      std::int64_t V;
      std::memcpy(&V, Raw.data() + (Team * T + I) * 8, 8);
      EXPECT_EQ(V, static_cast<std::int64_t>(I + 100))
          << "team " << Team << " worker " << I;
    }
  }
}

} // namespace
} // namespace codesign::vgpu

//===- tests/exec/test_team_setup.cpp - Recycled team state is invisible ---===//
//
// Every backend recycles team state on each worker thread (the team
// core's TeamScratch): the shared arena is re-initialized only below its
// high-water mark, and thread states, frames, lanes and arenas are kept
// across teams. None of that may be observable. Every case runs on tree,
// bytecode and native, with HostThreads 1 and 4 and profiling off and on,
// and requires:
//   - bit-identical outputs (and launch errors) across all twelve runs;
//   - per backend, bit-identical metrics and profiles across HostThreads
//     and profiling settings;
//   - tree and bytecode agreeing on every metric and the whole profile
//     (the native backend runs no cycle model; see test_backend_parity).
// With HostThreads 1 every team runs on the calling thread, so team k+1
// and the next launch reuse exactly the scratch team k dirtied.
//
//===----------------------------------------------------------------------===//
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "ir/IRBuilder.hpp"
#include "ir/Verifier.hpp"
#include "support/Stats.hpp"
#include "vgpu/VirtualGPU.hpp"

namespace codesign::vgpu {
namespace {

using namespace ir;

constexpr std::uint32_t T = 32;
constexpr std::uint32_t Teams = 3;
/// Shared offsets the kernels dirty, all beyond any static segment here.
constexpr std::int64_t ScalarOff = 64;   ///< + tid * 8
constexpr std::int64_t BlockOff = 2048;  ///< + tid * 32, four f64 each
constexpr std::uint64_t DirtyEnd = BlockOff + T * 32;

/// Native op 0 ("blk"): sum the four f64 at shared arg0 into global arg1,
/// then overwrite them with 1, 2, 3, 4 — en bloc in both directions.
/// Native op 1 ("edge"): f64/block/i32 accesses at global offset arg0
/// (arg1 = 0, 1 or 2 selects which), result stored at global arg2.
void registerOps(NativeRegistry &R) {
  R.add({"blk",
         [](NativeCtx &C) {
           double Buf[4];
           C.loadBlockF64(C.argPtr(0), Buf, 4);
           C.storeF64(C.argPtr(1), Buf[0] + Buf[1] + Buf[2] + Buf[3]);
           const double W[4] = {1, 2, 3, 4};
           C.storeBlockF64(C.argPtr(0), W, 4);
         },
         0});
  R.add({"edge",
         [](NativeCtx &C) {
           const DeviceAddr A = DeviceAddr::make(
               MemSpace::Global, static_cast<std::uint64_t>(C.argI64(0)));
           double V = 0;
           switch (C.argI64(1)) {
           case 0:
             V = C.loadF64(A);
             C.storeF64(A, V + 1);
             break;
           case 1:
             C.loadBlockF64(A, &V, 1);
             C.storeBlockF64(A, &V, 1);
             break;
           default:
             V = C.loadI32(A);
             C.storeI32(A, static_cast<std::int32_t>(V) + 1);
             break;
           }
           C.storeF64(C.argPtr(2), V);
         },
         0});
}

/// out[bid*T + tid] <- i64 at shared Base + ScalarOff + tid*8, which then
/// gets tag; sums[bid*T + tid] <- the blk op over shared
/// Base + BlockOff + tid*32. Every value read must be zero.
void emitDirtyBody(IRBuilder &B, Value *Base, Value *Out, Value *Sums,
                   Value *Tag) {
  Value *Tid = B.zext(B.threadId(), Type::i64());
  Value *G = B.add(B.mul(B.zext(B.blockId(), Type::i64()),
                         B.zext(B.blockDim(), Type::i64())),
                   Tid);
  Value *P = B.gep(Base, B.add(B.i64(ScalarOff), B.mul(Tid, B.i64(8))));
  B.store(B.load(Type::i64(), P), B.gep(Out, B.mul(G, B.i64(8))));
  B.store(Tag, P);
  Value *Q = B.gep(Base, B.add(B.i64(BlockOff), B.mul(Tid, B.i64(32))));
  B.nativeOp(0, Type::voidTy(), {Q, B.gep(Sums, B.mul(G, B.i64(8)))},
             NativeOpFlags{});
}

/// @dirty(out, sums, tag): emitDirtyBody over an 8-byte shared static.
/// @trapper(out, sums, tag, trapTeam): the same, then the last thread of
/// team trapTeam traps.
std::unique_ptr<Module> dirtyModule() {
  auto M = std::make_unique<Module>("team_setup_dirty");
  GlobalVariable *State = M->createGlobal("state", AddrSpace::Shared, 8);
  IRBuilder B(*M);
  Function *K = M->createFunction(
      "dirty", Type::voidTy(), {Type::ptr(), Type::ptr(), Type::i64()});
  K->addAttr(FnAttr::Kernel);
  B.setInsertPoint(K->createBlock("entry"));
  emitDirtyBody(B, State, K->arg(0), K->arg(1), K->arg(2));
  B.retVoid();

  Function *Tr = M->createFunction(
      "trapper", Type::voidTy(),
      {Type::ptr(), Type::ptr(), Type::i64(), Type::i64()});
  Tr->addAttr(FnAttr::Kernel);
  BasicBlock *Entry = Tr->createBlock("entry");
  BasicBlock *Die = Tr->createBlock("die");
  BasicBlock *Done = Tr->createBlock("done");
  B.setInsertPoint(Entry);
  emitDirtyBody(B, State, Tr->arg(0), Tr->arg(1), Tr->arg(2));
  Value *IsTeam = B.icmpEQ(B.zext(B.blockId(), Type::i64()), Tr->arg(3));
  Value *IsLast = B.icmpEQ(B.threadId(), B.sub(B.blockDim(), B.i32(1)));
  B.condBr(B.and_(IsTeam, IsLast), Die, Done);
  B.setInsertPoint(Die);
  B.trap();
  B.unreachable();
  B.setInsertPoint(Done);
  B.retVoid();
  return M;
}

/// One run of a case: the words read back and the launch results.
struct RunResult {
  std::vector<std::int64_t> Words;
  std::vector<LaunchResult> Launches;
};

struct Config {
  const char *Backend;
  unsigned HostThreads;
  bool Profile;
  [[nodiscard]] std::string str() const {
    return std::string(Backend) + "/threads=" + std::to_string(HostThreads) +
           (Profile ? "/profile" : "");
  }
};

std::vector<Config> allConfigs() {
  std::vector<Config> Out;
  for (const char *B : {"tree", "bytecode", "native"})
    for (unsigned H : {1u, 4u})
      for (bool P : {false, true})
        Out.push_back({B, H, P});
  return Out;
}

/// A case: given a device (ops registered), launch whatever it launches and
/// return the words it checks.
using Case = std::function<RunResult(VirtualGPU &)>;

RunResult runCase(const Config &C, const Case &Body) {
  DeviceConfig Cfg;
  Cfg.HostThreads = C.HostThreads;
  Cfg.CollectProfile = C.Profile;
  Cfg.ExecBackend = C.Backend;
  Cfg.GlobalMemBytes = 1u << 20;
  VirtualGPU GPU(Cfg);
  registerOps(GPU.registry());
  return Body(GPU);
}

void expectSameMetrics(const LaunchMetrics &A, const LaunchMetrics &B,
                       const std::string &What) {
  EXPECT_EQ(A.KernelCycles, B.KernelCycles) << What;
  EXPECT_EQ(A.DynamicInstructions, B.DynamicInstructions) << What;
  EXPECT_EQ(A.GlobalLoads, B.GlobalLoads) << What;
  EXPECT_EQ(A.GlobalStores, B.GlobalStores) << What;
  EXPECT_EQ(A.SharedLoads, B.SharedLoads) << What;
  EXPECT_EQ(A.SharedStores, B.SharedStores) << What;
  EXPECT_EQ(A.LocalAccesses, B.LocalAccesses) << What;
  EXPECT_EQ(A.Atomics, B.Atomics) << What;
  EXPECT_EQ(A.Barriers, B.Barriers) << What;
  EXPECT_EQ(A.Calls, B.Calls) << What;
  EXPECT_EQ(A.NativeCycles, B.NativeCycles) << What;
  EXPECT_EQ(A.DeviceMallocs, B.DeviceMallocs) << What;
  EXPECT_EQ(A.TeamsPerSM, B.TeamsPerSM) << What;
}

void expectSameProfiles(const LaunchProfile &A, const LaunchProfile &B,
                        const std::string &What) {
  ASSERT_EQ(A.Collected, B.Collected) << What;
  if (!A.Collected)
    return;
  EXPECT_EQ(A.OpCounts, B.OpCounts) << What;
  EXPECT_EQ(A.GlobalBytesRead, B.GlobalBytesRead) << What;
  EXPECT_EQ(A.GlobalBytesWritten, B.GlobalBytesWritten) << What;
  EXPECT_EQ(A.SharedBytesRead, B.SharedBytesRead) << What;
  EXPECT_EQ(A.SharedBytesWritten, B.SharedBytesWritten) << What;
  EXPECT_EQ(A.BarrierWaitCycles, B.BarrierWaitCycles) << What;
  EXPECT_EQ(A.Teams, B.Teams) << What;
  EXPECT_EQ(A.TeamCyclesTotal, B.TeamCyclesTotal) << What;
}

/// Run Body under every configuration and check the cross-run contract
/// described at the top of the file. Returns the first run's result (the
/// words and launch outcomes all runs share).
RunResult runEverywhere(const Case &Body) {
  const std::vector<Config> Cs = allConfigs();
  std::vector<RunResult> Rs;
  for (const Config &C : Cs)
    Rs.push_back(runCase(C, Body));
  const RunResult &Ref = Rs.front();
  for (std::size_t I = 0; I < Cs.size(); ++I) {
    const std::string What = Cs[I].str();
    EXPECT_EQ(Rs[I].Words, Ref.Words) << What << ": outputs differ";
    EXPECT_EQ(Rs[I].Launches.size(), Ref.Launches.size()) << What;
    for (std::size_t L = 0; L < Rs[I].Launches.size(); ++L) {
      const LaunchResult &A = Rs[I].Launches[L], &B = Ref.Launches[L];
      EXPECT_EQ(A.Ok, B.Ok) << What << " launch " << L;
      EXPECT_EQ(A.Error, B.Error) << What << " launch " << L;
    }
  }
  // Metrics and profiles: same backend across the HostThreads/profiling
  // settings (index 0 of each backend's block of four), and tree against
  // bytecode at every setting.
  for (std::size_t I = 0; I < Cs.size(); ++I) {
    const std::size_t Base = I - I % 4;
    const std::size_t Tree = I % 4;
    for (std::size_t L = 0; L < Rs[I].Launches.size(); ++L) {
      const LaunchResult &A = Rs[I].Launches[L];
      if (!A.Ok)
        continue;
      const std::string What =
          Cs[I].str() + " launch " + std::to_string(L);
      expectSameMetrics(A.Metrics, Rs[Base].Launches[L].Metrics,
                        What + " vs " + Cs[Base].str());
      if (Cs[I].Profile == Cs[Base + 1].Profile)
        expectSameProfiles(A.Profile, Rs[Base + 1].Launches[L].Profile,
                           What + " vs " + Cs[Base + 1].str());
      if (std::string(Cs[I].Backend) == "bytecode") {
        expectSameMetrics(A.Metrics, Rs[Tree].Launches[L].Metrics,
                          What + " vs " + Cs[Tree].str());
        expectSameProfiles(A.Profile, Rs[Tree].Launches[L].Profile,
                           What + " vs " + Cs[Tree].str());
      }
    }
  }
  return Ref;
}

/// Allocate Words zeroed i64 words.
DeviceAddr zeroed(VirtualGPU &GPU, std::size_t Words) {
  const DeviceAddr A = GPU.allocate(Words * 8);
  const std::vector<std::uint8_t> Zero(Words * 8, 0);
  GPU.write(A, Zero);
  return A;
}

std::vector<std::int64_t> readWords(VirtualGPU &GPU, DeviceAddr A,
                                    std::size_t Words) {
  std::vector<std::int64_t> Out(Words);
  GPU.read(A, std::span(reinterpret_cast<std::uint8_t *>(Out.data()),
                        Words * 8));
  return Out;
}

/// Launch Kernel of Image over fresh zeroed out/sums buffers; append the
/// buffers' words to R.
void launchDirty(VirtualGPU &GPU, const ModuleImage &Image,
                 const char *Kernel, std::vector<std::uint64_t> Extra,
                 RunResult &R) {
  const DeviceAddr Out = zeroed(GPU, Teams * T);
  const DeviceAddr Sums = zeroed(GPU, Teams * T);
  std::vector<std::uint64_t> Args = {Out.Bits, Sums.Bits};
  Args.insert(Args.end(), Extra.begin(), Extra.end());
  R.Launches.push_back(GPU.launch(Image, Kernel, Args, Teams, T));
  for (DeviceAddr A : {Out, Sums})
    for (std::int64_t W : readWords(GPU, A, Teams * T))
      R.Words.push_back(W);
}

TEST(TeamSetup, SharedBytesBeyondStaticReadZeroInLaterTeamsAndLaunches) {
  const auto M = dirtyModule();
  ASSERT_TRUE(verifyModule(*M).empty());
  const auto Words = runEverywhere([&](VirtualGPU &GPU) {
    RunResult R;
    auto Image = GPU.loadImage(*M);
    launchDirty(GPU, *Image, "dirty", {7}, R);
    launchDirty(GPU, *Image, "dirty", {9}, R);
    return R;
  }).Words;
  // Every read — scalar and block, in every team of both launches — saw
  // zeroed shared memory.
  ASSERT_EQ(Words.size(), 4u * Teams * T);
  for (std::size_t I = 0; I < Words.size(); ++I)
    EXPECT_EQ(Words[I], 0) << "word " << I;
}

TEST(TeamSetup, SharedBytesReadZeroAfterATeamTraps) {
  const auto M = dirtyModule();
  ASSERT_TRUE(verifyModule(*M).empty());
  const RunResult R = runEverywhere([&](VirtualGPU &GPU) {
    RunResult Out;
    auto Image = GPU.loadImage(*M);
    // Teams 0 and 1 dirty shared memory, then team 1 traps and the launch
    // fails. Only the next launch's words are compared: which teams of the
    // failed launch ran past team 1 depends on HostThreads.
    RunResult Failed;
    launchDirty(GPU, *Image, "trapper", {5, 1}, Failed);
    Out.Launches = Failed.Launches;
    launchDirty(GPU, *Image, "trapper", {6, Teams}, Out);
    return Out;
  });
  ASSERT_EQ(R.Launches.size(), 2u);
  EXPECT_EQ(R.Launches[0].Error,
            "thread " + std::to_string(T - 1) + " of team 1: trap executed");
  EXPECT_TRUE(R.Launches[1].Ok) << R.Launches[1].Error;
  ASSERT_EQ(R.Words.size(), 2u * Teams * T);
  for (std::size_t I = 0; I < R.Words.size(); ++I)
    EXPECT_EQ(R.Words[I], 0) << "word " << I;
}

/// @wide (128 threads): every thread fills a 64-byte alloca in a callee and
/// writes shared [512, 1536), far beyond the static segment. @narrow (32
/// threads, another module, a different static segment with an
/// initializer): every thread reads its alloca and its own words of that
/// range before writing them, and must see zeros (plus the initializer).
TEST(TeamSetup, NarrowLaunchAfterWideLaunchSeesFreshState) {
  Module Wide("team_setup_wide");
  {
    GlobalVariable *S = Wide.createGlobal("wide_state", AddrSpace::Shared, 16);
    IRBuilder B(Wide);
    Function *Fill =
        Wide.createFunction("fill", Type::voidTy(), {Type::i64()});
    Fill->addAttr(FnAttr::Internal);
    B.setInsertPoint(Fill->createBlock("entry"));
    Value *Buf = B.allocaBytes(64, "buf");
    for (int I = 0; I < 8; ++I)
      B.store(B.add(Fill->arg(0), B.i64(I + 1)), B.gep(Buf, I * 8));
    B.retVoid();
    Function *K = Wide.createFunction("wide", Type::voidTy(), {});
    K->addAttr(FnAttr::Kernel);
    B.setInsertPoint(K->createBlock("entry"));
    Value *Tid = B.zext(B.threadId(), Type::i64());
    B.call(Fill, {Tid});
    B.store(B.add(Tid, B.i64(100)),
            B.gep(S, B.add(B.i64(512), B.mul(Tid, B.i64(8)))));
    B.retVoid();
  }
  Module Narrow("team_setup_narrow");
  {
    GlobalVariable *S =
        Narrow.createGlobal("narrow_state", AddrSpace::Shared, 8);
    S->setInitializer({42, 0, 0, 0, 0, 0, 0, 0});
    IRBuilder B(Narrow);
    Function *K =
        Narrow.createFunction("narrow", Type::voidTy(), {Type::ptr()});
    K->addAttr(FnAttr::Kernel);
    B.setInsertPoint(K->createBlock("entry"));
    Value *Buf = B.allocaBytes(64, "buf");
    Value *Tid = B.zext(B.threadId(), Type::i64());
    Value *G = B.add(B.mul(B.zext(B.blockId(), Type::i64()),
                           B.zext(B.blockDim(), Type::i64())),
                     Tid);
    Value *Sum = B.load(Type::i64(), S);
    for (int I = 0; I < 8; ++I)
      Sum = B.add(Sum, B.load(Type::i64(), B.gep(Buf, I * 8)));
    for (std::int64_t Off : {8, 512, 1024}) {
      Value *P = B.gep(S, B.add(B.i64(Off), B.mul(Tid, B.i64(8))));
      Sum = B.add(Sum, B.load(Type::i64(), P));
      B.store(B.i64(-1), P);
    }
    B.store(Sum, B.gep(K->arg(0), B.mul(G, B.i64(8))));
    B.retVoid();
  }
  ASSERT_TRUE(verifyModule(Wide).empty());
  ASSERT_TRUE(verifyModule(Narrow).empty());
  const auto Words = runEverywhere([&](VirtualGPU &GPU) {
    RunResult R;
    auto WideImg = GPU.loadImage(Wide);
    auto NarrowImg = GPU.loadImage(Narrow);
    R.Launches.push_back(GPU.launch(*WideImg, "wide", {}, Teams, 128));
    const DeviceAddr Out = zeroed(GPU, Teams * T);
    const std::uint64_t Args[] = {Out.Bits};
    R.Launches.push_back(GPU.launch(*NarrowImg, "narrow", Args, Teams, T));
    R.Words = readWords(GPU, Out, Teams * T);
    return R;
  }).Words;
  // The static segment's initializer, then nothing but fresh zeros.
  for (std::size_t I = 0; I < Words.size(); ++I)
    EXPECT_EQ(Words[I], 42) << "word " << I;
}

TEST(TeamSetup, NativeGlobalAccessAtArenaEdge) {
  for (std::int64_t Mode : {0, 1, 2}) {
    const std::uint64_t Width = Mode == 2 ? 4 : 8;
    Module M("team_setup_edge");
    Function *K = M.createFunction(
        "edge", Type::voidTy(), {Type::i64(), Type::i64(), Type::ptr()});
    K->addAttr(FnAttr::Kernel);
    IRBuilder B(M);
    B.setInsertPoint(K->createBlock("entry"));
    B.nativeOp(1, Type::voidTy(), {K->arg(0), K->arg(1), K->arg(2)},
               NativeOpFlags{});
    B.retVoid();
    ASSERT_TRUE(verifyModule(M).empty());
    const RunResult R = runEverywhere([&](VirtualGPU &GPU) {
      RunResult Out;
      auto Image = GPU.loadImage(M);
      const std::uint64_t Cap = GPU.config().GlobalMemBytes;
      const DeviceAddr Res = zeroed(GPU, 1);
      for (std::uint64_t Off : {Cap - Width, Cap - Width + 1}) {
        const std::uint64_t Args[] = {Off, static_cast<std::uint64_t>(Mode),
                                      Res.Bits};
        Out.Launches.push_back(GPU.launch(*Image, "edge", Args, 1, 1));
      }
      Out.Words = readWords(GPU, Res, 1);
      return Out;
    });
    // The in-bounds access succeeded; one byte further trapped, alike on
    // every backend (runEverywhere compared the outcomes).
    ASSERT_EQ(R.Launches.size(), 2u);
    EXPECT_TRUE(R.Launches[0].Ok) << "mode " << Mode << ": "
                                  << R.Launches[0].Error;
    EXPECT_FALSE(R.Launches[1].Ok) << "mode " << Mode;
    EXPECT_EQ(R.Launches[1].Error,
              "thread 0 of team 0: global access out of bounds")
        << "mode " << Mode;
  }
}

/// Launch-level counters: one Counters::add per launch, teams summed over
/// the shards. A kernel with no static shared memory that touches none
/// re-zeroes nothing in steady state; after a team dirtied [0, E), the
/// next team on that worker re-zeroes exactly E bytes, on every backend
/// (they share one reset policy).
TEST(TeamSetup, LaunchCountersTrackTeamsAndZeroedBytes) {
  Module Plain("team_setup_plain");
  {
    Function *K = Plain.createFunction("plain", Type::voidTy(), {Type::ptr()});
    K->addAttr(FnAttr::Kernel);
    IRBuilder B(Plain);
    B.setInsertPoint(K->createBlock("entry"));
    Value *G = B.add(B.mul(B.zext(B.blockId(), Type::i64()),
                           B.zext(B.blockDim(), Type::i64())),
                     B.zext(B.threadId(), Type::i64()));
    B.store(G, B.gep(K->arg(0), B.mul(G, B.i64(8))));
    B.retVoid();
  }
  const auto Dirty = dirtyModule();
  Counters &Cnt = Counters::global();
  for (const char *Backend : {"bytecode", "native"}) {
    const std::string TeamsKey = std::string("exec.launch.teams.") + Backend;
    const std::string ZeroKey =
        std::string("exec.team.shared_zeroed_bytes.") + Backend;
    for (unsigned H : {1u, 4u}) {
      runCase({Backend, H, false}, [&](VirtualGPU &GPU) {
        RunResult R;
        auto Image = GPU.loadImage(Plain);
        const DeviceAddr Out = zeroed(GPU, Teams * T);
        const std::uint64_t Args[] = {Out.Bits};
        for (int L = 0; L < 3; ++L) {
          const std::uint64_t Teams0 = Cnt.value(TeamsKey);
          const std::uint64_t Zero0 = Cnt.value(ZeroKey);
          EXPECT_TRUE(GPU.launch(*Image, "plain", Args, Teams, T).Ok);
          EXPECT_EQ(Cnt.value(TeamsKey) - Teams0, Teams) << Backend;
          // The first launch may clean up after an earlier test's teams.
          if (L > 0) {
            EXPECT_EQ(Cnt.value(ZeroKey) - Zero0, 0u)
                << Backend << " threads=" << H << " launch " << L;
          }
        }
        return R;
      });
    }
  }
  // One host thread: every team of the dirty kernel dirties [0, DirtyEnd),
  // so every team after the first re-zeroes exactly that.
  for (const char *Backend : {"tree", "bytecode"}) {
    runCase({Backend, 1, false}, [&](VirtualGPU &GPU) {
      RunResult R;
      auto Image = GPU.loadImage(*Dirty);
      launchDirty(GPU, *Image, "dirty", {1}, R);
      const std::string ZeroKey =
          std::string("exec.team.shared_zeroed_bytes.") + Backend;
      const std::uint64_t Zero0 = Cnt.value(ZeroKey);
      launchDirty(GPU, *Image, "dirty", {2}, R);
      EXPECT_EQ(Cnt.value(ZeroKey) - Zero0, Teams * DirtyEnd) << Backend;
      return R;
    });
  }
  runCase({"native", 1, false}, [&](VirtualGPU &GPU) {
    RunResult R;
    auto Image = GPU.loadImage(*Dirty);
    launchDirty(GPU, *Image, "dirty", {1}, R);
    const char *ZeroKey = "exec.team.shared_zeroed_bytes.native";
    const std::uint64_t Zero0 = Cnt.value(ZeroKey);
    launchDirty(GPU, *Image, "dirty", {2}, R);
    EXPECT_EQ(Cnt.value(ZeroKey) - Zero0, Teams * DirtyEnd);
    // A trapping launch counts the teams it ran: team 1 traps, the serial
    // sweep stops there.
    const std::uint64_t Teams0 = Cnt.value("exec.launch.teams.native");
    launchDirty(GPU, *Image, "trapper", {3, 1}, R);
    EXPECT_FALSE(R.Launches.back().Ok);
    EXPECT_EQ(Cnt.value("exec.launch.teams.native") - Teams0, 2u);
    return R;
  });
}

} // namespace
} // namespace codesign::vgpu

//===- exec/NativeBackend.cpp - host-compiled C++ codegen backend ----------===//
//
// The wall-clock ceiling tier: each post-optimization module is emitted as
// standalone C++ (NativeCodegen.cpp), compiled with the host toolchain into
// a shared object, and dlopen'd behind the same launch API the interpreting
// backends serve. Shared objects are cached twice — in-process per module
// content key (the frontend kernel-cache key when available, an IR-text
// hash otherwise) in a support::SingleFlightCache, and on disk per
// (source, compiler command) hash — so a recompile or a rerun reuses the
// .so.
//
// A team runs on the team core every engine shares (vgpu::TeamCore): the
// core owns the run-to-barrier loop and rendezvous, trap formatting, the
// host-side resolve and charging, device malloc/free, the shared arena and
// the NativeCtx native ops run against. This file adds the lane step: a
// lane runs the compiled kernel entry on its own ucontext fiber (or
// straight on the worker's stack when the module has no barrier) until it
// returns, traps or suspends at a barrier. Because a barrier suspends the
// whole fiber, barriers are legal at any call depth — inside the old
// runtime's opaque entry helpers and inside outlined work functions
// reached through the state machine's indirect calls included.
//
// Everything the generated code cannot do natively calls back into the
// host through the cg_team function pointers, each a thin call into the
// core: registered native ops, device malloc/free, local-memory growth,
// and the barrier suspension itself.
//
//===----------------------------------------------------------------------===//
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <unordered_map>
#include <vector>

#include <dlfcn.h>
#include <ucontext.h>
#include <unistd.h>

#include "exec/Backend.hpp"
#include "exec/BuiltinBackends.hpp"
#include "exec/NativeABI.hpp"
#include "exec/NativeCodegen.hpp"
#include "ir/Printer.hpp"
#include "support/SingleFlightCache.hpp"
#include "vgpu/TeamCore.hpp"

namespace codesign::exec {

namespace {

namespace fs = std::filesystem;
using vgpu::DeviceAddr;
using vgpu::MemSpace;

using DriverFn = void (*)(void *);

//===----------------------------------------------------------------------===//
// Keys and small helpers
//===----------------------------------------------------------------------===//

std::uint64_t fnv1a(std::string_view S) {
  std::uint64_t H = 1469598103934665603ULL;
  for (const char C : S) {
    H ^= static_cast<unsigned char>(C);
    H *= 1099511628211ULL;
  }
  return H;
}

std::string hex64(std::uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

/// In-process identity of a module's generated code. Prefer the frontend
/// kernel-cache key (stamped by TargetCompiler's single-flight compile);
/// fall back to hashing the printed IR for modules built outside that path
/// (unit tests constructing IR by hand).
std::string moduleKey(const ir::Module &M) {
  if (!M.cacheKey().empty())
    return "ck|" + M.cacheKey();
  return "tx|" + hex64(fnv1a(ir::printModule(M)));
}

//===----------------------------------------------------------------------===//
// Compiled-module cache
//===----------------------------------------------------------------------===//

struct CompiledModule {
  NativeModuleSource Src;
  void *Handle = nullptr; ///< dlopen handle; intentionally never dlclosed
  std::unordered_map<std::string, DriverFn> Drivers; ///< by kernel IR name
};

std::string compilerPath() {
  if (const char *CXX = std::getenv("CODESIGN_NATIVE_CXX"))
    return CXX;
  return "c++";
}

std::string compilerFlags() {
  std::string Flags =
      "-std=c++20 -O2 -fPIC -shared -fno-strict-aliasing -ffp-contract=off";
#ifdef CODESIGN_NATIVE_SANITIZE_UNDEFINED
  // The ubsan CI flavor: generated modules dlopen into a sanitized process
  // and get instrumented the same way the harness is.
  Flags += " -fsanitize=undefined -fno-sanitize-recover=undefined";
#endif
  return Flags;
}

fs::path cacheDir() {
  if (const char *Dir = std::getenv("CODESIGN_NATIVE_CACHE_DIR"))
    return fs::path(Dir);
  return fs::temp_directory_path() / "codesign-native";
}

std::string readLogTail(const fs::path &Log) {
  std::ifstream In(Log);
  if (!In)
    return "(no compiler output captured)";
  std::ostringstream SS;
  SS << In.rdbuf();
  std::string Text = SS.str();
  constexpr std::size_t MaxLen = 4000;
  if (Text.size() > MaxLen)
    Text = "..." + Text.substr(Text.size() - MaxLen);
  return Text;
}

/// Compile Source to a shared object in the disk cache and dlopen it. The
/// cache key covers the source bytes and the full compiler command, so a
/// toolchain or flag change recompiles instead of reusing a stale object.
/// Threads and processes sharing the directory may compile the same key at
/// once: every attempt writes its own pid- and counter-tagged source,
/// object and log, and only the finished object is published, by rename.
Expected<void *> compileAndLoad(const std::string &Source) {
  const std::string Cmd = compilerPath() + " " + compilerFlags();
  const std::string Key = hex64(fnv1a(Source + '\0' + Cmd));
  std::error_code EC;
  const fs::path Dir = cacheDir();
  fs::create_directories(Dir, EC);
  if (EC)
    return makeError("cannot create native cache directory '", Dir.string(),
                     "': ", EC.message());
  const fs::path So = Dir / ("cg_" + Key + ".so");
  if (!fs::exists(So, EC)) {
    static std::atomic<std::uint64_t> Attempts{0};
    const std::string Stem = "cg_" + Key + "." + std::to_string(::getpid()) +
                             "." + std::to_string(Attempts.fetch_add(1));
    const fs::path Src = Dir / (Stem + ".cpp");
    const fs::path TmpSo = Dir / (Stem + ".tmp.so");
    const fs::path Log = Dir / (Stem + ".log");
    {
      std::ofstream Out(Src);
      Out << Source;
      if (!Out)
        return makeError("cannot write generated source '", Src.string(),
                         "'");
    }
    const std::string Command = Cmd + " -o '" + TmpSo.string() + "' '" +
                                Src.string() + "' 2> '" + Log.string() + "'";
    const int Status = std::system(Command.c_str());
    const std::string Diag = Status != 0 ? readLogTail(Log) : std::string();
    // Atomic publish: attempts racing on the same key all produce the same
    // bytes, so whichever rename lands last is as good as any.
    std::error_code PublishEC;
    if (Status == 0)
      fs::rename(TmpSo, So, PublishEC);
    for (const fs::path &Tmp : {Src, Log, TmpSo})
      fs::remove(Tmp, EC);
    if (Status != 0)
      return makeError("host compiler failed (", Command, "):\n", Diag);
    if (PublishEC && !fs::exists(So, EC))
      return makeError("cannot publish compiled module '", So.string(),
                       "': ", PublishEC.message());
  }
  void *Handle = ::dlopen(So.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!Handle) {
    const char *Err = ::dlerror();
    return makeError("dlopen('", So.string(), "') failed: ",
                     Err ? Err : "unknown error");
  }
  return Handle;
}

//===----------------------------------------------------------------------===//
// Lane fibers
//===----------------------------------------------------------------------===//

#if defined(__x86_64__)
// glibc's swapcontext issues a rt_sigprocmask system call on every switch;
// with one suspend + one resume per lane per barrier rendezvous, that
// syscall dominates barrier-dense kernels. The generated code is plain C++
// that never touches the signal mask mid-kernel, so swapping the System V
// callee-saved registers and the stack pointer is a complete context
// switch. Other architectures fall back to ucontext.
#define CODESIGN_FIBER_RAWSWITCH 1
extern "C" void cgFiberSwitch(void **SaveSp, void *RestoreSp);
__asm__(
    ".text\n"
    ".align 16\n"
    ".globl cgFiberSwitch\n"
    ".type cgFiberSwitch,@function\n"
    "cgFiberSwitch:\n"
    "  pushq %rbp\n"
    "  pushq %rbx\n"
    "  pushq %r12\n"
    "  pushq %r13\n"
    "  pushq %r14\n"
    "  pushq %r15\n"
    "  movq %rsp, (%rdi)\n"
    "  movq %rsi, %rsp\n"
    "  popq %r15\n"
    "  popq %r14\n"
    "  popq %r13\n"
    "  popq %r12\n"
    "  popq %rbx\n"
    "  popq %rbp\n"
    "  ret\n"
    ".size cgFiberSwitch,.-cgFiberSwitch\n");
#endif

/// Lane stack size. Generated frames are dense uint64 slot arrays, so this
/// is generous.
constexpr std::uint64_t StackBytes = 256 * 1024;

/// A lane stack: deliberately uninitialized heap memory of StackBytes.
using StackBuf = std::unique_ptr<std::uint8_t[]>;

/// Lane stacks recycle through a thread-local free list: a launch keeps at
/// most threads-per-team fibers live at once but runs thousands of teams,
/// and mapping + faulting a fresh quarter-megabyte stack per lane per team
/// costs more than many kernels do.
thread_local std::vector<StackBuf> StackPool;

StackBuf acquireStack() {
  if (StackPool.empty())
    return StackBuf(new std::uint8_t[StackBytes]);
  StackBuf B = std::move(StackPool.back());
  StackPool.pop_back();
  return B;
}

void recycleStack(StackBuf &&B) {
  if (B && StackPool.size() < 256)
    StackPool.push_back(std::move(B));
}

/// One lane's execution fiber.
struct LaneFiber {
#if CODESIGN_FIBER_RAWSWITCH
  void *Sp = nullptr;
#else
  ucontext_t Ctx;
#endif
  StackBuf Stack;
  bool Started = false;
};

//===----------------------------------------------------------------------===//
// One team on the shared team core
//===----------------------------------------------------------------------===//

class NativeBound final : public BoundKernel {
public:
  std::shared_ptr<const CompiledModule> CM;
  DriverFn Fn = nullptr;
  std::uint32_t NumSlots = 0;
  std::vector<std::uint64_t> CPool; ///< device addresses, per this image
};

/// A device thread of a native team: the core's thread state plus the
/// generated code's view of it, its kernel-entry slots and its fiber.
struct NativeLane : vgpu::CoreThread {
  abi::cg_lane Lane;
  std::vector<std::uint64_t> Slots;
  LaneFiber Fiber;

  /// Released from its barrier: the next step resumes the fiber.
  void resumeAfterBarrier() { Lane.status = 0u; }
};

class NativeTeam;

/// Fiber entry functions cannot portably receive pointers (makecontext) or
/// registers (the raw switch's `ret` into us); step() parks the team and
/// lane to start here immediately before the first swap into the fiber.
/// Thread-local because the launch engine runs teams concurrently on its
/// worker threads (fibers always resume on the thread running their team).
thread_local NativeTeam *FiberStartTeam = nullptr;
thread_local abi::cg_lane *FiberStartLane = nullptr;

/// One team: TeamCore's semantics around the generated lane code. run()
/// is the core's run-to-barrier loop; the step runs one lane until it
/// returns, traps or parks at a barrier, and the cg_team host callbacks
/// are thin calls into the core.
class NativeTeam final : public vgpu::TeamCore<NativeLane> {
public:
  NativeTeam(const LaunchEnv &Env, const vgpu::ModuleImage &Image,
             const NativeBound &BK, const ir::Function *Kernel,
             std::span<const std::uint64_t> Args, std::uint32_t TeamId,
             std::uint32_t NumTeams, std::uint32_t NumThreads,
             vgpu::LaunchMetrics &Metrics, vgpu::LaunchProfile *Profile,
             vgpu::TeamScratch<NativeLane> &Scratch)
      : TeamCore(Env.Config, Env.GM, Env.Registry, Image, TeamId, NumTeams,
                 NumThreads, Metrics, Profile, Scratch),
        Entry(BK.Fn), OnFibers(BK.CM->Src.AnyBarriers) {
    CG.host = this;
    CG.team_id = TeamId;
    CG.num_teams = NumTeams;
    CG.num_threads = NumThreads;
    CG.warp_size = Config.WarpSize;
    CG.debug_checks = Config.DebugChecks ? 1u : 0u;
    CG.global_base = GMBase;
    CG.global_size = GMCap;
    CG.shared_base = SharedArena.data();
    CG.shared_cap = Config.SharedMemPerTeam;
    CG.shared_hwm = &SharedHwm;
    CG.local_cap = Config.LocalMemPerThread;
    CG.cpool = BK.CPool.data();
    CG.host_native_op = &hostNativeOp;
    CG.host_malloc = &hostMalloc;
    CG.host_free = &hostFree;
    CG.host_local_data = &hostLocalData;
    CG.host_suspend = &hostSuspend;
    for (NativeLane &T : Threads) {
      T.Slots.assign(std::max<std::uint32_t>(BK.NumSlots, 1), 0);
      for (unsigned A = 0; A < Kernel->numArgs(); ++A)
        T.Slots[A] = vgpu::canonValue(Kernel->arg(A)->type().kind(), Args[A]);
      abi::cg_lane &L = T.Lane;
      L.team = &CG;
      L.slots = T.Slots.data();
      L.local_top = 0;
      L.local_base = nullptr;
      L.local_size = 0;
      L.trap_msg = nullptr;
      L.tid = T.Tid;
      L.status = 0u;
      L.barrier_site = 0;
      L.barrier_aligned = 0;
      // A stack outlives its team only when the lane was still parked at a
      // barrier when the team trapped; the suspended frames hold no
      // nontrivial objects, so the memory is plain recyclable storage.
      recycleStack(std::move(T.Fiber.Stack));
      T.Fiber.Started = false;
    }
  }

  vgpu::TeamRunOutcome run() {
    return TeamCore::run([this](NativeLane &T) { step(T); });
  }

private:
  /// Run T until it blocks and hand its state to the core. Without a
  /// barrier anywhere in the module no lane can suspend, so lanes run
  /// straight on this stack.
  void step(NativeLane &T) {
    if (OnFibers)
      runOnFiber(T);
    else
      Entry(&T.Lane);
    switch (T.Lane.status) {
    case 1u:
      T.Status = vgpu::ThreadStatus::Done;
      break;
    case 2u:
      // A trap inside a host callback has already trapped T (syncLane).
      if (T.Lane.trap_msg)
        trap(T, T.Lane.trap_msg);
      break;
    case 3u:
      T.Status = vgpu::ThreadStatus::AtBarrier;
      T.BarrierId = T.Lane.barrier_site;
      T.BarrierAligned = T.Lane.barrier_aligned != 0u;
      break;
    }
  }

  /// Start T's fiber (first time) or resume it at its barrier.
  void runOnFiber(NativeLane &T) {
    LaneFiber &Fb = T.Fiber;
    if (!Fb.Started) {
      Fb.Stack = acquireStack();
      Fb.Started = true;
      FiberStartTeam = this;
      FiberStartLane = &T.Lane;
#if CODESIGN_FIBER_RAWSWITCH
      // Hand-build the frame the switch restores: a 16-byte-aligned slot
      // holding fiberMain as the `ret` target, six callee-saved register
      // slots below it (zeroed — their first-entry values are never read).
      // After the `ret`, rsp sits where a `call fiberMain` would have left
      // it, so the generated code's alignment assumptions hold.
      std::uint8_t *Top = Fb.Stack.get() + StackBytes;
      std::uintptr_t Start =
          (reinterpret_cast<std::uintptr_t>(Top) - 8) & ~std::uintptr_t(15);
      void (*Fn)() = &fiberMain;
      std::memcpy(reinterpret_cast<void *>(Start), &Fn, sizeof(Fn));
      Fb.Sp = reinterpret_cast<void *>(Start - 48);
      std::memset(Fb.Sp, 0, 48);
#else
      ::getcontext(&Fb.Ctx);
      Fb.Ctx.uc_stack.ss_sp = Fb.Stack.get();
      Fb.Ctx.uc_stack.ss_size = StackBytes;
      Fb.Ctx.uc_link = &SchedCtx;
      ::makecontext(&Fb.Ctx, &fiberMain, 0);
#endif
    }
#if CODESIGN_FIBER_RAWSWITCH
    cgFiberSwitch(&SchedSp, Fb.Sp);
#else
    ::swapcontext(&SchedCtx, &Fb.Ctx);
#endif
    if (T.Lane.status != 3u) // returned or trapped: the stack is free
      recycleStack(std::move(Fb.Stack));
  }

  static void fiberMain() {
    NativeTeam *Team = FiberStartTeam;
    Team->Entry(FiberStartLane);
#if CODESIGN_FIBER_RAWSWITCH
    // The lane finished (status 1 or 2); hand control back for good. The
    // raw switch has no uc_link, so returning is not an option.
    void *Dead = nullptr;
    cgFiberSwitch(&Dead, Team->SchedSp);
    __builtin_unreachable();
#endif
    // ucontext: returning ends the fiber; uc_link resumes the step
    // context saved by the swap that ran us last.
  }

  //--- cg_team host callbacks -----------------------------------------------

  static NativeTeam &team(void *Host) { return *static_cast<NativeTeam *>(Host); }
  NativeLane &lane(const abi::cg_lane *L) { return Threads[L->tid]; }

  /// After a host call into the core: refresh the generated code's window
  /// on T's local arena (the call may have grown and moved it) and stop the
  /// lane if the call trapped.
  static void syncLane(NativeLane &T) {
    const std::span<std::uint8_t> Local = T.Local.mapped();
    T.Lane.local_base = Local.data();
    T.Lane.local_size = Local.size();
    if (T.Status == vgpu::ThreadStatus::Trapped)
      T.Lane.status = 2u;
  }

  static std::uint64_t hostNativeOp(void *Host, abi::cg_lane *L,
                                    std::int64_t Id, const std::uint64_t *Args,
                                    std::uint32_t N, std::uint32_t RetKind) {
    NativeTeam &Team = team(Host);
    NativeLane &T = Team.lane(L);
    const std::uint64_t R =
        Team.callNative(T, Id, static_cast<ir::TypeKind>(RetKind),
                        Team.globalWindow(T), {Args, N});
    syncLane(T);
    return R;
  }

  static std::uint64_t hostMalloc(void *Host, abi::cg_lane *L,
                                  std::uint64_t Size) {
    NativeTeam &Team = team(Host);
    return Team.deviceMalloc(Size, Team.lane(L));
  }

  static void hostFree(void *Host, abi::cg_lane *L, std::uint64_t AddrBits) {
    NativeTeam &Team = team(Host);
    Team.deviceFree(DeviceAddr(AddrBits), Team.lane(L));
  }

  static std::uint8_t *hostLocalData(void *Host, abi::cg_lane *L,
                                     std::uint64_t Off, std::uint64_t Size) {
    NativeTeam &Team = team(Host);
    NativeLane &T = Team.lane(L);
    std::uint8_t *P = Team.resolve(
        DeviceAddr::make(MemSpace::Local, Off,
                         static_cast<std::uint16_t>(L->tid)),
        Size, T);
    syncLane(T);
    return P;
  }

  /// Barrier suspension: park the calling lane's fiber (its status is
  /// already 3 with the site recorded) and resume step(). Control comes
  /// back here when the rendezvous releases the lane.
  static void hostSuspend(void *Host, abi::cg_lane *L) {
    NativeTeam &Team = team(Host);
#if CODESIGN_FIBER_RAWSWITCH
    cgFiberSwitch(&Team.lane(L).Fiber.Sp, Team.SchedSp);
#else
    ::swapcontext(&Team.lane(L).Fiber.Ctx, &Team.SchedCtx);
#endif
  }

  abi::cg_team CG;
  DriverFn Entry;
  bool OnFibers;
#if CODESIGN_FIBER_RAWSWITCH
  void *SchedSp = nullptr;
#else
  ucontext_t SchedCtx;
#endif
};

//===----------------------------------------------------------------------===//
// The backend
//===----------------------------------------------------------------------===//

class NativeBackend final : public Backend {
public:
  std::string_view name() const override { return "native"; }

  Expected<void> prepareModule(const vgpu::ModuleImage &Image,
                               const LaunchEnv &) override {
    auto CM = ensureCompiled(Image.module());
    if (!CM)
      return CM.error();
    return Expected<void>::success();
  }

  Expected<std::unique_ptr<BoundKernel>>
  bindKernel(const vgpu::ModuleImage &Image, const ir::Function *Kernel,
             const LaunchEnv &Env) override {
    if (Env.Config.DetectRaces)
      return Error("DetectRaces needs shadow-memory instrumentation the "
                   "generated code does not carry; use the tree or bytecode "
                   "backend");
    auto CMOr = ensureCompiled(Image.module());
    if (!CMOr)
      return CMOr.error();
    std::shared_ptr<const CompiledModule> CM = CMOr.takeValue();
    const auto KI = CM->Src.Kernels.find(Kernel->name());
    if (KI == CM->Src.Kernels.end())
      return makeError("no generated entry for kernel '@", Kernel->name(),
                       "'");

    auto Bound = std::make_unique<NativeBound>();
    Bound->Fn = CM->Drivers.at(Kernel->name());
    Bound->NumSlots = KI->second.NumSlots;
    Bound->CPool.reserve(CM->Src.CPool.size());
    const ir::Module &M = Image.module();
    for (const NativeCPoolEntry &E : CM->Src.CPool) {
      if (E.IsFunction)
        Bound->CPool.push_back(
            Image.functionAddress(M.functions()[E.Index].get()).Bits);
      else
        Bound->CPool.push_back(
            Image.addressOf(M.globals()[E.Index].get()).Bits);
    }
    Bound->CM = std::move(CM);
    return {std::move(Bound)};
  }

  void runTeam(BoundKernel &Bound, const LaunchEnv &Env,
               const vgpu::ModuleImage &Image, const ir::Function *Kernel,
               std::span<const std::uint64_t> Args, std::uint32_t TeamId,
               std::uint32_t NumTeams, std::uint32_t NumThreads,
               vgpu::LaunchMetrics &Metrics, vgpu::LaunchProfile *Profile,
               TeamOutcome &Out) override {
    auto &BK = static_cast<NativeBound &>(Bound);
    CODESIGN_ASSERT(Args.size() == Kernel->numArgs(),
                    "argument count validated by the launch engine");
    // Team storage recycled per worker thread (TeamScratch), so per-team
    // setup allocates nothing in steady state.
    thread_local vgpu::TeamScratch<NativeLane> Scratch;
    Out = NativeTeam(Env, Image, BK, Kernel, Args, TeamId, NumTeams,
                     NumThreads, Metrics, Profile, Scratch)
              .run();
  }

private:
  using ModulePtr = std::shared_ptr<const CompiledModule>;

  /// The module's compiled code, built at most once per content key no
  /// matter how many launches race for it. Distinct modules compile
  /// concurrently, and launches of compiled modules never wait on a build.
  Expected<ModulePtr> ensureCompiled(const ir::Module &M) {
    return Modules.getOrCompile(moduleKey(M), [&]() -> Expected<ModulePtr> {
      auto CM = std::make_shared<CompiledModule>();
      CM->Src = emitNativeModule(M);
      auto Handle = compileAndLoad(CM->Src.Source);
      if (!Handle)
        return Handle.error();
      CM->Handle = *Handle;
      for (const auto &[Name, Info] : CM->Src.Kernels) {
        void *Sym = ::dlsym(CM->Handle, Info.Symbol.c_str());
        if (!Sym)
          return makeError("generated module lacks driver symbol '",
                           Info.Symbol, "' for kernel '@", Name, "'");
        CM->Drivers[Name] = reinterpret_cast<DriverFn>(Sym);
      }
      return ModulePtr(std::move(CM));
    });
  }

  support::SingleFlightCache<ModulePtr> Modules{"native-cache"};
};

} // namespace

std::unique_ptr<Backend> makeNativeBackend() {
  return std::make_unique<NativeBackend>();
}

} // namespace codesign::exec

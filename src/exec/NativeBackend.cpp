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
// Each lane of a team runs the compiled kernel entry on its own ucontext
// fiber; runTeam is the scheduler, replaying the interpreter's
// strict-lane-order run-to-barrier schedule (TeamExecutor::run): sweep
// lanes in thread order, run each until it returns / traps / suspends at a
// barrier, stop the team on the first trap, detect livelock, and release
// rendezvous with the debug aligned-barrier identity check. Because a
// barrier suspends the whole fiber, barriers are legal at any call depth —
// inside the old runtime's opaque entry helpers and inside outlined work
// functions reached through the state machine's indirect calls included.
//
// Everything the generated code cannot do natively calls back into the
// host through the cg_team function pointers: registered native ops (run
// against a bridged vgpu::NativeCtx with the interpreter's exact
// resolve/charge semantics), device malloc/free on the global arena,
// per-lane local-memory growth, and the barrier suspension itself.
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

/// Interpreter canonInt: canonical 64-bit pattern of an integer value.
std::uint64_t canonIntBits(ir::Type Ty, std::uint64_t Bits) {
  switch (Ty.kind()) {
  case ir::TypeKind::I1:
    return Bits & 1;
  case ir::TypeKind::I32:
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(
        static_cast<std::int32_t>(static_cast<std::uint32_t>(Bits))));
  default:
    return Bits;
  }
}

std::uint64_t canonArg(ir::Type Ty, std::uint64_t Bits) {
  return Ty.isInteger() ? canonIntBits(Ty, Bits) : Bits;
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
// Host bridge: one team's execution state
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

struct HostTeam {
  const LaunchEnv *Env = nullptr;
  vgpu::LaunchMetrics *Metrics = nullptr;
  vgpu::LaunchProfile *Profile = nullptr;
  std::uint32_t TeamId = 0;
  abi::cg_team T;
  std::vector<abi::cg_lane> Lanes;
  std::vector<std::vector<std::uint64_t>> SlotStore;
  std::vector<std::vector<std::uint8_t>> LocalStore;
  std::vector<std::uint8_t> Shared;
#if CODESIGN_FIBER_RAWSWITCH
  void *SchedSp = nullptr;
#else
  ucontext_t SchedCtx;
#endif
  std::vector<LaneFiber> Fibers;
  DriverFn Entry = nullptr;
};

/// Fiber entry functions cannot portably receive pointers (makecontext) or
/// registers (the raw switch's `ret` into us); the scheduler parks the
/// team/lane to start here immediately before the first swap into the
/// fiber. Thread-local because the launch engine runs teams concurrently on
/// its worker threads (fibers always resume on the thread that is
/// scheduling their team).
thread_local HostTeam *FiberStartTeam = nullptr;
thread_local abi::cg_lane *FiberStartLane = nullptr;

void fiberMain() {
  HostTeam *H = FiberStartTeam;
  abi::cg_lane *L = FiberStartLane;
  H->Entry(L);
#if CODESIGN_FIBER_RAWSWITCH
  // The lane finished (status 1 or 2); hand control back for good. The raw
  // switch has no uc_link, so returning is not an option.
  void *Dead = nullptr;
  cgFiberSwitch(&Dead, H->SchedSp);
  __builtin_unreachable();
#endif
  // ucontext: returning ends the fiber; uc_link resumes the scheduler
  // context saved by the swap that ran us last.
}

void trapLane(abi::cg_lane &L, const char *Msg) {
  L.trap_msg = Msg;
  L.status = 2u;
}

/// Grow (or map) lane L's local backing so [0, Need) is addressable, with
/// the interpreter BumpArena's growth policy; updates the window the
/// generated fast path checks against.
std::uint8_t *lanLocalData(HostTeam &H, abi::cg_lane &L, std::uint64_t Off,
                           std::uint64_t Size) {
  if (Off + Size > H.T.local_cap) {
    // The interpreter asserts here (local accesses beyond the arena cap are
    // a broken-invariant state its BumpArena refuses); the native tier
    // reports it as a trap with the same text.
    trapLane(L, "local access out of bounds");
    return nullptr;
  }
  auto &Store = H.LocalStore[L.tid];
  const std::uint64_t Need = Off + Size;
  if (Store.size() < Need)
    Store.resize(std::max<std::uint64_t>(Need * 2, 256), 0);
  L.local_base = Store.data();
  L.local_size = Store.size();
  return Store.data() + Off;
}

/// Interpreter TeamExecutor::resolve, host side (used by the NativeCtx
/// bridge; the generated code has its own identical copy).
std::uint8_t *bridgeResolve(HostTeam &H, abi::cg_lane &L, DeviceAddr A,
                            unsigned Size) {
  switch (A.space()) {
  case MemSpace::Global:
    if (A.offset() + Size > H.Env->GM.capacity()) {
      trapLane(L, "global access out of bounds");
      return nullptr;
    }
    return H.Env->GM.data(A.offset(), Size);
  case MemSpace::Shared:
    if (A.offset() + Size > H.Env->Config.SharedMemPerTeam) {
      trapLane(L, "shared memory access out of bounds");
      return nullptr;
    }
    return H.Shared.data() + A.offset();
  case MemSpace::Local:
    if (H.Env->Config.DebugChecks && A.owner() != L.tid) {
      std::snprintf(L.msg_buf, sizeof(L.msg_buf),
                    "cross-thread access to local memory (thread %u "
                    "dereferenced a pointer owned by thread %u); such "
                    "variables must be globalized",
                    L.tid, static_cast<unsigned>(A.owner()));
      trapLane(L, L.msg_buf);
      return nullptr;
    }
    return lanLocalData(H, L, A.offset(), Size);
  case MemSpace::Invalid:
    trapLane(L, A.isNull() ? "null pointer dereference"
                           : "dereference of a function address");
    return nullptr;
  }
  return nullptr;
}

/// Interpreter chargeAccess: cost-model cycles + metric/profile counters.
void chargeAccess(HostTeam &H, abi::cg_lane &L, MemSpace S, bool IsStore,
                  bool IsAtomic, unsigned SizeBytes) {
  const vgpu::CostModel &C = H.Env->Config.Costs;
  std::uint64_t Cost = 0;
  switch (S) {
  case MemSpace::Global:
    Cost = IsAtomic ? C.AtomicGlobal : C.GlobalAccess;
    (IsStore ? H.Metrics->GlobalStores : H.Metrics->GlobalLoads)++;
    if (H.Profile)
      (IsStore ? H.Profile->GlobalBytesWritten
               : H.Profile->GlobalBytesRead) += SizeBytes;
    break;
  case MemSpace::Shared:
    Cost = IsAtomic ? C.AtomicShared : C.SharedAccess;
    (IsStore ? H.Metrics->SharedStores : H.Metrics->SharedLoads)++;
    if (H.Profile)
      (IsStore ? H.Profile->SharedBytesWritten
               : H.Profile->SharedBytesRead) += SizeBytes;
    break;
  case MemSpace::Local:
    Cost = C.LocalAccess;
    H.Metrics->LocalAccesses++;
    break;
  case MemSpace::Invalid:
    break;
  }
  if (IsAtomic)
    H.Metrics->Atomics++;
  L.cycles += Cost;
}

/// vgpu::NativeCtx over a generated lane: registered native functors see
/// the interpreter's exact memory/charging semantics (NativeCtxImpl), so an
/// app's native loop bodies are backend-invariant.
class BridgeCtx final : public vgpu::NativeCtx {
public:
  BridgeCtx(HostTeam &H, abi::cg_lane &L, const std::uint64_t *Args,
            std::uint32_t N)
      : H(H), L(L), Args(Args), N(N) {}

  unsigned numArgs() const override { return N; }
  std::uint64_t argBits(unsigned I) const override {
    CODESIGN_ASSERT(I < N, "native arg out of range");
    return Args[I];
  }
  std::uint64_t loadBits(DeviceAddr A, unsigned Size) override {
    std::uint8_t *P = bridgeResolve(H, L, A, Size);
    if (!P)
      return 0;
    std::uint64_t Raw = 0;
    std::memcpy(&Raw, P, Size);
    chargeAccess(H, L, A.space(), false, false, Size);
    return Raw;
  }
  void storeBits(DeviceAddr A, std::uint64_t Bits, unsigned Size) override {
    std::uint8_t *P = bridgeResolve(H, L, A, Size);
    if (!P)
      return;
    std::memcpy(P, &Bits, Size);
    chargeAccess(H, L, A.space(), true, false, Size);
  }
  void loadBlockF64(DeviceAddr A, double *Out, std::uint32_t Count) override {
    const std::uint64_t Bytes = static_cast<std::uint64_t>(Count) * 8;
    if (A.space() == MemSpace::Global &&
        A.offset() + Bytes <= H.Env->GM.capacity()) {
      std::memcpy(Out, H.Env->GM.data(A.offset(), Bytes), Bytes);
      H.Metrics->GlobalLoads += Count;
      if (H.Profile)
        H.Profile->GlobalBytesRead += Bytes;
      L.cycles += Count * H.Env->Config.Costs.GlobalAccess;
      return;
    }
    if (A.space() == MemSpace::Shared &&
        A.offset() + Bytes <= H.Env->Config.SharedMemPerTeam) {
      std::memcpy(Out, H.Shared.data() + A.offset(), Bytes);
      H.Metrics->SharedLoads += Count;
      if (H.Profile)
        H.Profile->SharedBytesRead += Bytes;
      L.cycles += Count * H.Env->Config.Costs.SharedAccess;
      return;
    }
    NativeCtx::loadBlockF64(A, Out, Count);
  }
  void storeBlockF64(DeviceAddr A, const double *In,
                     std::uint32_t Count) override {
    const std::uint64_t Bytes = static_cast<std::uint64_t>(Count) * 8;
    if (A.space() == MemSpace::Global &&
        A.offset() + Bytes <= H.Env->GM.capacity()) {
      std::memcpy(H.Env->GM.data(A.offset(), Bytes), In, Bytes);
      H.Metrics->GlobalStores += Count;
      if (H.Profile)
        H.Profile->GlobalBytesWritten += Bytes;
      L.cycles += Count * H.Env->Config.Costs.GlobalAccess;
      return;
    }
    if (A.space() == MemSpace::Shared &&
        A.offset() + Bytes <= H.Env->Config.SharedMemPerTeam) {
      std::memcpy(H.Shared.data() + A.offset(), In, Bytes);
      H.Metrics->SharedStores += Count;
      if (H.Profile)
        H.Profile->SharedBytesWritten += Bytes;
      L.cycles += Count * H.Env->Config.Costs.SharedAccess;
      return;
    }
    NativeCtx::storeBlockF64(A, In, Count);
  }
  void chargeCycles(std::uint64_t Cycles) override {
    L.cycles += Cycles;
    H.Metrics->NativeCycles += Cycles;
  }
  void setResultBits(std::uint64_t Bits) override {
    Result = Bits;
    HasResult = true;
  }
  std::uint32_t threadId() const override { return L.tid; }
  std::uint32_t teamId() const override { return H.TeamId; }

  std::uint64_t Result = 0;
  bool HasResult = false;

private:
  HostTeam &H;
  abi::cg_lane &L;
  const std::uint64_t *Args;
  std::uint32_t N;
};

//--- cg_team host callbacks -------------------------------------------------

std::uint64_t hostNativeOp(void *Host, abi::cg_lane *Lane, std::int64_t Id,
                           const std::uint64_t *Args, std::uint32_t N,
                           std::uint32_t *HasResult) {
  auto &H = *static_cast<HostTeam *>(Host);
  BridgeCtx Ctx(H, *Lane, Args, N);
  H.Env->Registry.get(Id).Fn(Ctx);
  *HasResult = Ctx.HasResult ? 1u : 0u;
  return Ctx.Result;
}

std::uint64_t hostMalloc(void *Host, std::uint64_t Size) {
  auto &H = *static_cast<HostTeam *>(Host);
  // The interpreter counts every device malloc, including size-0 requests
  // that return null without touching the allocator.
  H.Metrics->DeviceMallocs++;
  if (Size == 0)
    return 0;
  auto R = H.Env->GM.allocate(Size, 16);
  if (!R)
    return 0;
  return DeviceAddr::make(MemSpace::Global, *R).Bits;
}

void hostFree(void *Host, std::uint64_t AddrBits) {
  auto &H = *static_cast<HostTeam *>(Host);
  const DeviceAddr A(AddrBits);
  if (!A.isNull())
    H.Env->GM.release(A.offset());
}

std::uint8_t *hostLocalData(void *Host, abi::cg_lane *Lane, std::uint64_t Off,
                            std::uint64_t Size) {
  auto &H = *static_cast<HostTeam *>(Host);
  return lanLocalData(H, *Lane, Off, Size);
}

/// Barrier suspension: park the calling lane fiber (its status is already
/// 3 with the site recorded) and resume the team scheduler. Control comes
/// back here when the rendezvous releases the lane.
void hostSuspend(void *Host, abi::cg_lane *Lane) {
  auto &H = *static_cast<HostTeam *>(Host);
#if CODESIGN_FIBER_RAWSWITCH
  cgFiberSwitch(&H.Fibers[Lane->tid].Sp, H.SchedSp);
#else
  ::swapcontext(&H.Fibers[Lane->tid].Ctx, &H.SchedCtx);
#endif
}

/// Run lane I until it blocks: start its fiber (first time) or resume it
/// at the barrier it is parked on.
void runLane(HostTeam &H, std::uint32_t I) {
  LaneFiber &Fb = H.Fibers[I];
  if (!Fb.Started) {
    Fb.Stack = acquireStack();
    Fb.Started = true;
    FiberStartTeam = &H;
    FiberStartLane = &H.Lanes[I];
#if CODESIGN_FIBER_RAWSWITCH
    // Hand-build the frame the switch restores: a 16-byte-aligned slot
    // holding fiberMain as the `ret` target, six callee-saved register
    // slots below it (zeroed — their first-entry values are never read).
    // After the `ret`, rsp sits where a `call fiberMain` would have left
    // it, so the generated code's alignment assumptions hold.
    std::uint8_t *Top = Fb.Stack.get() + StackBytes;
    std::uintptr_t Entry =
        (reinterpret_cast<std::uintptr_t>(Top) - 8) & ~std::uintptr_t(15);
    void (*Fn)() = &fiberMain;
    std::memcpy(reinterpret_cast<void *>(Entry), &Fn, sizeof(Fn));
    Fb.Sp = reinterpret_cast<void *>(Entry - 48);
    std::memset(Fb.Sp, 0, 48);
#else
    ::getcontext(&Fb.Ctx);
    Fb.Ctx.uc_stack.ss_sp = Fb.Stack.get();
    Fb.Ctx.uc_stack.ss_size = StackBytes;
    Fb.Ctx.uc_link = &H.SchedCtx;
    ::makecontext(&Fb.Ctx, &fiberMain, 0);
#endif
  }
#if CODESIGN_FIBER_RAWSWITCH
  cgFiberSwitch(&H.SchedSp, Fb.Sp);
#else
  ::swapcontext(&H.SchedCtx, &Fb.Ctx);
#endif
  if (H.Lanes[I].status != 3u) {
    // Returned or trapped: the fiber is dead, its stack reusable.
    recycleStack(std::move(Fb.Stack));
  }
}

//===----------------------------------------------------------------------===//
// The backend
//===----------------------------------------------------------------------===//

class NativeBound final : public BoundKernel {
public:
  std::shared_ptr<const CompiledModule> CM;
  DriverFn Fn = nullptr;
  std::uint32_t NumSlots = 0;
  std::vector<std::uint64_t> CPool; ///< device addresses, per this image
};

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

    // One scratch HostTeam per worker thread, reused across the thousands
    // of teams a launch sweeps: the arenas and lane arrays keep their
    // capacity, so per-team setup is a handful of memsets instead of ~2 ×
    // NumThreads allocations. Everything a kernel can observe is reset
    // below (shared arena re-zeroed, lanes and local stores cleared).
    thread_local HostTeam Scratch;
    HostTeam &H = Scratch;
    H.T = abi::cg_team{};
    H.Env = &Env;
    H.Metrics = &Metrics;
    H.Profile = Profile;
    H.TeamId = TeamId;
    // Shared arena preallocated at the device cap so the window never moves
    // (the interpreter grows on demand; the trap bound is identical). The
    // max() keeps initTeamShared's arena precondition even for
    // misconfigured tiny caps — the occupancy check rejects such launches
    // before any team runs.
    H.Shared.assign(std::max({Env.Config.SharedMemPerTeam,
                              Image.sharedStaticSize(),
                              std::uint64_t{1}}),
                    0);
    Image.initTeamShared(H.Shared);
    H.Lanes.resize(NumThreads);
    H.SlotStore.resize(NumThreads);
    H.LocalStore.resize(NumThreads);
    for (std::uint32_t I = 0; I < NumThreads; ++I) {
      auto &Slots = H.SlotStore[I];
      Slots.assign(std::max<std::uint32_t>(BK.NumSlots, 1), 0);
      for (unsigned A = 0; A < Kernel->numArgs(); ++A)
        Slots[A] = canonArg(Kernel->arg(A)->type(), Args[A]);
      // Local memory must read back zeroed, like the interpreter's fresh
      // per-team arena: clear() + the zero-filling regrowth in
      // lanLocalData re-zeroes exactly the bytes a lane actually maps.
      H.LocalStore[I].clear();
      abi::cg_lane &L = H.Lanes[I];
      L = abi::cg_lane{};
      L.team = &H.T;
      L.slots = Slots.data();
      L.tid = I;
    }
    H.T.host = &H;
    H.T.lanes = H.Lanes.data();
    H.T.num_lanes = NumThreads;
    H.T.team_id = TeamId;
    H.T.num_teams = NumTeams;
    H.T.num_threads = NumThreads;
    H.T.warp_size = Env.Config.WarpSize;
    H.T.debug_checks = Env.Config.DebugChecks ? 1u : 0u;
    H.T.global_base = Env.GM.data(0, Env.GM.capacity());
    H.T.global_size = Env.GM.capacity();
    H.T.shared_base = H.Shared.data();
    H.T.shared_cap = Env.Config.SharedMemPerTeam;
    H.T.local_cap = Env.Config.LocalMemPerThread;
    H.T.cpool = BK.CPool.data();
    H.T.host_native_op = &hostNativeOp;
    H.T.host_malloc = &hostMalloc;
    H.T.host_free = &hostFree;
    H.T.host_local_data = &hostLocalData;
    H.T.host_suspend = &hostSuspend;
    if (!BK.CM->Src.AnyBarriers) {
      // No barrier anywhere in the module, so no lane can ever suspend:
      // run each lane to completion straight on this stack, in the
      // interpreter's strict thread order, stopping at the first trap.
      for (std::uint32_t I = 0; I < NumThreads && !H.T.trapped; ++I) {
        abi::cg_lane &L = H.Lanes[I];
        BK.Fn(&L);
        if (L.status == 2u) {
          H.T.trapped = 1u;
          H.T.trap_lane = I;
        }
      }
      finishTeam(H, TeamId, Out);
      return;
    }

    H.Fibers.resize(NumThreads);
    for (LaneFiber &Fb : H.Fibers) {
      // A fiber can carry a stack across teams only when its lane was
      // still parked at a barrier when the previous team trapped; the
      // suspended frames hold no nontrivial objects, so the memory is
      // plain recyclable storage.
      recycleStack(std::move(Fb.Stack));
      Fb = LaneFiber{};
    }
    H.Entry = BK.Fn;

    // The interpreter's TeamExecutor::run(), with fibers standing in for
    // its explicit frame stacks: sweep lanes in strict thread order, run
    // each until it blocks, stop the team on the first trap, then release
    // the rendezvous (releaseBarrier's exact debug checks, wait-cycle
    // accounting, and cost charging).
    for (;;) {
      bool AllDone = true;
      for (std::uint32_t I = 0; I < NumThreads && !H.T.trapped; ++I) {
        abi::cg_lane &L = H.Lanes[I];
        if (L.status == 0u)
          runLane(H, I);
        if (L.status == 2u) {
          H.T.trapped = 1u;
          H.T.trap_lane = I;
          break;
        }
        if (L.status != 1u)
          AllDone = false;
      }
      if (H.T.trapped || AllDone)
        break;
      bool AnyAtBarrier = false;
      for (const abi::cg_lane &L : H.Lanes)
        if (L.status == 3u)
          AnyAtBarrier = true;
      if (!AnyAtBarrier) {
        H.T.trapped = 1u;
        H.T.team_trap_msg = "livelock detected";
        break;
      }
      // Rendezvous. Any arrival at an *aligned* barrier keys the debug
      // identity check (the interpreter compares BarrierInst pointers; the
      // module-unique site ids are that identity).
      std::uint64_t MaxArrival = 0;
      std::uint32_t AlignedSite = 0;
      for (const abi::cg_lane &L : H.Lanes) {
        if (L.status != 3u)
          continue;
        MaxArrival = std::max(MaxArrival, L.cycles);
        if (L.barrier_aligned != 0u)
          AlignedSite = L.barrier_site;
      }
      if (Env.Config.DebugChecks && AlignedSite != 0u) {
        for (const abi::cg_lane &L : H.Lanes)
          if (L.status == 3u && L.barrier_site != AlignedSite) {
            H.T.trapped = 1u;
            H.T.team_trap_msg =
                "aligned barrier reached with unaligned threads";
            break;
          }
        if (H.T.trapped)
          break;
      }
      Metrics.Barriers++;
      if (Profile)
        for (const abi::cg_lane &L : H.Lanes)
          if (L.status == 3u)
            Profile->BarrierWaitCycles += MaxArrival - L.cycles;
      const std::uint64_t Release =
          MaxArrival + Env.Config.Costs.BarrierCost;
      for (abi::cg_lane &L : H.Lanes) {
        if (L.status != 3u)
          continue;
        L.cycles = Release;
        L.status = 0u;
      }
    }

    finishTeam(H, TeamId, Out);
  }

private:
  /// Shared epilogue: trap formatting (the interpreter's exact wording) and
  /// the team cycle count.
  static void finishTeam(const HostTeam &H, std::uint32_t TeamId,
                         TeamOutcome &Out) {
    if (H.T.trapped) {
      if (H.T.team_trap_msg) {
        Out.Err = "team " + std::to_string(TeamId) + ": " +
                  H.T.team_trap_msg;
      } else {
        const abi::cg_lane &L = H.Lanes[H.T.trap_lane];
        Out.Err = "thread " + std::to_string(L.tid) + " of team " +
                  std::to_string(TeamId) + ": " +
                  (L.trap_msg ? L.trap_msg : "trap without a message");
      }
    }
    std::uint64_t MaxCycles = 0;
    for (const abi::cg_lane &L : H.Lanes)
      MaxCycles = std::max(MaxCycles, L.cycles);
    Out.Cycles = MaxCycles;
  }

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

//===- tests/exec/test_native_cache.cpp - Native module cache --------------===//
//
// The native backend's compiled-module cache is a single-flight cache: a
// module compiles once however many launches race for it, distinct modules
// compile concurrently, launches of compiled modules never wait on another
// module's compile, and a failed compile reaches every waiter without
// poisoning the module or the device. The on-disk layer must tolerate
// concurrent compiles of identical source from separate backend instances.
//
// Every test compiles into a private CODESIGN_NATIVE_CACHE_DIR. Environment
// variables are only changed while no other thread runs. The suite runs
// under -DCODESIGN_SANITIZE=thread (ctest -L tsan).
//
//===----------------------------------------------------------------------===//
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "exec/Backend.hpp"
#include "exec/BuiltinBackends.hpp"
#include "ir/IRBuilder.hpp"
#include "support/Stats.hpp"

namespace codesign::exec {
namespace {

namespace fs = std::filesystem;
using namespace ir;

constexpr std::uint32_t Teams = 2;
constexpr std::uint32_t Threads = 32;
constexpr std::uint64_t Words = Teams * Threads;
constexpr int Racers = 8;

/// A module whose kernel @k writes buf[g] = g * Tag + 1 for global thread
/// index g. Each Tag gives distinct generated code, hence a module neither
/// cache has seen.
std::unique_ptr<Module> makeModule(std::int64_t Tag) {
  auto M = std::make_unique<Module>("native_cache_" + std::to_string(Tag));
  Function *K = M->createFunction("k", Type::voidTy(), {Type::ptr()});
  K->addAttr(FnAttr::Kernel);
  IRBuilder B(*M);
  B.setInsertPoint(K->createBlock("entry"));
  Value *Tid = B.zext(B.threadId(), Type::i64());
  Value *Bid = B.zext(B.blockId(), Type::i64());
  Value *G = B.add(B.mul(Bid, B.zext(B.blockDim(), Type::i64())), Tid);
  B.store(B.add(B.mul(G, B.i64(Tag)), B.i64(1)),
          B.gep(K->arg(0), B.mul(G, B.i64(8))));
  B.retVoid();
  return M;
}

std::vector<std::int64_t> expected(std::int64_t Tag) {
  std::vector<std::int64_t> Out(Words);
  for (std::uint64_t G = 0; G < Words; ++G)
    Out[G] = static_cast<std::int64_t>(G) * Tag + 1;
  return Out;
}

std::uint64_t counter(const char *Name) {
  return Counters::global().value(Name);
}

/// Callers change the environment only while no other thread is running.
void setEnv(const char *Name, const std::string &Value) {
  ASSERT_EQ(::setenv(Name, Value.c_str(), 1), 0);
}

std::optional<std::string> getEnv(const char *Name) {
  const char *V = std::getenv(Name);
  return V ? std::optional<std::string>(V) : std::nullopt;
}

void restoreEnv(const char *Name, const std::optional<std::string> &Old) {
  if (Old)
    setEnv(Name, *Old);
  else
    ::unsetenv(Name);
}

class NativeCacheTest : public ::testing::Test {
protected:
  void SetUp() override {
    char Tmpl[] = "/tmp/codesign-native-cache-test.XXXXXX";
    ASSERT_NE(::mkdtemp(Tmpl), nullptr);
    Root = Tmpl;
    CacheDir = Root / "cache";
    fs::create_directories(CacheDir);
    OldCxx = getEnv("CODESIGN_NATIVE_CXX");
    OldCacheDir = getEnv("CODESIGN_NATIVE_CACHE_DIR");
    RealCxx = OldCxx.value_or("c++");
    setEnv("CODESIGN_NATIVE_CACHE_DIR", CacheDir.string());
  }

  void TearDown() override {
    restoreEnv("CODESIGN_NATIVE_CXX", OldCxx);
    restoreEnv("CODESIGN_NATIVE_CACHE_DIR", OldCacheDir);
    std::error_code EC;
    fs::remove_all(Root, EC);
  }

  /// An executable shell script to stand in for the host compiler.
  std::string script(const std::string &Name, const std::string &Body) {
    const fs::path Script = Root / Name;
    {
      std::ofstream Out(Script);
      Out << "#!/bin/sh\n" << Body << "\n";
    }
    fs::permissions(Script, fs::perms::owner_all);
    return Script.string();
  }

  /// Launch M's kernel through B on this test's device; the words the
  /// kernel wrote, or the launch error.
  Expected<std::vector<std::int64_t>> run(Backend &B, const Module &M) {
    vgpu::ModuleImage Image(M, GM);
    auto Off = GM.allocate(Words * 8);
    if (!Off)
      return Off.error();
    const std::uint64_t Args[] = {
        vgpu::DeviceAddr::make(vgpu::MemSpace::Global, *Off).Bits};
    const vgpu::LaunchResult R =
        launch(B, {Config, GM, Registry}, Image, M.findFunction("k"), Args,
               Teams, Threads);
    std::vector<std::int64_t> Out(Words);
    GM.read(*Off, std::span(reinterpret_cast<std::uint8_t *>(Out.data()),
                            Words * 8));
    GM.release(*Off);
    if (!R.Ok)
      return Error(R.Error);
    return Out;
  }

  /// Launch M from Racers threads released at once.
  std::vector<Expected<std::vector<std::int64_t>>> race(const Module &M) {
    std::vector<Expected<std::vector<std::int64_t>>> Results(
        Racers, Error("not run"));
    std::atomic<bool> Go{false};
    std::vector<std::thread> Pool;
    for (int I = 0; I < Racers; ++I)
      Pool.emplace_back([&, I] {
        while (!Go.load())
          std::this_thread::yield();
        Results[I] = run(*Native, M);
      });
    Go = true;
    for (std::thread &T : Pool)
      T.join();
    return Results;
  }

  fs::path Root;
  fs::path CacheDir;
  std::string RealCxx;
  std::optional<std::string> OldCxx;
  std::optional<std::string> OldCacheDir;
  vgpu::DeviceConfig Config;
  vgpu::GlobalMemory GM{Config.GlobalMemBytes};
  vgpu::NativeRegistry Registry;
  /// A backend of its own, so no module is compiled before the test runs.
  std::unique_ptr<Backend> Native = makeNativeBackend();
};

TEST_F(NativeCacheTest, RacingLaunchesOfOneNewModuleCompileOnce) {
  const auto M = makeModule(101);
  const std::uint64_t Misses0 = counter("native-cache.misses");
  const auto Results = race(*M);

  EXPECT_EQ(counter("native-cache.misses") - Misses0, 1u)
      << "one module, one compile";
  for (int I = 0; I < Racers; ++I) {
    ASSERT_TRUE(Results[I].hasValue()) << Results[I].error().message();
    EXPECT_EQ(*Results[I], expected(101)) << "racer " << I;
  }
}

TEST_F(NativeCacheTest, WarmLaunchDoesNotWaitOnAnotherModulesCompile) {
  const auto Warm = makeModule(201);
  const auto Cold = makeModule(202);
  auto First = run(*Native, *Warm);
  ASSERT_TRUE(First.hasValue()) << First.error().message();

  // The compiler marks when it starts and when its 2-second delay ends.
  const fs::path Started = Root / "compile-started";
  const fs::path Slept = Root / "compile-slept";
  setEnv("CODESIGN_NATIVE_CXX",
         script("marking-cxx", "touch '" + Started.string() +
                                   "'\nsleep 2\ntouch '" + Slept.string() +
                                   "'\nexec " + RealCxx + " \"$@\""));
  Expected<std::vector<std::int64_t>> ColdResult = Error("not run");
  std::thread Compile([&] { ColdResult = run(*Native, *Cold); });
  const auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!fs::exists(Started) && std::chrono::steady_clock::now() < Deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const bool CompileStarted = fs::exists(Started);

  auto Again = run(*Native, *Warm);
  const bool CompileStillRunning = !fs::exists(Slept);
  Compile.join();
  ASSERT_TRUE(CompileStarted) << "the slow compile never started";
  ASSERT_TRUE(Again.hasValue()) << Again.error().message();
  EXPECT_EQ(*Again, expected(201));
  EXPECT_TRUE(CompileStillRunning)
      << "the warm launch waited for another module's compile";
  ASSERT_TRUE(ColdResult.hasValue()) << ColdResult.error().message();
  EXPECT_EQ(*ColdResult, expected(202));
}

TEST_F(NativeCacheTest, FailedCompileReachesEveryWaiterAndIsRetried) {
  const auto M = makeModule(301);
  const std::uint64_t Misses0 = counter("native-cache.misses");

  // A failing compiler that takes long enough for every racer to join
  // the one in-flight compile.
  setEnv("CODESIGN_NATIVE_CXX", script("failing-cxx", "sleep 1\nexec false"));
  const auto Results = race(*M);
  EXPECT_EQ(counter("native-cache.misses") - Misses0, 1u);
  for (int I = 0; I < Racers; ++I) {
    ASSERT_FALSE(Results[I].hasValue()) << "racer " << I;
    EXPECT_NE(Results[I].error().message().find("host compiler failed"),
              std::string::npos)
        << Results[I].error().message();
    EXPECT_EQ(Results[I].error().message(), Results[0].error().message())
        << "every waiter gets the one compile's error";
  }

  // The failure is not cached: a later launch compiles again.
  setEnv("CODESIGN_NATIVE_CXX", "false");
  auto Retry = run(*Native, *M);
  ASSERT_FALSE(Retry.hasValue());
  EXPECT_NE(Retry.error().message().find("host compiler failed"),
            std::string::npos);
  EXPECT_EQ(counter("native-cache.misses") - Misses0, 2u);

  // The device stays usable: other backends run meanwhile, and native
  // works again once the compiler does.
  auto Bytecode = run(*makeBytecodeBackend(), *M);
  ASSERT_TRUE(Bytecode.hasValue()) << Bytecode.error().message();
  EXPECT_EQ(*Bytecode, expected(301));
  setEnv("CODESIGN_NATIVE_CXX", RealCxx);
  auto Native2 = run(*Native, *M);
  ASSERT_TRUE(Native2.hasValue()) << Native2.error().message();
  EXPECT_EQ(*Native2, expected(301));
}

TEST_F(NativeCacheTest, BackendInstancesShareOneCacheDirectory) {
  const auto M = makeModule(401);
  // Slow the compiler so the two compiles of identical source overlap.
  setEnv("CODESIGN_NATIVE_CXX",
         script("slow-cxx", "sleep 1\nexec " + RealCxx + " \"$@\""));
  std::unique_ptr<Backend> Other = makeNativeBackend();
  Expected<std::vector<std::int64_t>> RA = Error("not run");
  Expected<std::vector<std::int64_t>> RB = Error("not run");
  std::thread TA([&] { RA = run(*Native, *M); });
  std::thread TB([&] { RB = run(*Other, *M); });
  TA.join();
  TB.join();
  ASSERT_TRUE(RA.hasValue()) << RA.error().message();
  ASSERT_TRUE(RB.hasValue()) << RB.error().message();
  EXPECT_EQ(*RA, expected(401));
  EXPECT_EQ(*RB, expected(401));

  // Only the published object is left behind: no per-attempt source,
  // object or log.
  std::vector<std::string> Files;
  for (const fs::directory_entry &E : fs::directory_iterator(CacheDir))
    Files.push_back(E.path().filename().string());
  ASSERT_EQ(Files.size(), 1u);
  EXPECT_EQ(fs::path(Files[0]).extension(), ".so");
  EXPECT_EQ(Files[0].find(".tmp"), std::string::npos) << Files[0];
}

} // namespace
} // namespace codesign::exec

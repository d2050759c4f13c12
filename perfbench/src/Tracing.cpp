//===- perfbench/src/Tracing.cpp - Span-recording backend wrappers ---------===//
//
// Every run swaps the registry's bytecode and native backends for wrappers
// around fresh instances of the same engines. The wrappers add up the
// thread CPU time of every runTeam call, which apps_warm reads per launch.
// In the traced run each wrapper also records a span around every
// prepareModule / bindKernel / runTeam call, tagged with the tenant tag of
// the thread that bound the kernel (the service worker or the benchmark
// thread), so team spans running on the launch engine's pool threads still
// reach their request.
//
// The fresh instances come from exec/BuiltinBackends.hpp, the factories the
// registry itself uses: replacing a registry entry destroys the old
// instance, so the wrapper cannot hold the registered one.
//
//===----------------------------------------------------------------------===//
#include "Bench.hpp"

#include <ctime>
#include <set>

#include "exec/BuiltinBackends.hpp"
#include "support/Trace.hpp"

namespace pb {

using namespace cs;

namespace {

std::mutex StatsMutex;
BackendProbeStats Stats;
std::atomic<std::uint64_t> TeamCpuNs{0};

std::uint64_t threadCpuNs() {
  timespec T{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &T);
  return static_cast<std::uint64_t>(T.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(T.tv_nsec);
}

class TracedBound final : public exec::BoundKernel {
public:
  TracedBound(std::unique_ptr<exec::BoundKernel> Inner, std::string Tag)
      : Inner(std::move(Inner)), Tag(std::move(Tag)) {}
  std::unique_ptr<exec::BoundKernel> Inner;
  std::string Tag;
};

class TracingBackend final : public exec::Backend {
public:
  explicit TracingBackend(std::unique_ptr<exec::Backend> Inner)
      : Inner(std::move(Inner)), Name(this->Inner->name()),
        IsNative(Name == "native") {}

  [[nodiscard]] std::string_view name() const override { return Name; }

  Expected<void> prepareModule(const vgpu::ModuleImage &Image,
                               const exec::LaunchEnv &Env) override {
    const double T0 = nowUs();
    auto R = Inner->prepareModule(Image, Env);
    const double T1 = nowUs();
    SpanLog::global().add({"exec.prepare", trace::threadTenant(), T0, T1});
    if (IsNative) {
      const ir::Module *M = &Image.module();
      std::lock_guard<std::mutex> L(StatsMutex);
      if (Seen.insert(M->cacheKey().empty() ? std::to_string(
                                                  reinterpret_cast<std::uintptr_t>(M))
                                            : M->cacheKey())
              .second) {
        ++Stats.NativeFirstPrepares;
        if (R)
          ++Stats.NativeFirstPreparesOk;
        Stats.NativeFirstPrepareUs.push_back(T1 - T0);
      }
    }
    return R;
  }

  Expected<std::unique_ptr<exec::BoundKernel>>
  bindKernel(const vgpu::ModuleImage &Image, const ir::Function *Kernel,
             const exec::LaunchEnv &Env) override {
    const double T0 = nowUs();
    auto R = Inner->bindKernel(Image, Kernel, Env);
    const double T1 = nowUs();
    std::string Tag = trace::threadTenant();
    SpanLog::global().add({"exec.bind", Tag, T0, T1});
    if (!R)
      return R.error();
    return std::unique_ptr<exec::BoundKernel>(
        std::make_unique<TracedBound>(R.takeValue(), std::move(Tag)));
  }

  void runTeam(exec::BoundKernel &Bound, const exec::LaunchEnv &Env,
               const vgpu::ModuleImage &Image, const ir::Function *Kernel,
               std::span<const std::uint64_t> Args, std::uint32_t TeamId,
               std::uint32_t NumTeams, std::uint32_t NumThreads,
               vgpu::LaunchMetrics &Metrics, vgpu::LaunchProfile *Profile,
               exec::TeamOutcome &Out) override {
    auto &TB = static_cast<TracedBound &>(Bound);
    const double T0 = nowUs();
    const std::uint64_t C0 = threadCpuNs();
    Inner->runTeam(*TB.Inner, Env, Image, Kernel, Args, TeamId, NumTeams,
                   NumThreads, Metrics, Profile, Out);
    TeamCpuNs.fetch_add(threadCpuNs() - C0, std::memory_order_relaxed);
    SpanLog::global().add({"vgpu.team", TB.Tag, T0, nowUs()});
  }

private:
  std::unique_ptr<exec::Backend> Inner;
  std::string Name;
  bool IsNative;
  std::set<std::string> Seen;
};

} // namespace

void installTracingBackends() {
  {
    std::lock_guard<std::mutex> L(StatsMutex);
    Stats = BackendProbeStats();
  }
  auto &Reg = exec::BackendRegistry::global();
  Reg.add(std::make_unique<TracingBackend>(exec::makeBytecodeBackend()));
  Reg.add(std::make_unique<TracingBackend>(exec::makeNativeBackend()));
}

double takeTeamCpuUs() {
  return static_cast<double>(TeamCpuNs.exchange(0, std::memory_order_relaxed)) /
         1e3;
}

BackendProbeStats tracingBackendStats() {
  std::lock_guard<std::mutex> L(StatsMutex);
  return Stats;
}

} // namespace pb

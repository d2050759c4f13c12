//===- perfbench/src/Bench.hpp - Shared benchmark declarations -------------===//
//
// The benchmark driver runs one workload per invocation and writes a raw
// JSON record (samples, counts, checks, spans) that run.py reduces to the
// reported metrics. Everything here drives the library through its public
// entry points; nothing is added to the library itself.
//
//===----------------------------------------------------------------------===//
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "apps/AppCommon.hpp"
#include "exec/Backend.hpp"
#include "frontend/KernelSpec.hpp"
#include "frontend/TargetCompiler.hpp"
#include "service/Service.hpp"
#include "support/Json.hpp"
#include "vgpu/VirtualGPU.hpp"

namespace pb {

namespace cs = codesign;
using cs::Expected;
using cs::json::Value;

/// Microseconds on the steady clock since the first call in the process.
double nowUs();

/// Options of one invocation (see main.cpp for the flags).
struct Options {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool CorruptExpectedHash = false;
  std::string NativeCache; ///< CODESIGN_NATIVE_CACHE_DIR of the workload
  std::string AppsCache;   ///< persistent cache for the proxy-app modules
  std::string Scratch;     ///< per-run scratch directory
};

/// Successes, failures and the first few failure messages of a run.
struct Outcome {
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  std::uint64_t Mismatches = 0;
  std::vector<std::string> Errors;
  std::mutex M;

  void ok() {
    std::lock_guard<std::mutex> L(M);
    ++Attempted;
  }
  void fail(const std::string &Why, bool Mismatch = false) {
    std::lock_guard<std::mutex> L(M);
    ++Attempted;
    ++Failed;
    if (Mismatch)
      ++Mismatches;
    if (Errors.size() < 8)
      Errors.push_back(Why);
  }
};

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// One span the benchmark recorded: a named interval on the steady clock,
/// attributed to a request tag (the tenant tag the request ran under).
struct Span {
  std::string Name;
  std::string Tag;
  double Start = 0;
  double End = 0;
};

/// Thread-safe span store for the traced run. Disabled (no recording)
/// unless the run is traced.
class SpanLog {
public:
  static SpanLog &global();
  void setEnabled(bool On) { Enabled.store(On); }
  [[nodiscard]] bool enabled() const { return Enabled.load(); }
  void add(Span S) {
    if (!enabled())
      return;
    std::lock_guard<std::mutex> L(M);
    Spans.push_back(std::move(S));
  }
  std::vector<Span> take() {
    std::lock_guard<std::mutex> L(M);
    return std::move(Spans);
  }
  std::vector<Span> snapshot() {
    std::lock_guard<std::mutex> L(M);
    return Spans;
  }

private:
  std::atomic<bool> Enabled{false};
  std::mutex M;
  std::vector<Span> Spans;
};

/// Replace the registry's bytecode and native backends with wrappers around
/// fresh instances. The wrappers add up their teams' thread CPU time
/// (takeTeamCpuUs) and count native first-prepares (installing resets the
/// counts). While spans are enabled they also record a span around every
/// prepareModule / bindKernel / runTeam call.
void installTracingBackends();

/// Per-backend statistics gathered by the tracing wrappers.
struct BackendProbeStats {
  std::uint64_t NativeFirstPrepares = 0;
  std::uint64_t NativeFirstPreparesOk = 0;
  std::vector<double> NativeFirstPrepareUs;
};
BackendProbeStats tracingBackendStats();

//===----------------------------------------------------------------------===//
// Generated kernels
//===----------------------------------------------------------------------===//

/// Native ops every benchmark device registers, in this order.
struct OpIds {
  std::int64_t Elem = 0;
  std::int64_t Acc = 0;
};
OpIds registerOps(cs::vgpu::NativeRegistry &R);

/// Value pb_elem stores for iteration Iter of input X (shared with the host
/// reference so both compute bit-identical doubles).
double elemValue(double X, std::uint64_t Iter, std::int64_t Salt);

/// A generated kernel with its launch geometry and buffer sizes. Every
/// kernel takes (out, in, acc, n, salt).
struct GenKernel {
  cs::frontend::KernelSpec Spec;
  int Shape = 0; ///< 0 SPMD dpf, 1 generic parallel-for, 2 nested, 3 serial+parallel
  std::uint32_t Teams = 1;
  std::uint32_t Threads = 32;
  std::int64_t N = 0;
  std::int64_t Salt = 0;
  [[nodiscard]] std::size_t outElems() const;
  [[nodiscard]] std::size_t accElems() const { return Teams; }
};

/// Build a kernel of the given shape (names must be unique per module set).
GenKernel makeKernel(const OpIds &Ops, std::string Name, int Shape,
                     std::uint32_t Teams, std::uint32_t Threads,
                     std::int64_t N, std::int64_t Salt,
                     std::int32_t NumThreadsClause = 0,
                     std::uint64_t ScratchBytes = 0);

/// Deterministic input vector for a kernel.
std::vector<double> kernelInput(const GenKernel &K);

/// Host reference of shapes 0, 1 and 3: the expected out buffer followed
/// by the expected acc buffer.
std::vector<double> hostReference(const GenKernel &K,
                                  const std::vector<double> &In);

/// FNV-1a over a double buffer.
std::uint64_t hashDoubles(const std::vector<double> &V);

/// Compile options every generated kernel uses.
cs::frontend::CompileOptions kernelOptions();

/// Host buffers of one in-flight launch of a generated kernel.
struct KernelBuffers {
  std::vector<double> Out, In, Acc;
  void reset(const GenKernel &K, const std::vector<double> &Input);
  cs::host::LaunchRequest request(const GenKernel &K, std::string Backend,
                                  std::string Tenant);
};

//===----------------------------------------------------------------------===//
// Open-loop streams through a Service
//===----------------------------------------------------------------------===//

/// One open-loop stream of warm native launches issued on a schedule from
/// its own generator thread, its results collected in submission order by
/// a second thread.
struct StreamKernel {
  const GenKernel *K = nullptr;
  std::vector<double> Input;
  std::uint64_t ExpectedHash = 0; ///< 0: compare against nothing
};

struct StreamResult {
  /// Per request: when it was due, submitted and completed (-1: failed).
  std::vector<double> Due, Submit, Done;
  std::vector<int> Row;          ///< kernel index
  std::vector<double> TicketUs;  ///< from submit (successful requests)
  std::vector<double> TransferBytes, Transfers, TransferCycles;
};

/// Launch-request stream parameters.
struct StreamSpec {
  std::string Name;           ///< span / tag prefix
  std::vector<StreamKernel> Kernels;
  double Rate = 1;            ///< launches per second
  double Seconds = 1;
  std::uint64_t Seed = 1;
  bool UniqueTags = false;    ///< traced run: one tenant tag per request
};

StreamResult runStream(cs::service::Service &Svc, const StreamSpec &S,
                       Outcome &Out);

/// One traced request: its tag (the tenant tag it ran under), kind, the
/// times the benchmark took around it, and its parts (cold_kernels tickets).
struct RequestRecord {
  std::string Tag;
  std::string Kind;
  double Due = 0, Submit = 0, Done = 0;
  double LaunchWallUs = -1; ///< apps: AppRunResult::WallMicros
  std::vector<Span> Parts;
};
/// Request records of the traced run (recording only while spans are).
class RequestLog {
public:
  static RequestLog &global();
  void add(RequestRecord R) {
    if (!SpanLog::global().enabled())
      return;
    std::lock_guard<std::mutex> L(M);
    Records.push_back(std::move(R));
  }
  std::vector<RequestRecord> take() {
    std::lock_guard<std::mutex> L(M);
    return std::move(Records);
  }

private:
  std::mutex M;
  std::vector<RequestRecord> Records;
};

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// What a workload hands back to main: the raw record's "e2e" object plus
/// the per-workload pieces the traced run reuses.
struct WorkloadResult {
  Value E2E = Value::object();
  Value Layers = Value::object();
};

WorkloadResult runAppsWarm(const Options &O, Outcome &Out, bool Traced);
WorkloadResult runColdKernels(const Options &O, Outcome &Out, bool Traced);

/// One proxy app on its own device.
struct AppEntry {
  std::string Slug;
  std::unique_ptr<cs::vgpu::VirtualGPU> GPU;
  std::shared_ptr<void> App; ///< declared after GPU: destroyed first
  std::function<cs::apps::AppRunResult(const cs::apps::BuildConfig &)> Run;
  std::vector<cs::apps::BuildConfig> Builds;
};
/// The five proxy apps at their default sizes, data seeded from Seed.
std::vector<AppEntry> makeApps(std::uint64_t Seed, bool Profile);
/// Short metric-name form of a paper build configuration name.
std::string buildSlug(const std::string &Name);
/// The eight small kernels of the host-layer probe, for a seed.
std::vector<GenKernel> smallKernels(const OpIds &Ops, std::uint64_t Seed);

/// Layer probes every traced run makes (exec / host / frontend / apps).
Value runLayerProbes(const Options &O, Outcome &Out, bool NeedApps);

/// The two bystander kernels: warm native launches that cold_kernels issues
/// open loop beside its compiles, and that apps_warm probes one at a time.
/// Compiled, registered and warmed on Svc.
Expected<std::vector<StreamKernel>>
setupBystanders(std::vector<GenKernel> &Storage, const OpIds &Ops,
                cs::service::Service &Svc, Outcome &Out);
constexpr double BystanderRate = 50.0; ///< cold_kernels, launches per second

/// Traced run: per-row median team time of the proxy apps (from the
/// tracing wrappers' spans), and one span tree per sampled request.
void appTeamTimes(Value &L);
Value buildRequestTrees(std::size_t PerKind);

/// A stream's raw per-request times and row names for run.py.
Value streamJson(const StreamResult &R, const std::vector<std::string> &Rows);

/// Helpers for JSON arrays.
Value toJson(const std::vector<double> &V);
double median(std::vector<double> V);
/// Geometric mean of positive values, summed in sorted order (0 if empty).
double geomean(std::vector<double> V);

/// Peak resident set size of the process, MiB.
double peakRssMiB();

/// CPU time of the process (all its threads) and of its waited-for
/// children, microseconds. Linux accounts it net of the time the hypervisor
/// steals from the virtual CPUs, which wall-clock time is not.
double processCpuUs();

/// Thread CPU time the installed backend wrappers spent in runTeam since
/// the previous call, microseconds: the execution cost of the launches in
/// between, summed over their teams.
double takeTeamCpuUs();

/// Set an environment variable (only while no other thread runs).
void setEnv(const char *K, const std::string &V);

} // namespace pb

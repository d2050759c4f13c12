//===- perfbench/src/main.cpp - Benchmark driver entry point ---------------===//
//
//   perfbench --workload apps_warm|cold_kernels --seed N
//             --seconds S --trace 0|1 --out FILE --native-cache DIR
//             --apps-cache DIR --scratch DIR [--corrupt-expected-hash]
//
// Runs one workload and writes the raw record to FILE. A traced run first
// runs the workload untraced for S/2 seconds (the reference for the tracing
// overhead), then traced for S/2 seconds with the span-recording backends,
// the library tracer and device profiling on, then the layer probes.
// run.py builds this binary, calls it and reduces the record.
//
//===----------------------------------------------------------------------===//
#include "Bench.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "support/Stats.hpp"
#include "support/Trace.hpp"

using namespace pb;
using namespace codesign;

namespace {

/// The pass-manager passes of the default pipelines (PassRegistry names).
const char *const Passes[] = {
    "constant-fold", "simplify-cfg",       "dce",
    "inliner",       "strip-assumes",      "spmdization",
    "barrier-elim",  "globalization-elim", "load-forwarding",
    "dead-store-elim"};

/// The sanitizer the benchmark and the libraries were built with, if any.
const char *sanitizer() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#else
  return PERFBENCH_SANITIZE;
#endif
}

std::map<std::string, std::uint64_t> counters() {
  std::map<std::string, std::uint64_t> M;
  for (auto &[K, V] : Counters::global().snapshot())
    M[K] = V;
  return M;
}

/// opt / frontend-cache numbers from the counter registry over the traced
/// part of the run.
void counterLayers(Value &L, const std::map<std::string, std::uint64_t> &A,
                   const std::map<std::string, std::uint64_t> &B) {
  auto Delta = [&](const std::string &K) {
    auto I = B.find(K);
    auto J = A.find(K);
    return static_cast<double>((I == B.end() ? 0 : I->second) -
                               (J == A.end() ? 0 : J->second));
  };
  const double Hits = Delta("kernel-cache.hits");
  const double Misses = Delta("kernel-cache.misses");
  const double Coalesced = Delta("kernel-cache.coalesced");
  const double Lookups = Hits + Misses + Coalesced;
  L.set("frontend.cache_hit_ratio",
        Value(Lookups > 0 ? (Hits + Coalesced) / Lookups : 0.0));
  const double PerCompile = Misses > 0 ? Misses : 1;
  for (const char *P : Passes) {
    const std::string Name(P);
    L.set("opt.pass_us." + Name, Value(Delta("opt.pass." + Name + ".us") / PerCompile));
    L.set("opt.pass_changed." + Name,
          Value(Delta("opt.pass." + Name + ".changed") / PerCompile));
  }
  L.set("opt.fixpoint_rounds", Value(Delta("opt.fixpoint.rounds") / PerCompile));
  double AHits = 0, AMisses = 0;
  for (const auto &[K, V] : B) {
    if (K.rfind("opt.analysis.", 0) != 0)
      continue;
    if (K.size() > 5 && K.compare(K.size() - 5, 5, ".hits") == 0)
      AHits += Delta(K);
    else if (K.size() > 7 && K.compare(K.size() - 7, 7, ".misses") == 0)
      AMisses += Delta(K);
  }
  L.set("opt.analysis_hit_ratio",
        Value(AHits + AMisses > 0 ? AHits / (AHits + AMisses) : 0.0));
}

void merge(Value &Into, const Value &From) {
  for (const auto &[K, V] : From.members())
    Into.set(K, V);
}

int usage(const char *Msg) {
  std::fprintf(stderr, "perfbench: %s\n", Msg);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  std::string OutPath;
  for (int I = 1; I < Argc; ++I) {
    const std::string A = Argv[I];
    auto Next = [&]() -> std::string {
      return I + 1 < Argc ? Argv[++I] : std::string();
    };
    if (A == "--workload")
      O.Workload = Next();
    else if (A == "--seed")
      O.Seed = std::strtoull(Next().c_str(), nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::strtod(Next().c_str(), nullptr);
    else if (A == "--trace")
      O.Trace = Next() == "1";
    else if (A == "--out")
      OutPath = Next();
    else if (A == "--native-cache")
      O.NativeCache = Next();
    else if (A == "--apps-cache")
      O.AppsCache = Next();
    else if (A == "--scratch")
      O.Scratch = Next();
    else if (A == "--corrupt-expected-hash")
      O.CorruptExpectedHash = true;
    else
      return usage(("unknown argument " + A).c_str());
  }
  if (OutPath.empty() || O.NativeCache.empty() || O.AppsCache.empty() ||
      O.Scratch.empty() || !(O.Seconds > 0))
    return usage("--out, --native-cache, --apps-cache, --scratch and "
                 "--seconds are required");
  WorkloadResult (*Fn)(const Options &, Outcome &, bool) = nullptr;
  if (O.Workload == "apps_warm")
    Fn = runAppsWarm;
  else if (O.Workload == "cold_kernels")
    Fn = runColdKernels;
  else
    return usage("unknown workload");
  setEnv("CODESIGN_NATIVE_CACHE_DIR", O.NativeCache);

  Value Raw = Value::object();
  Value Env = Value::object();
  Env.set("nproc", Value(std::thread::hardware_concurrency()));
  Env.set("build_type", Value(PERFBENCH_BUILD_TYPE));
#ifdef NDEBUG
  Env.set("ndebug", Value(true));
#else
  Env.set("ndebug", Value(false));
#endif
  Env.set("sanitizer", Value(sanitizer()));
  Raw.set("env", Env);

  Outcome Out;
  installTracingBackends();
  if (!O.Trace) {
    Raw.set("e2e", Fn(O, Out, false).E2E);
  } else {
    Options Half = O;
    Half.Seconds = O.Seconds / 2;
    Raw.set("e2e_untraced", Fn(Half, Out, false).E2E);
    installTracingBackends();
    SpanLog::global().setEnabled(true);
    trace::Tracer::global().setEnabled(true);
    const auto C0 = counters();
    WorkloadResult T = Fn(Half, Out, true);
    const auto C1 = counters();
    const BackendProbeStats BS = tracingBackendStats();
    Value L = T.Layers;
    counterLayers(L, C0, C1);
    L.set("exec.native_prepare_ms_p50",
          Value(median(BS.NativeFirstPrepareUs) / 1000.0));
    L.set("exec.native_compile_attempts",
          Value(static_cast<double>(BS.NativeFirstPrepares)));
    L.set("exec.native_compile_ok_ratio",
          Value(BS.NativeFirstPrepares
                    ? static_cast<double>(BS.NativeFirstPreparesOk) /
                          static_cast<double>(BS.NativeFirstPrepares)
                    : 0.0));
    merge(L, runLayerProbes(O, Out, O.Workload != "apps_warm"));
    appTeamTimes(L);
    Raw.set("e2e", T.E2E);
    Raw.set("layers", L);
    Raw.set("trees", buildRequestTrees(300));
  }
  Raw.set("attempted", Value(Out.Attempted));
  Raw.set("failed", Value(Out.Failed));
  Raw.set("mismatches", Value(Out.Mismatches));
  Value Errors = Value::array();
  for (const std::string &E : Out.Errors)
    Errors.push(Value(E));
  Raw.set("errors", Errors);
  Raw.set("peak_rss_mib", Value(peakRssMiB()));

  std::ofstream F(OutPath, std::ios::trunc);
  F << Raw.dump() << "\n";
  if (!F) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", OutPath.c_str());
    return 1;
  }
  return 0;
}

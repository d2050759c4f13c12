//===- perfbench/src/Workloads.cpp - apps_warm, small_launches, cold_kernels -===//
//
// Each workload: a set-up repeated SetupReps times (only the last one's
// state is kept), then a timed part of Options::Seconds. The "e2e" object
// holds the same ingredients for every workload so run.py reduces them with
// one set of rules; README.md says what each means per workload.
//
//===----------------------------------------------------------------------===//
#include "Bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <thread>

#include "apps/GridMini.hpp"
#include "apps/MiniFMM.hpp"
#include "apps/RSBench.hpp"
#include "apps/TestSNAP.hpp"
#include "apps/XSBench.hpp"
#include "frontend/KernelCache.hpp"
#include "support/Rng.hpp"
#include "support/Trace.hpp"

namespace pb {

using namespace cs;

namespace {

constexpr int SetupReps = 7;
/// cold_kernels: size of the shape table; the static stats and modeled
/// cycles are summed over the first pass (every run reaches it).
constexpr std::size_t ColdShapes = 8;
constexpr std::size_t ColdStatic = ColdShapes;

double secondsSince(double T0) { return (nowUs() - T0) / 1e6; }

/// Turn the tracer on for a compile whose phase timing we want, restoring
/// the previous state (the untraced run keeps no events).
struct CompileTiming {
  bool WasOn = trace::Tracer::global().enabled();
  CompileTiming() { trace::Tracer::global().setEnabled(true); }
  ~CompileTiming() {
    if (!WasOn) {
      trace::Tracer::global().setEnabled(false);
      trace::Tracer::global().clear();
    }
  }
};

/// Split a latency list into finite samples and a failure count.
void putLatencies(Value &E, const std::string &Key,
                  const std::vector<double> &Lat) {
  std::vector<double> Finite;
  std::uint64_t Failed = 0;
  for (double X : Lat) {
    if (std::isfinite(X))
      Finite.push_back(X);
    else
      ++Failed;
  }
  E.set(Key, toJson(Finite));
  E.set(Key + "_failed", Value(Failed));
}

/// Samples grouped by kernel (or app/build pair). A group's median is its
/// typical cost; the list of group medians gives every group the same
/// weight, however many samples it has, so its median does not jump between
/// kernels of different cost when a run ends partway through the set.
struct Groups {
  std::map<std::string, std::vector<double>> Samples;
  void add(const std::string &Key, double V) { Samples[Key].push_back(V); }
  [[nodiscard]] Value medians() const {
    std::vector<double> M;
    for (const auto &[K, V] : Samples)
      M.push_back(median(V));
    return toJson(M);
  }
};

double mean(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return V.empty() ? 0 : S / static_cast<double>(V.size());
}

/// Service-layer numbers of one Service over a set of ticket latencies.
void serviceLayers(Value &L, service::Service &Svc,
                   const std::vector<double> &TicketUs) {
  double WallSum = 0, WallCount = 0;
  for (const std::string &T : Svc.tenants()) {
    const service::TenantStats S = Svc.tenantStats(T);
    WallSum += S.LaunchWallMicros.sum();
    WallCount += static_cast<double>(S.LaunchWallMicros.count());
  }
  const double WallMean = WallCount > 0 ? WallSum / WallCount : 0;
  L.set("service.wait_us_mean", Value(mean(TicketUs) - WallMean));
  const service::QueueStats Q = Svc.queueStats();
  L.set("service.queue_depth_mean", Value(Q.MeanDepth));
  L.set("service.queue_depth_peak", Value(static_cast<double>(Q.Peak)));
}

/// Static stats and bytecode profile of the workload's fixed kernel set.
struct StaticSet {
  std::vector<double> Regs, Smem, CodeSize;
  Value KCycles = Value::object();
  double BarrierWait = 0, GlobalBytes = 0, SharedBytes = 0;
  std::vector<double> Imbalance;

  void add(const std::string &Row, const vgpu::KernelStaticStats &S,
           const vgpu::LaunchMetrics &M, const vgpu::LaunchProfile &P) {
    Regs.push_back(S.Registers);
    Smem.push_back(static_cast<double>(S.SharedMemBytes));
    CodeSize.push_back(static_cast<double>(S.CodeSize));
    KCycles.set(Row, Value(static_cast<double>(M.KernelCycles) / 1000.0));
    BarrierWait += static_cast<double>(P.BarrierWaitCycles);
    GlobalBytes +=
        static_cast<double>(P.GlobalBytesRead + P.GlobalBytesWritten);
    SharedBytes +=
        static_cast<double>(P.SharedBytesRead + P.SharedBytesWritten);
    if (P.Collected)
      Imbalance.push_back(P.teamImbalance());
  }
  void put(Value &E, Value &L) const {
    E.set("regs", toJson(Regs));
    E.set("smem", toJson(Smem));
    E.set("kcycles_rows", KCycles);
    double Insts = 0;
    for (double C : CodeSize)
      Insts += C;
    L.set("opt.ir_insts_after", Value(Insts));
    L.set("vgpu.barrier_wait_cycles", Value(BarrierWait));
    L.set("vgpu.global_bytes", Value(GlobalBytes));
    L.set("vgpu.shared_bytes", Value(SharedBytes));
    L.set("vgpu.team_imbalance", Value(mean(Imbalance)));
  }
};

/// Frontend numbers over the compile misses a workload made.
struct CompileSet {
  std::vector<double> TotalUs, Codegen, Link, Opt, Verify, Stats;
  void add(const frontend::CompilePhaseTiming &T) {
    if (T.CacheHit || T.totalMicros() == 0)
      return;
    TotalUs.push_back(static_cast<double>(T.totalMicros()));
    Codegen.push_back(static_cast<double>(T.CodegenMicros));
    Link.push_back(static_cast<double>(T.LinkMicros));
    Opt.push_back(static_cast<double>(T.OptMicros));
    Verify.push_back(static_cast<double>(T.VerifyMicros));
    Stats.push_back(static_cast<double>(T.StatsMicros));
  }
  void put(Value &L) const {
    L.set("frontend.compile_us_p50", Value(median(TotalUs)));
    L.set("frontend.codegen_us", Value(mean(Codegen)));
    L.set("frontend.link_us", Value(mean(Link)));
    L.set("frontend.opt_us", Value(mean(Opt)));
    L.set("frontend.verify_us", Value(mean(Verify)));
    L.set("frontend.stats_us", Value(mean(Stats)));
  }
};

void putTransfers(Value &L, const std::vector<double> &Bytes,
                  const std::vector<double> &Count,
                  const std::vector<double> &Cycles) {
  L.set("host.transfer_bytes_per_launch", Value(mean(Bytes)));
  L.set("host.transfers_per_launch", Value(mean(Count)));
  L.set("host.transfer_modeled_cycles", Value(mean(Cycles)));
}

StreamSpec bystanderSpec(const std::vector<StreamKernel> &K,
                         const Options &O, bool Traced) {
  StreamSpec S;
  S.Name = "bystander";
  S.Kernels = K;
  S.Rate = BystanderRate;
  S.Seconds = O.Seconds;
  S.Seed = O.Seed ^ 0xB75ULL;
  S.UniqueTags = Traced;
  return S;
}

const std::vector<std::string> BystanderRows = {"bystander0.native",
                                                "bystander1.native"};

void putBystanders(Value &E, const StreamResult &By) {
  Value S = Value::object();
  S.set("bystander", streamJson(By, BystanderRows));
  E.set("streams", S);
}

/// Launch K once on Backend through Svc. The value says whether its output
/// hashed to Expected; launch failures are errors.
Expected<bool> launchMatches(service::Service &Svc, const GenKernel &K,
                             const std::vector<double> &In,
                             std::uint64_t Expected, const std::string &Backend,
                             const std::string &Tenant) {
  KernelBuffers B;
  B.reset(K, In);
  auto T = Svc.submitLaunch(B.request(K, Backend, Tenant));
  if (!T)
    return T.error();
  auto LR = T->get();
  if (!LR)
    return LR.error();
  if (!LR->Ok)
    return cs::makeError(LR->Error);
  std::vector<double> Got = B.Out;
  Got.insert(Got.end(), B.Acc.begin(), B.Acc.end());
  return hashDoubles(Got) == Expected;
}

/// The bystander probe of apps_warm, which runs no competing stream: each
/// bystander kernel once, warm, on native, one at a time through the
/// workload's Service. R gets the wall-clock latencies from submit (a failed
/// or mismatched launch has done = -1); CpuUs, per kernel, the team CPU
/// time of each launch, as for the app launches (infinite when it failed).
void bystanderRound(service::Service &Svc, const std::vector<StreamKernel> &K,
                    StreamResult &R, std::vector<std::vector<double>> &CpuUs,
                    Outcome &Out) {
  CpuUs.resize(K.size());
  for (std::size_t I = 0; I < K.size(); ++I) {
    takeTeamCpuUs();
    const double T0 = nowUs();
    auto M = launchMatches(Svc, *K[I].K, K[I].Input, K[I].ExpectedHash,
                           "native", "bystander");
    const double T1 = nowUs();
    const double TeamCpu = takeTeamCpuUs();
    if (!M)
      Out.fail("bystander: " + M.error().message());
    else if (!*M)
      Out.fail("bystander: output differs from the host reference", true);
    else
      Out.ok();
    const bool Ok = M && *M;
    R.Due.push_back(T0);
    R.Submit.push_back(T0);
    R.Done.push_back(Ok ? T1 : -1);
    R.Row.push_back(static_cast<int>(I));
    CpuUs[I].push_back(Ok ? TeamCpu : std::numeric_limits<double>::infinity());
    if (Ok)
      R.TicketUs.push_back(T1 - T0);
  }
}

/// A workload's service on its own device, default configuration.
struct ServiceStack {
  std::unique_ptr<vgpu::VirtualGPU> GPU;
  std::unique_ptr<service::Service> Svc;
  OpIds Ops;
  void reset(bool Profile) {
    Svc.reset();
    GPU = std::make_unique<vgpu::VirtualGPU>();
    GPU->setProfiling(Profile);
    Ops = registerOps(GPU->registry());
    Svc = std::make_unique<service::Service>(*GPU);
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// apps_warm
//===----------------------------------------------------------------------===//

std::string buildSlug(const std::string &Name) {
  if (Name == "Old RT (Nightly)")
    return "oldrt";
  if (Name == "New RT (Nightly)")
    return "newrt_nightly";
  if (Name == "New RT - w/o Assumptions")
    return "newrt_noassume";
  if (Name == "New RT")
    return "newrt";
  if (Name == "CUDA")
    return "cuda";
  std::string S;
  for (char C : Name)
    if (std::isalnum(static_cast<unsigned char>(C)))
      S += static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
  return S;
}

namespace {

template <typename AppT, typename CfgT>
AppEntry makeApp(std::string Slug, CfgT Cfg, bool IncludeAssumed,
                 bool Profile) {
  AppEntry E;
  E.Slug = std::move(Slug);
  E.GPU = std::make_unique<vgpu::VirtualGPU>();
  E.GPU->setProfiling(Profile);
  auto A = std::make_shared<AppT>(*E.GPU, Cfg);
  E.Run = [A](const apps::BuildConfig &B) { return A->run(B); };
  E.App = A;
  E.Builds = apps::paperBuildConfigs(IncludeAssumed);
  return E;
}

} // namespace

/// The RSBench row set omits the oversubscription-assuming build, as in the
/// paper's Figure 11, so the default build has 19 app/build pairs.
std::vector<AppEntry> makeApps(std::uint64_t Seed, bool Profile) {
  std::vector<AppEntry> Apps;
  apps::XSBenchConfig X;
  X.Seed = Seed * 5 + 1;
  Apps.push_back(makeApp<apps::XSBench>("xsbench", X, true, Profile));
  apps::RSBenchConfig R;
  R.Seed = Seed * 5 + 2;
  Apps.push_back(makeApp<apps::RSBench>("rsbench", R, false, Profile));
  apps::GridMiniConfig G;
  G.Seed = Seed * 5 + 3;
  Apps.push_back(makeApp<apps::GridMini>("gridmini", G, true, Profile));
  apps::TestSNAPConfig T;
  T.Seed = Seed * 5 + 4;
  Apps.push_back(makeApp<apps::TestSNAP>("testsnap", T, true, Profile));
  apps::MiniFMMConfig F;
  F.Seed = Seed * 5 + 5;
  Apps.push_back(makeApp<apps::MiniFMM>("minifmm", F, true, Profile));
  return Apps;
}

namespace {

struct AppRow {
  AppEntry *App = nullptr;
  const apps::BuildConfig *Build = nullptr;
  std::string Backend;
  std::string Name; ///< app.build.backend
  std::uint64_t ExpectedHash = 0;
};

bool checkAppResult(const apps::AppRunResult &R, const std::string &Row,
                    std::uint64_t Expected, Outcome &Out) {
  if (!R.Ok) {
    Out.fail(Row + ": " + R.Error);
    return false;
  }
  if (!R.Verified) {
    Out.fail(Row + ": result differs from the host reference", true);
    return false;
  }
  if (Expected != 0 && R.OutputHash != Expected) {
    Out.fail(Row + ": output hash differs from the bytecode run", true);
    return false;
  }
  Out.ok();
  return true;
}

} // namespace

WorkloadResult runAppsWarm(const Options &O, Outcome &Out, bool Traced) {
  WorkloadResult W;
  Value &E = W.E2E;
  Value &L = W.Layers;
  std::vector<double> SetupS;
  Groups CompileUs, FirstUs;
  std::vector<AppEntry> Apps;
  std::vector<AppRow> Rows;
  ServiceStack By;
  std::vector<GenKernel> ByKernels;
  std::vector<StreamKernel> ByStream;
  StaticSet Static;
  CompileSet Compiles;

  for (int Rep = 0; Rep < SetupReps; ++Rep) {
    const double T0 = nowUs();
    Rows.clear();
    Apps.clear();
    By.Svc.reset();
    frontend::KernelCache::global().clear();
    Apps = makeApps(O.Seed, Traced);
    By.reset(false);
    auto BS = setupBystanders(ByKernels, By.Ops, *By.Svc, Out);
    if (!BS) {
      Out.fail("bystander set-up: " + BS.error().message());
      return W;
    }
    ByStream = BS.takeValue();
    const bool Last = Rep == SetupReps - 1;
    if (Last)
      Static = StaticSet();
    for (AppEntry &A : Apps) {
      for (const apps::BuildConfig &B : A.Builds) {
        const std::string Base = A.Slug + "." + buildSlug(B.Name);
        // Compile -> first verified native result, in CPU time (with the
        // host compiler's, where a module is not in the disk cache yet).
        A.GPU->setExecBackend("native");
        apps::AppRunResult Nat;
        const double F0 = processCpuUs();
        {
          CompileTiming Timing;
          Nat = A.Run(B);
        }
        FirstUs.add(Base, processCpuUs() - F0);
        CompileUs.add(Base, static_cast<double>(Nat.Compile.totalMicros()));
        if (Last)
          Compiles.add(Nat.Compile);
        A.GPU->setExecBackend("bytecode");
        apps::AppRunResult Bc = A.Run(B);
        checkAppResult(Bc, Base + ".bytecode", 0, Out);
        checkAppResult(Nat, Base + ".native", Bc.OutputHash, Out);
        if (!Last)
          continue;
        Static.add(Base, Bc.Stats, Bc.Metrics, Bc.Profile);
        for (const char *Backend : {"bytecode", "native"})
          Rows.push_back({&A, &B, Backend, Base + "." + Backend,
                          Bc.OutputHash});
      }
    }
    SetupS.push_back(secondsSince(T0));
  }
  if (O.CorruptExpectedHash && !Rows.empty())
    Rows[0].ExpectedHash ^= 1;

  // Timed part: one client sweeps every row, then probes the bystanders.
  // A launch's cost is the thread CPU time of its teams (see README.md,
  // "Noise"); WallMicros is kept for the per-layer wall-clock geomean.
  StreamResult ByRes;
  std::vector<std::vector<double>> ByCpuUs;
  std::vector<std::vector<double>> RowCpu(Rows.size()), RowWall(Rows.size());
  std::vector<double> VerifyUs, GapUs, TBytes, TCount, TCycles;
  const double Start = nowUs();
  double LastDone = Start;
  std::uint64_t Seq = 0;
  do {
    for (std::size_t I = 0; I < Rows.size(); ++I) {
      AppRow &R = Rows[I];
      R.App->GPU->setExecBackend(R.Backend);
      const std::string Tag = "app." + R.Name + "#" + std::to_string(Seq++);
      trace::TenantScope Scope(Traced ? Tag : std::string());
      takeTeamCpuUs();
      const double T0 = nowUs();
      apps::AppRunResult Res = R.App->Run(*R.Build);
      const double T1 = nowUs();
      const double TeamCpu = takeTeamCpuUs();
      GapUs.push_back(T0 - LastDone);
      LastDone = T1;
      if (!checkAppResult(Res, R.Name, R.ExpectedHash, Out))
        continue;
      const auto Wall = static_cast<double>(Res.WallMicros);
      RowCpu[I].push_back(TeamCpu);
      RowWall[I].push_back(Wall);
      VerifyUs.push_back(T1 - T0 - Wall);
      TBytes.push_back(static_cast<double>(Res.Profile.BytesToDevice +
                                           Res.Profile.BytesFromDevice));
      TCount.push_back(static_cast<double>(Res.Profile.TransfersToDevice +
                                           Res.Profile.TransfersFromDevice));
      TCycles.push_back(static_cast<double>(Res.Profile.TransferCycles));
      RequestRecord Rec;
      Rec.Tag = Tag;
      Rec.Kind = "apps";
      Rec.Due = T0;
      Rec.Done = T1;
      Rec.LaunchWallUs = Wall;
      RequestLog::global().add(std::move(Rec));
    }
    bystanderRound(*By.Svc, ByStream, ByRes, ByCpuUs, Out);
  } while (secondsSince(Start) < O.Seconds);

  E.set("setup_s", toJson(SetupS));
  Value WarmRows = Value::object();
  std::vector<double> WallMedianMs;
  for (std::size_t I = 0; I < Rows.size(); ++I) {
    WarmRows.set(Rows[I].Name, toJson(RowCpu[I]));
    if (!RowWall[I].empty())
      WallMedianMs.push_back(median(RowWall[I]) / 1000.0);
  }
  E.set("warm_rows", WarmRows);
  Value ByRows = Value::object();
  for (std::size_t I = 0; I < ByCpuUs.size(); ++I)
    putLatencies(ByRows, "bystander" + std::to_string(I), ByCpuUs[I]);
  E.set("bystander_cpu_rows", ByRows);
  E.set("compile_us", CompileUs.medians());
  E.set("first_result_us", FirstUs.medians());
  Static.put(E, L);
  putBystanders(E, ByRes);

  E.set("client_gap_us", toJson(GapUs));
  serviceLayers(L, *By.Svc, ByRes.TicketUs);
  putTransfers(L, TBytes, TCount, TCycles);
  Compiles.put(L);
  L.set("apps.verify_us", Value(median(VerifyUs)));
  L.set("apps.warm_wall_ms_geomean", Value(geomean(WallMedianMs)));
  for (const auto &[Row, V] : Static.KCycles.members())
    L.set("vgpu.kernel_cycles." + Row, Value(V.asDouble() * 1000.0));
  return W;
}

//===----------------------------------------------------------------------===//
// Small kernels
//===----------------------------------------------------------------------===//

/// The eight small kernels of the host-layer probe: SPMD and generic
/// worksharing loops, the latter also behind a serial prologue; 256-1024
/// elements, 1-4 teams of 32 or 64 threads.
/// Their geometry comes from a fixed generator, so every seed launches the
/// same shapes; the seed draws names, salts, inputs and the request stream.
std::vector<GenKernel> smallKernels(const OpIds &Ops, std::uint64_t Seed) {
  Rng R(0x5EA11ULL);
  Rng S(Seed * 0x51ULL + 7);
  const int Shapes[] = {0, 1, 3};
  std::vector<GenKernel> K;
  for (int I = 0; I < 8; ++I) {
    const auto Teams = static_cast<std::uint32_t>(1 + R.below(4));
    const auto Threads = static_cast<std::uint32_t>(32 + 32 * R.below(2));
    const auto Elements = static_cast<std::int64_t>(256 + R.below(769));
    const std::uint64_t Scratch = std::uint64_t{64} << R.below(4);
    const auto Salt = static_cast<std::int64_t>(S.below(1u << 20));
    // Generic regions run the whole loop in every team: split the elements.
    const int Shape = Shapes[I % 3];
    const std::int64_t N = Shape == 0 ? Elements : Elements / Teams;
    K.push_back(makeKernel(Ops,
                           "pb_small_" + std::to_string(Seed) + "_" +
                               std::to_string(I),
                           Shape, Teams, Threads, N, Salt,
                           /*NumThreadsClause=*/0, Scratch));
  }
  return K;
}

//===----------------------------------------------------------------------===//
// cold_kernels
//===----------------------------------------------------------------------===//

namespace {

/// The K-th never-seen kernel of a seed. Kernels walk a table of ColdShapes
/// shapes (every region shape twice, with trip count, geometry, num_threads
/// clause and scratch size drawn once from a fixed generator); the seed
/// orders each pass over the table and draws every kernel's salt and input.
/// Every ColdShapes consecutive kernels thus cover the same shapes on every
/// seed, which keeps the modeled and static sums seed-independent.
/// The shape-table entry of the K-th kernel of a seed.
std::size_t coldEntry(std::uint64_t Seed, std::uint64_t K) {
  std::vector<std::size_t> Order(ColdShapes);
  for (std::size_t I = 0; I < ColdShapes; ++I)
    Order[I] = I;
  Rng P(Seed * 0xC01DULL + K / ColdShapes);
  for (std::size_t I = ColdShapes - 1; I > 0; --I)
    std::swap(Order[I], Order[P.below(I + 1)]);
  return Order[K % ColdShapes];
}

GenKernel coldKernel(const OpIds &Ops, std::uint64_t Seed,
                     const std::string &Phase, std::uint64_t K) {
  const std::size_t Entry = coldEntry(Seed, K);
  Rng T(0xC01D5EEDULL + Entry);
  const int Shape = static_cast<int>(Entry % 4);
  const auto Teams = static_cast<std::uint32_t>(1 + T.below(4));
  const auto Threads = static_cast<std::uint32_t>(32 + 32 * T.below(2));
  const auto N = static_cast<std::int64_t>(64 + T.below(449));
  const std::int32_t Clause = static_cast<std::int32_t>(T.below(3)) * 16;
  const std::uint64_t Scratch = std::uint64_t{64} << T.below(4);
  Rng S(Seed * 0x9E37ULL + K);
  const auto Salt = static_cast<std::int64_t>(S.below(1u << 20));
  return makeKernel(Ops,
                    "pb_cold_" + std::to_string(Seed) + "_" + Phase + "_" +
                        std::to_string(K),
                    Shape, Teams, Threads, N, Salt, Clause,
                    Shape == 0 ? 0 : Scratch);
}

} // namespace

WorkloadResult runColdKernels(const Options &O, Outcome &Out, bool Traced) {
  WorkloadResult W;
  Value &E = W.E2E;
  Value &L = W.Layers;
  std::vector<double> SetupS;
  ServiceStack St;
  std::vector<GenKernel> ByKernels;
  std::vector<StreamKernel> ByStream;
  for (int Rep = 0; Rep < SetupReps; ++Rep) {
    const double T0 = nowUs();
    frontend::KernelCache::global().clear();
    St.reset(Traced);
    auto BS = setupBystanders(ByKernels, St.Ops, *St.Svc, Out);
    if (!BS) {
      Out.fail("bystander set-up: " + BS.error().message());
      return W;
    }
    ByStream = BS.takeValue();
    SetupS.push_back(secondsSince(T0));
  }

  StreamResult ByRes;
  std::thread ByThread([&] {
    ByRes = runStream(*St.Svc, bystanderSpec(ByStream, O, Traced), Out);
  });
  std::vector<double> GapUs;
  Groups CompileUs, FirstUs;
  StaticSet Static;
  CompileSet Compiles;
  const std::string Phase = Traced ? "t" : "u";
  const double Start = nowUs();
  double LastDone = Start;
  for (std::uint64_t K = 0;
       secondsSince(Start) < O.Seconds || K < ColdStatic; ++K) {
    const GenKernel Kern = coldKernel(St.Ops, O.Seed, Phase, K);
    const std::string Tag = "cold#" + Phase + std::to_string(K);
    const std::vector<double> In = kernelInput(Kern);
    RequestRecord Rec;
    Rec.Tag = Tag;
    Rec.Kind = "cold";
    // Start each request once the bystanders that queued behind the last
    // native compile have drained, so compile_ms measures the compile and
    // not that backlog (which bystander_launch_us already shows).
    while (St.Svc->queueStats().Depth > 0)
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    const double T0 = nowUs();
    GapUs.push_back(T0 - LastDone);
    Rec.Due = T0;
    auto CT = St.Svc->submitCompile(Tag + "/c", Kern.Spec, kernelOptions());
    auto CK = CT ? CT->get() : Expected<frontend::CompiledKernel>(CT.error());
    const double TC = nowUs();
    if (!CK) {
      Out.fail(Kern.Spec.Name + ": compile failed: " + CK.error().message());
      continue;
    }
    Rec.Parts.push_back({"ticket.compile", Tag + "/c", T0, TC});
    const std::string Entry = std::to_string(coldEntry(O.Seed, K));
    CompileUs.add(Entry, TC - T0);
    Compiles.add(CK->Timing);
    // Native first: the clock of the first result stops when its result is
    // ready; the bytecode reference it is checked against runs after.
    KernelBuffers Ref, Nat;
    Ref.reset(Kern, In);
    Nat.reset(Kern, In);
    auto NT = St.Svc->submitLaunch(Nat.request(Kern, "native", Tag + "/n"));
    auto NR = NT ? NT->get() : Expected<vgpu::LaunchResult>(NT.error());
    const double TN = nowUs();
    auto BT = St.Svc->submitLaunch(Ref.request(Kern, "bytecode", Tag + "/b"));
    auto BR = BT ? BT->get() : Expected<vgpu::LaunchResult>(BT.error());
    const double TB = nowUs();
    LastDone = TB;
    if (!BR || !BR->Ok || !NR || !NR->Ok) {
      Out.fail(Kern.Spec.Name + ": launch failed: " +
               (!NR ? NR.error().message()
                : !NR->Ok ? NR->Error
                : !BR ? BR.error().message()
                          : BR->Error));
      continue;
    }
    std::vector<double> A = Ref.Out, B = Nat.Out;
    A.insert(A.end(), Ref.Acc.begin(), Ref.Acc.end());
    B.insert(B.end(), Nat.Acc.begin(), Nat.Acc.end());
    std::uint64_t Expect = hashDoubles(A);
    if (O.CorruptExpectedHash && K == 0)
      Expect ^= 1;
    const bool Same = hashDoubles(B) == Expect &&
                      std::memcmp(A.data(), B.data(), A.size() * 8) == 0;
    if (!Same) {
      Out.fail(Kern.Spec.Name + ": native output differs from bytecode", true);
      continue;
    }
    Out.ok();
    FirstUs.add(Entry, TN - T0);
    if (K < ColdStatic)
      Static.add("cold" + std::to_string(K), CK->Stats, BR->Metrics,
                 BR->Profile);
    Rec.Parts.push_back({"ticket.native", Tag + "/n", TC, TN});
    Rec.Parts.push_back({"ticket.bytecode", Tag + "/b", TN, TB});
    Rec.Done = TB;
    RequestLog::global().add(std::move(Rec));
  }
  ByThread.join();

  E.set("setup_s", toJson(SetupS));
  // The workload's only warm launches are the bystanders.
  E.set("warm_stream", Value("bystander"));
  E.set("compile_us", CompileUs.medians());
  E.set("first_result_us", FirstUs.medians());
  Static.put(E, L);
  putBystanders(E, ByRes);

  E.set("client_gap_us", toJson(GapUs));
  serviceLayers(L, *St.Svc, ByRes.TicketUs);
  putTransfers(L, ByRes.TransferBytes, ByRes.Transfers, ByRes.TransferCycles);
  Compiles.put(L);
  return W;
}

} // namespace pb

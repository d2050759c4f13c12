//===- perfbench/src/Probes.cpp - Layer probes and request span trees ------===//
//
// Every traced run calls each layer directly once more, so every per-layer
// metric is measured in every traced run: the launch engine and backends
// (exec), the host runtime (host), the frontend's cache-hit path, and the
// proxy apps' team times (vgpu). It then assembles one span tree per traced
// request from the benchmark's own spans, the tracing wrappers' spans and
// the spans the library emits, for run.py to derive layer self times.
//
//===----------------------------------------------------------------------===//
#include "Bench.hpp"

#include <algorithm>
#include <map>

#include "support/Trace.hpp"

namespace pb {

using namespace cs;

namespace {

template <typename Fn> double timeUs(Fn &&F) {
  const double T0 = nowUs();
  F();
  return nowUs() - T0;
}

vgpu::DeviceAddr gmAlloc(vgpu::GlobalMemory &GM, std::uint64_t Bytes) {
  auto Off = GM.allocate(Bytes, 16);
  CODESIGN_ASSERT(Off.hasValue(), "probe: device memory exhausted");
  return vgpu::DeviceAddr::make(vgpu::MemSpace::Global, *Off);
}

/// exec-layer probes on a trivial kernel (one element per thread).
void probeExec(Value &L, Outcome &Out) {
  vgpu::VirtualGPU GPU;
  const OpIds Ops = registerOps(GPU.registry());
  const GenKernel T = makeKernel(Ops, "pb_probe_trivial", 0, 4, 32, 128, 5);
  auto CK = frontend::compileKernel(T.Spec, kernelOptions(), GPU.registry());
  if (!CK) {
    Out.fail("probe compile: " + CK.error().message());
    return;
  }
  const ir::Function *K = CK->Kernel;
  trace::TenantScope Scope("probe.exec");

  // VirtualGPU::launch, 1 and 4 teams.
  {
    auto Image = GPU.loadImage(*CK->M, CK->Bytecode);
    const vgpu::DeviceAddr OutA = GPU.allocate(128 * 8), InA = GPU.allocate(128 * 8),
                           AccA = GPU.allocate(4 * 8);
    const std::vector<std::uint64_t> Args = {OutA.Bits, InA.Bits, AccA.Bits,
                                             128, 5};
    for (const char *B : {"bytecode", "native"})
      for (std::uint32_t Teams : {1u, 4u}) {
        std::vector<double> Us;
        for (int I = 0; I < 220; ++I) {
          vgpu::LaunchResult R;
          const double D =
              timeUs([&] { R = GPU.launch(*Image, K, Args, Teams, 32, B); });
          if (!R.Ok) {
            Out.fail(std::string("probe launch: ") + R.Error);
            return;
          }
          if (I >= 20)
            Us.push_back(D);
        }
        L.set("exec.launch_us_p50.teams" + std::to_string(Teams) + "." + B,
              Value(median(Us)));
      }
  }

  // The launch engine against the same teams run serially through
  // Backend::runTeam, on a device environment the probe owns.
  vgpu::GlobalMemory GM(16u << 20);
  vgpu::NativeRegistry Reg;
  registerOps(Reg);
  vgpu::DeviceConfig Cfg;
  const exec::LaunchEnv Env{Cfg, GM, Reg};
  vgpu::ModuleImage Image(*CK->M, GM);
  Image.setBytecode(CK->Bytecode);
  const std::vector<std::uint64_t> Args = {gmAlloc(GM, 128 * 8).Bits,
                                           gmAlloc(GM, 128 * 8).Bits,
                                           gmAlloc(GM, 4 * 8).Bits, 128, 5};
  for (const char *Name : {"bytecode", "native"}) {
    auto BE = exec::BackendRegistry::global().lookup(Name);
    if (!BE) {
      Out.fail("probe: " + BE.error().message());
      return;
    }
    exec::Backend &B = **BE;
    std::vector<double> Wall, Serial, Bind, Prep;
    for (int I = 0; I < 120; ++I) {
      vgpu::LaunchResult R;
      const double W =
          timeUs([&] { R = exec::launch(B, Env, Image, K, Args, 4, 32); });
      double Sum = 0;
      std::unique_ptr<exec::BoundKernel> Bound;
      Prep.push_back(timeUs([&] { (void)B.prepareModule(Image, Env); }));
      Bind.push_back(timeUs([&] {
        auto BK = B.bindKernel(Image, K, Env);
        if (BK)
          Bound = BK.takeValue();
      }));
      if (!R.Ok || !Bound) {
        Out.fail(std::string("probe exec launch: ") + R.Error);
        return;
      }
      for (std::uint32_t Team = 0; Team < 4; ++Team) {
        vgpu::LaunchMetrics M;
        exec::TeamOutcome TO;
        Sum += timeUs([&] {
          B.runTeam(*Bound, Env, Image, K, Args, Team, 4, 32, M, nullptr, TO);
        });
      }
      if (I >= 20) {
        Wall.push_back(W);
        Serial.push_back(Sum);
      }
    }
    L.set(std::string("exec.overhead_us.") + Name,
          Value(median(Wall) - median(Serial)));
    L.set(std::string("exec.bind_us.") + Name, Value(median(Bind)));
    if (std::string(Name) == "native")
      L.set("exec.native_prepare_hit_us", Value(median(Prep)));
  }
  // Bytecode lowering: images without the frontend's pre-lowered module.
  auto BC = exec::BackendRegistry::global().lookup("bytecode");
  std::vector<double> Lower;
  for (int I = 0; I < 20 && BC; ++I) {
    vgpu::ModuleImage Fresh(*CK->M, GM);
    Lower.push_back(timeUs([&] { (void)(*BC)->prepareModule(Fresh, Env); }));
  }
  L.set("exec.bytecode_prepare_us", Value(median(Lower)));
}

/// host-layer probes: HostRuntime::launch called directly on the
/// small_launches kernels, and registerImage.
void probeHost(const Options &O, Value &L, Outcome &Out) {
  vgpu::VirtualGPU GPU;
  const OpIds Ops = registerOps(GPU.registry());
  const std::vector<GenKernel> Kernels = smallKernels(Ops, O.Seed);
  std::vector<frontend::CompiledKernel> Compiled;
  std::vector<double> HitUs;
  for (const GenKernel &K : Kernels) {
    auto CK = frontend::compileKernel(K.Spec, kernelOptions(), GPU.registry());
    if (!CK) {
      Out.fail("probe compile: " + CK.error().message());
      return;
    }
    // The frontend's cache-hit path on the same request.
    for (int I = 0; I < 20; ++I)
      HitUs.push_back(timeUs([&] {
        (void)frontend::compileKernel(K.Spec, kernelOptions(), GPU.registry());
      }));
    Compiled.push_back(CK.takeValue());
  }
  L.set("frontend.cache_hit_us_p50", Value(median(HitUs)));

  std::vector<double> RegUs;
  for (int Round = 0; Round < 3; ++Round) {
    host::HostRuntime Fresh(GPU);
    for (const frontend::CompiledKernel &CK : Compiled)
      RegUs.push_back(timeUs([&] { (void)Fresh.registerImage(*CK.M, CK.Bytecode); }));
  }
  L.set("host.register_us", Value(median(RegUs)));

  host::HostRuntime Host(GPU);
  for (const frontend::CompiledKernel &CK : Compiled)
    (void)Host.registerImage(*CK.M, CK.Bytecode);
  trace::TenantScope Scope("probe.host");
  std::vector<double> LaunchUs;
  for (const GenKernel &K : Kernels) {
    KernelBuffers B;
    const std::vector<double> In = kernelInput(K);
    for (int I = 0; I < 40; ++I) {
      B.reset(K, In);
      Expected<vgpu::LaunchResult> R = vgpu::LaunchResult();
      const double D = timeUs([&] { R = Host.launch(B.request(K, "", "")); });
      if (!R || !R->Ok) {
        Out.fail("probe host launch: " +
                 (R ? R->Error : R.error().message()));
        return;
      }
      if (I >= 5)
        LaunchUs.push_back(D);
    }
  }
  L.set("host.launch_us_p50", Value(median(LaunchUs)));
}

/// Every app row once per backend, for team times and modeled cycles.
void probeApps(const Options &O, Value &L, Outcome &Out) {
  setEnv("CODESIGN_NATIVE_CACHE_DIR", O.AppsCache);
  std::vector<double> VerifyUs, WallMs;
  {
    std::vector<AppEntry> Apps = makeApps(O.Seed, true);
    for (AppEntry &A : Apps)
      for (const apps::BuildConfig &B : A.Builds) {
        const std::string Base = A.Slug + "." + buildSlug(B.Name);
        for (const char *Backend : {"bytecode", "native"}) {
          A.GPU->setExecBackend(Backend);
          trace::TenantScope Scope("app." + Base + "." + Backend + "#probe");
          const double T0 = nowUs();
          apps::AppRunResult R = A.Run(B);
          const double D = nowUs() - T0;
          if (!R.Ok || !R.Verified) {
            Out.fail("probe app " + Base + ": " + R.Error, !R.Verified);
            continue;
          }
          Out.ok();
          VerifyUs.push_back(D - static_cast<double>(R.WallMicros));
          WallMs.push_back(static_cast<double>(R.WallMicros) / 1000.0);
          if (std::string(Backend) == "bytecode")
            L.set("vgpu.kernel_cycles." + Base,
                  Value(static_cast<double>(R.Metrics.KernelCycles)));
        }
      }
  }
  L.set("apps.verify_us", Value(median(VerifyUs)));
  // One launch per row, the compiling one included.
  L.set("apps.warm_wall_ms_geomean", Value(geomean(WallMs)));
  setEnv("CODESIGN_NATIVE_CACHE_DIR", O.NativeCache);
}

} // namespace

Value runLayerProbes(const Options &O, Outcome &Out, bool NeedApps) {
  Value L = Value::object();
  // Probe modules are new to every seed: keep them out of the workload's
  // (possibly persistent) native cache.
  setEnv("CODESIGN_NATIVE_CACHE_DIR", O.Scratch + "/probe-native");
  probeExec(L, Out);
  probeHost(O, L, Out);
  setEnv("CODESIGN_NATIVE_CACHE_DIR", O.NativeCache);
  if (NeedApps)
    probeApps(O, L, Out);
  return L;
}

//===----------------------------------------------------------------------===//
// Request span trees
//===----------------------------------------------------------------------===//

namespace {

/// A tree node: name, layer, and either interval segments or a duration.
Value node(const std::string &Name, const std::string &Layer) {
  Value N = Value::object();
  N.set("n", Value(Name));
  N.set("l", Value(Layer));
  return N;
}
Value seg(double A, double B) {
  Value S = Value::array();
  S.push(Value(A));
  S.push(Value(B));
  return S;
}
Value withSegs(Value N, double A, double B) {
  Value Segs = Value::array();
  Segs.push(seg(A, B));
  N.set("s", std::move(Segs));
  return N;
}
Value withDur(Value N, double D) {
  N.set("d", Value(D));
  return N;
}

/// The exec subtree of one launch tag from the tracing wrappers' spans:
/// [first prepare .. last team] with prepare/bind and the merged team
/// intervals (wall time during which at least one team ran) as children.
bool execNode(const std::vector<const Span *> &Spans, Value &Out) {
  if (Spans.empty())
    return false;
  double Lo = 1e300, Hi = -1e300;
  std::vector<std::pair<double, double>> Teams;
  Value Kids = Value::array();
  for (const Span *S : Spans) {
    Lo = std::min(Lo, S->Start);
    Hi = std::max(Hi, S->End);
    if (S->Name == "vgpu.team")
      Teams.emplace_back(S->Start, S->End);
    else
      Kids.push(withSegs(node(S->Name, "exec"), S->Start, S->End));
  }
  std::sort(Teams.begin(), Teams.end());
  Value TeamSegs = Value::array();
  for (std::size_t I = 0; I < Teams.size();) {
    double A = Teams[I].first, B = Teams[I].second;
    std::size_t J = I + 1;
    for (; J < Teams.size() && Teams[J].first <= B; ++J)
      B = std::max(B, Teams[J].second);
    TeamSegs.push(seg(A, B));
    I = J;
  }
  if (TeamSegs.size()) {
    Value V = node("vgpu.teams", "vgpu");
    V.set("s", std::move(TeamSegs));
    V.set("teams", Value(static_cast<std::uint64_t>(Teams.size())));
    Kids.push(std::move(V));
  }
  Out = withSegs(node("exec.launch", "exec"), Lo, Hi);
  Out.set("c", std::move(Kids));
  return true;
}

} // namespace

Value buildRequestTrees(std::size_t PerKind) {
  const std::vector<Span> Spans = SpanLog::global().take();
  std::map<std::string, std::vector<const Span *>> ByTag;
  for (const Span &S : Spans)
    ByTag[S.Tag].push_back(&S);
  const std::vector<trace::Event> Events = trace::Tracer::global().events();
  std::map<std::string, const trace::Event *> Runs; // tenant -> service span
  std::map<std::string, std::vector<const trace::Event *>> Frontend;
  for (const trace::Event &E : Events) {
    if (E.Kind != trace::EventKind::Span || E.Tenant.empty())
      continue;
    if (E.Category == "service" && E.Name == "request")
      Runs[E.Tenant] = &E;
    else if (E.Category == "frontend" ||
             (E.Category == "opt" && E.Name == "pipeline"))
      Frontend[E.Tenant].push_back(&E);
  }
  auto Exec = [&](const std::string &Tag, Value &Parent) {
    Value X;
    auto It = ByTag.find(Tag);
    if (It != ByTag.end() && execNode(It->second, X))
      Parent.push(std::move(X));
  };
  // The service worker's run of one ticket, with what ran inside it.
  auto ServiceRun = [&](const std::string &Tag, bool Compile) -> Value {
    auto It = Runs.find(Tag);
    if (It == Runs.end())
      return Value();
    Value Run = withDur(node("service.run", Compile ? "frontend" : "host"),
                        static_cast<double>(It->second->DurationMicros));
    Value Kids = Value::array();
    if (Compile) {
      // The pass pipeline runs inside the frontend's "opt" phase.
      double Pipeline = -1;
      for (const trace::Event *E : Frontend[Tag])
        if (E->Category == "opt")
          Pipeline = static_cast<double>(E->DurationMicros);
      for (const trace::Event *E : Frontend[Tag]) {
        if (E->Category != "frontend")
          continue;
        Value Phase = withDur(node("frontend." + E->Name, "frontend"),
                              static_cast<double>(E->DurationMicros));
        if (E->Name == "opt" && Pipeline >= 0) {
          Value Inner = Value::array();
          Inner.push(withDur(node("opt.pipeline", "opt"), Pipeline));
          Phase.set("c", std::move(Inner));
        }
        Kids.push(std::move(Phase));
      }
    } else {
      Exec(Tag, Kids);
    }
    Run.set("c", std::move(Kids));
    return Run;
  };

  std::map<std::string, std::vector<RequestRecord>> ByKind;
  for (RequestRecord &R : RequestLog::global().take())
    ByKind[R.Kind].push_back(std::move(R));
  Value Trees = Value::array();
  for (auto &[Kind, Recs] : ByKind) {
    const std::size_t Step = std::max<std::size_t>(1, Recs.size() / PerKind);
    for (std::size_t I = 0; I < Recs.size(); I += Step) {
      const RequestRecord &R = Recs[I];
      Value Root;
      Value Kids = Value::array();
      if (Kind == "apps") {
        Root = withSegs(node("app.run", "apps"), R.Due, R.Done);
        Value Launch = withDur(node("host.launch", "host"), R.LaunchWallUs);
        Value LK = Value::array();
        Exec(R.Tag, LK);
        Launch.set("c", std::move(LK));
        Kids.push(std::move(Launch));
      } else if (Kind == "cold") {
        Root = withSegs(node("cold.request", "check"), R.Due, R.Done);
        for (const Span &P : R.Parts) {
          Value Ticket = withSegs(node(P.Name, "service"), P.Start, P.End);
          Value TK = Value::array();
          Value Run = ServiceRun(P.Tag, P.Name == "ticket.compile");
          if (Run.isObject())
            TK.push(std::move(Run));
          Ticket.set("c", std::move(TK));
          Kids.push(std::move(Ticket));
        }
      } else {
        // The submit call is left in the root's (service) self time: the
        // worker may start the job before submitLaunch returns, so a
        // separate submit span would overlap the worker's run.
        Root = withSegs(node("request", "service"), R.Due, R.Done);
        Kids.push(withSegs(node("loadgen", "loadgen"), R.Due, R.Submit));
        Value Run = ServiceRun(R.Tag, false);
        if (Run.isObject())
          Kids.push(std::move(Run));
      }
      Root.set("c", std::move(Kids));
      Root.set("kind", Value(Kind));
      Trees.push(std::move(Root));
    }
  }
  return Trees;
}

/// Per-row median team time of the proxy apps, from the wrappers' spans
/// (tags "app.<app>.<build>.<backend>#<n>").
void appTeamTimes(Value &L) {
  std::map<std::string, std::vector<double>> Rows;
  for (const Span &S : SpanLog::global().snapshot())
    if (S.Name == "vgpu.team" && S.Tag.rfind("app.", 0) == 0)
      Rows[S.Tag.substr(4, S.Tag.find('#') - 4)].push_back(S.End - S.Start);
  for (auto &[Row, Us] : Rows)
    L.set("vgpu.team_us_p50." + Row, Value(median(Us)));
}

} // namespace pb

#include "service/Service.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "frontend/TargetCompiler.hpp"
#include "support/Trace.hpp"

namespace codesign::service {

namespace {

std::uint64_t nowMicros() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

} // namespace

Service::Service(vgpu::VirtualGPU &Device, ServiceConfig Config)
    : Device(Device), Config(Config), Host(Device) {
  this->Config.Workers = std::max(1u, Config.Workers);
  this->Config.QueueCapacity = std::max<std::size_t>(1, Config.QueueCapacity);
  WorkerThreads.reserve(this->Config.Workers);
  for (unsigned I = 0; I < this->Config.Workers; ++I)
    WorkerThreads.emplace_back([this] { workerLoop(); });
}

Service::~Service() {
  drain();
  {
    std::lock_guard<std::mutex> Lock(QMutex);
    Stopping = true;
  }
  NotEmpty.notify_all();
  NotFull.notify_all();
  for (std::thread &W : WorkerThreads)
    W.join();
}

void Service::workerLoop() {
  for (;;) {
    Job J;
    {
      std::unique_lock<std::mutex> Lock(QMutex);
      NotEmpty.wait(Lock, [this] { return Stopping || !Queue.empty(); });
      if (Queue.empty())
        return; // Stopping, nothing left to do
      J = std::move(Queue.front());
      Queue.pop_front();
      ++ActiveJobs;
      NotFull.notify_one();
    }
    {
      // Everything the request does — compile traces, launch traces — is
      // stamped with its tenant for per-tenant trace isolation.
      trace::TenantScope Scope(J.Tenant);
      const std::uint64_t Start = nowMicros();
      J.Run();
      trace::Tracer::global().span("service", "request",
                                   nowMicros() - Start, {{"req", J.Id}});
      // Only now may the client learn the outcome: publishing after the
      // span guarantees a client woken by its ticket sees the request's
      // trace events.
      if (J.Publish)
        J.Publish();
    }
    {
      std::lock_guard<std::mutex> Lock(QMutex);
      --ActiveJobs;
      if (Queue.empty() && ActiveJobs == 0)
        Idle.notify_all();
    }
  }
}

Expected<std::uint64_t> Service::enqueue(const std::string &Tenant,
                                         std::function<void()> Run,
                                         std::function<void()> Publish) {
  const std::uint64_t Id =
      NextRequestId.fetch_add(1, std::memory_order_relaxed);
  // Tenant stats are recorded after QMutex is dropped: withTenant takes
  // TenantsMutex, and nesting it under QMutex would order the two locks —
  // any future path taking them the other way around would deadlock. An
  // attempt resolves to exactly one outcome (Submitted xor Rejected), and
  // when enqueue rejects, no job was queued, so no future will ever be
  // fulfilled for this attempt: accounting and completion cannot both
  // happen for one request.
  Expected<void> Admitted = [&]() -> Expected<void> {
    std::unique_lock<std::mutex> Lock(QMutex);
    if (Queue.size() >= Config.QueueCapacity) {
      if (Config.Policy == AdmissionPolicy::Reject || Stopping) {
        ++TotalRejected;
        return makeError("service: queue full (capacity ",
                         std::to_string(Config.QueueCapacity),
                         "): request rejected by admission control");
      }
      NotFull.wait(Lock, [this] {
        return Queue.size() < Config.QueueCapacity || Stopping;
      });
    }
    if (Stopping) {
      ++TotalRejected;
      return makeError("service: shutting down, request rejected");
    }
    Queue.push_back(Job{Tenant, Id, std::move(Run), std::move(Publish)});
    ++TotalEnqueued;
    DepthSum += Queue.size();
    if (Queue.size() > PeakDepth)
      PeakDepth = Queue.size();
    return {};
  }();
  if (!Admitted) {
    withTenant(Tenant, [](TenantState &T) { ++T.Stats.Rejected; });
    return Admitted.error();
  }
  withTenant(Tenant, [](TenantState &T) { ++T.Stats.Submitted; });
  NotEmpty.notify_one();
  return Id;
}

void Service::finishTenant(const std::string &Tenant, bool Ok) {
  withTenant(Tenant, [Ok](TenantState &T) {
    if (Ok)
      ++T.Stats.Completed;
    else
      ++T.Stats.Failed;
  });
}

Expected<void> Service::registerCompiled(const frontend::CompiledKernel &CK) {
  std::lock_guard<std::mutex> Lock(RegMutex);
  const std::string &Name = CK.Kernel->name();
  if (auto It = BoundKernels.find(Name); It != BoundKernels.end()) {
    // The single-flight cache hands every identical compile the same
    // module, so a repeat binding of that module is the expected steady
    // state, not a conflict.
    if (It->second == CK.M.get())
      return {};
    return makeError("service: kernel '", Name,
                     "' is already registered from a different module");
  }
  if (auto Out = Host.registerImage(*CK.M, CK.Bytecode); !Out)
    return Out;
  BoundKernels.emplace(Name, CK.M.get());
  OwnedModules.push_back(CK.M);
  return {};
}

Expected<Ticket<void>>
Service::submitRegister(std::string Tenant, std::shared_ptr<ir::Module> M,
                        std::shared_ptr<const vgpu::BytecodeModule> Bytecode) {
  if (!M)
    return makeError("service: submitRegister requires a module");
  auto Promise = std::make_shared<std::promise<Expected<void>>>();
  auto Fut = Promise->get_future();
  auto Slot = std::make_shared<std::optional<Expected<void>>>();
  auto Out = enqueue(
      Tenant,
      [this, Tenant, M = std::move(M), Bytecode = std::move(Bytecode), Slot] {
        Expected<void> R = [&]() -> Expected<void> {
          std::lock_guard<std::mutex> Lock(RegMutex);
          if (auto Reg = Host.registerImage(*M, Bytecode); !Reg)
            return Reg;
          for (const auto &F : M->functions())
            if (F->hasAttr(ir::FnAttr::Kernel))
              BoundKernels.emplace(F->name(), M.get());
          OwnedModules.push_back(M);
          return {};
        }();
        finishTenant(Tenant, R.hasValue());
        *Slot = std::move(R);
      },
      [Promise, Slot] { Promise->set_value(std::move(**Slot)); });
  if (!Out)
    return Out.error();
  return Ticket<void>(*Out, std::move(Fut));
}

Expected<Ticket<frontend::CompiledKernel>>
Service::submitCompile(std::string Tenant, frontend::KernelSpec Spec,
                       frontend::CompileOptions Options) {
  auto Promise =
      std::make_shared<std::promise<Expected<frontend::CompiledKernel>>>();
  auto Fut = Promise->get_future();
  auto SpecPtr = std::make_shared<frontend::KernelSpec>(std::move(Spec));
  auto OptPtr = std::make_shared<frontend::CompileOptions>(std::move(Options));
  auto Slot =
      std::make_shared<std::optional<Expected<frontend::CompiledKernel>>>();
  auto Out = enqueue(
      Tenant,
      [this, Tenant, SpecPtr, OptPtr, Slot] {
        auto R = frontend::compileKernel(*SpecPtr, *OptPtr, Device.registry());
        if (R) {
          withTenant(Tenant, [&](TenantState &T) {
            ++T.Stats.Compiles;
            if (R->Timing.CacheHit)
              ++T.Stats.CompileCacheHits;
          });
          if (auto Reg = registerCompiled(*R); !Reg) {
            finishTenant(Tenant, false);
            *Slot = Reg.error();
            return;
          }
        }
        finishTenant(Tenant, R.hasValue());
        *Slot = std::move(R);
      },
      [Promise, Slot] { Promise->set_value(std::move(**Slot)); });
  if (!Out)
    return Out.error();
  return Ticket<frontend::CompiledKernel>(*Out, std::move(Fut));
}

Expected<Ticket<vgpu::LaunchResult>>
Service::submitLaunch(host::LaunchRequest Request) {
  // Reject malformed requests at submission, before they consume a queue
  // slot: the client gets the error synchronously.
  if (auto Valid = Request.validate(); !Valid)
    return Valid.error();
  auto Promise = std::make_shared<std::promise<Expected<vgpu::LaunchResult>>>();
  auto Fut = Promise->get_future();
  const std::string Tenant = Request.Tenant;
  auto ReqPtr = std::make_shared<host::LaunchRequest>(std::move(Request));
  auto Slot = std::make_shared<std::optional<Expected<vgpu::LaunchResult>>>();
  auto Out = enqueue(
      Tenant,
      [this, Tenant, ReqPtr, Slot] {
        const std::uint64_t Start = nowMicros();
        auto R = Host.launch(*ReqPtr);
        const double WallMicros = static_cast<double>(nowMicros() - Start);
        const bool Ok = R.hasValue() && R->Ok;
        withTenant(Tenant, [&](TenantState &T) {
          if (Ok) {
            ++T.Stats.Launches;
            T.Stats.LaunchWallMicros.add(WallMicros);
            if (R->Profile.Collected) {
              T.LastProfile = R->Profile;
              T.HasProfile = true;
            }
          }
        });
        finishTenant(Tenant, Ok);
        *Slot = std::move(R);
      },
      [Promise, Slot] { Promise->set_value(std::move(**Slot)); });
  if (!Out)
    return Out.error();
  return Ticket<vgpu::LaunchResult>(*Out, std::move(Fut));
}

namespace {

/// The motion clause that governs one Buffer argument of one launch: the
/// request's explicit clause wins, then the kernel's declared clause, then
/// the statically inferred one; a pointer with no information at all gets
/// the OpenMP implicit default, tofrom.
ir::MapKind effectiveMap(const host::KernelArg &A, const ir::Function *K,
                         unsigned ArgIdx) {
  if (A.Map != ir::MapKind::None)
    return A.Map;
  if (K) {
    if (K->argMap(ArgIdx) != ir::MapKind::None)
      return K->argMap(ArgIdx);
    if (K->inferredArgMap(ArgIdx) != ir::MapKind::None)
      return K->inferredArgMap(ArgIdx);
  }
  return ir::MapKind::ToFrom;
}

} // namespace

Expected<Ticket<PipelineResult>>
Service::submitPipeline(std::string Tenant,
                        std::vector<host::LaunchRequest> Requests) {
  if (Requests.empty())
    return makeError("service: submitPipeline requires at least one launch");
  for (std::size_t I = 0; I < Requests.size(); ++I)
    if (auto Valid = Requests[I].validate(); !Valid)
      return makeError("service: pipeline launch #", std::to_string(I), ": ",
                       Valid.error().message());
  auto Promise = std::make_shared<std::promise<Expected<PipelineResult>>>();
  auto Fut = Promise->get_future();
  auto Reqs = std::make_shared<std::vector<host::LaunchRequest>>(
      std::move(Requests));
  auto Slot = std::make_shared<std::optional<Expected<PipelineResult>>>();
  auto Out = enqueue(
      Tenant,
      [this, Tenant, Reqs, Slot] {
    auto R = [&]() -> Expected<PipelineResult> {
      // Plan residency: one entry per distinct buffer pointer, its motion
      // needs OR-ed over every launch that names it.
      struct BufPlan {
        void *Ptr = nullptr;
        std::uint64_t Bytes = 0;
        bool NeedTo = false;
        bool NeedFrom = false;
      };
      std::vector<BufPlan> Plan;
      std::map<const void *, std::size_t> Index;
      for (const host::LaunchRequest &Req : *Reqs) {
        const ir::Function *K = Host.findKernel(Req.Kernel);
        for (std::size_t A = 0; A < Req.Args.size(); ++A) {
          const host::KernelArg &Arg = Req.Args[A];
          if (Arg.K != host::KernelArg::Kind::Buffer)
            continue;
          const ir::MapKind M =
              effectiveMap(Arg, K, static_cast<unsigned>(A));
          auto [It, Fresh] = Index.try_emplace(Arg.HostPtr, Plan.size());
          if (Fresh)
            Plan.push_back(
                BufPlan{const_cast<void *>(Arg.HostPtr), Arg.Bytes});
          BufPlan &B = Plan[It->second];
          if (B.Bytes != Arg.Bytes)
            return makeError("service: pipeline maps one buffer with two "
                             "sizes (",
                             std::to_string(B.Bytes), " vs ",
                             std::to_string(Arg.Bytes), " bytes)");
          B.NeedTo |= ir::mapCopiesTo(M);
          B.NeedFrom |= ir::mapCopiesFrom(M);
        }
      }
      PipelineResult Res;
      Res.HoistedBuffers = Plan.size();
      // Prologue: make every buffer resident. To-motion only for buffers
      // some launch actually reads.
      for (std::size_t I = 0; I < Plan.size(); ++I) {
        auto Addr = Host.enterData(Plan[I].Ptr, Plan[I].Bytes,
                                   /*CopyTo=*/Plan[I].NeedTo,
                                   &Res.Transfers);
        if (!Addr) {
          for (std::size_t J = I; J-- > 0;)
            (void)Host.exitData(Plan[J].Ptr, /*CopyFrom=*/false,
                                &Res.Transfers);
          return makeError("service: pipeline could not map a buffer: ",
                           Addr.error().message());
        }
      }
      // Launches run in order; each one's buffer maps are refcount bumps.
      bool AllOk = true;
      std::string FirstError;
      for (const host::LaunchRequest &Req : *Reqs) {
        auto LR = Host.launch(Req);
        if (!LR) {
          AllOk = false;
          FirstError = LR.error().message();
          break;
        }
        Res.Transfers.accumulate(host::TransferStats{
            LR->Profile.TransfersToDevice, LR->Profile.TransfersFromDevice,
            LR->Profile.BytesToDevice, LR->Profile.BytesFromDevice,
            LR->Profile.TransferCycles});
        const bool Ok = LR->Ok;
        Res.Launches.push_back(std::move(*LR));
        if (!Ok) {
          AllOk = false;
          FirstError = Res.Launches.back().Error;
          break;
        }
        withTenant(Tenant, [](TenantState &T) { ++T.Stats.Launches; });
      }
      // Epilogue: release residency. From-motion only when the whole
      // pipeline succeeded — partial outputs stay on the device side.
      for (std::size_t J = Plan.size(); J-- > 0;)
        (void)Host.exitData(Plan[J].Ptr,
                            /*CopyFrom=*/AllOk && Plan[J].NeedFrom,
                            &Res.Transfers);
      if (!AllOk)
        return makeError("service: pipeline launch failed: ", FirstError);
      Counters::global().add("service.pipeline.jobs");
      Counters::global().add("service.pipeline.hoisted_buffers",
                             Res.HoistedBuffers);
      return Res;
    }();
    finishTenant(Tenant, R.hasValue());
    *Slot = std::move(R);
      },
      [Promise, Slot] { Promise->set_value(std::move(**Slot)); });
  if (!Out)
    return Out.error();
  return Ticket<PipelineResult>(*Out, std::move(Fut));
}

Expected<vgpu::LaunchProfile> Service::lastProfile(std::string_view Tenant) const {
  std::lock_guard<std::mutex> Lock(TenantsMutex);
  auto It = Tenants.find(Tenant);
  if (It == Tenants.end() || !It->second.HasProfile)
    return makeError("service: tenant '", std::string(Tenant),
                     "' has no profiled launch (enable profiling with "
                     "VirtualGPU::setProfiling)");
  return It->second.LastProfile;
}

TenantStats Service::tenantStats(std::string_view Tenant) const {
  std::lock_guard<std::mutex> Lock(TenantsMutex);
  auto It = Tenants.find(Tenant);
  return It == Tenants.end() ? TenantStats{} : It->second.Stats;
}

std::vector<std::string> Service::tenants() const {
  std::lock_guard<std::mutex> Lock(TenantsMutex);
  std::vector<std::string> Out;
  Out.reserve(Tenants.size());
  for (const auto &[Name, State] : Tenants)
    Out.push_back(Name);
  return Out;
}

QueueStats Service::queueStats() const {
  std::lock_guard<std::mutex> Lock(QMutex);
  QueueStats S;
  S.Depth = Queue.size();
  S.Peak = PeakDepth;
  S.Enqueued = TotalEnqueued;
  S.Rejected = TotalRejected;
  S.MeanDepth = TotalEnqueued
                    ? static_cast<double>(DepthSum) /
                          static_cast<double>(TotalEnqueued)
                    : 0.0;
  return S;
}

void Service::drain() {
  std::unique_lock<std::mutex> Lock(QMutex);
  Idle.wait(Lock, [this] { return Queue.empty() && ActiveJobs == 0; });
}

} // namespace codesign::service

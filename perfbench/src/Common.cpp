//===- perfbench/src/Common.cpp - Kernels, buffers, streams, helpers -------===//
#include "Bench.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <limits>
#include <ctime>
#include <sys/resource.h>
#include <thread>

#include "apps/AppCommon.hpp"
#include "support/Rng.hpp"

namespace pb {

using namespace cs;
using frontend::BodyArg;
using frontend::NativeBody;
using frontend::Stmt;
using frontend::TripCount;

double nowUs() {
  static const auto Epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - Epoch)
      .count();
}

SpanLog &SpanLog::global() {
  static SpanLog L;
  return L;
}

RequestLog &RequestLog::global() {
  static RequestLog L;
  return L;
}

Value toJson(const std::vector<double> &V) {
  Value A = Value::array();
  for (double X : V)
    A.push(Value(X));
  return A;
}

Value streamJson(const StreamResult &R, const std::vector<std::string> &Rows) {
  Value S = Value::object();
  S.set("due", toJson(R.Due));
  S.set("submit", toJson(R.Submit));
  S.set("done", toJson(R.Done));
  Value Row = Value::array();
  for (int X : R.Row)
    Row.push(Value(X));
  S.set("row", Row);
  Value Names = Value::array();
  for (const std::string &N : Rows)
    Names.push(Value(N));
  S.set("rows", Names);
  return S;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const std::size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

double geomean(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

double peakRssMiB() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

double processCpuUs() {
  timespec T{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
  rusage C{};
  getrusage(RUSAGE_CHILDREN, &C);
  auto Us = [](const timeval &V) {
    return static_cast<double>(V.tv_sec) * 1e6 + static_cast<double>(V.tv_usec);
  };
  return static_cast<double>(T.tv_sec) * 1e6 +
         static_cast<double>(T.tv_nsec) / 1e3 + Us(C.ru_utime) +
         Us(C.ru_stime);
}

void setEnv(const char *K, const std::string &V) { ::setenv(K, V.c_str(), 1); }

//===----------------------------------------------------------------------===//
// Native ops and generated kernels
//===----------------------------------------------------------------------===//

double elemValue(double X, std::uint64_t Iter, std::int64_t Salt) {
  const auto Mix = static_cast<double>(
      (Iter * 31u + static_cast<std::uint64_t>(Salt)) & 1023u);
  return X * 1.000001 + Mix * 0.5;
}

OpIds registerOps(vgpu::NativeRegistry &R) {
  OpIds Ids;
  // out[team * n + iter] = elemValue(in[iter % n], iter, salt)
  Ids.Elem = R.add(vgpu::NativeOpInfo{
      "pb_elem",
      [](vgpu::NativeCtx &C) {
        const std::uint64_t It = C.argBits(0);
        const std::int64_t Team = C.argI64(1);
        const vgpu::DeviceAddr Out = C.argPtr(2), In = C.argPtr(3);
        const std::int64_t N = C.argI64(4);
        const std::int64_t Salt = C.argI64(5);
        const double X = C.loadF64(
            In.advance(static_cast<std::int64_t>(It % static_cast<std::uint64_t>(N)) * 8));
        C.storeF64(Out.advance((Team * N + static_cast<std::int64_t>(It)) * 8),
                   elemValue(X, It, Salt));
        C.chargeCycles(6);
      },
      4});
  // acc[team] += (salt & 255) + 1: a per-team read-modify-write.
  Ids.Acc = R.add(vgpu::NativeOpInfo{
      "pb_acc",
      [](vgpu::NativeCtx &C) {
        const vgpu::DeviceAddr Acc = C.argPtr(0).advance(
            static_cast<std::int64_t>(C.teamId()) * 8);
        const double Add = static_cast<double>(C.argI64(1) & 255) + 1.0;
        C.storeF64(Acc, C.loadF64(Acc) + Add);
        C.chargeCycles(20);
      },
      2});
  return Ids;
}

std::size_t GenKernel::outElems() const {
  return static_cast<std::size_t>(N) * (Shape == 0 ? 1u : Teams);
}

GenKernel makeKernel(const OpIds &Ops, std::string Name, int Shape,
                     std::uint32_t Teams, std::uint32_t Threads,
                     std::int64_t N, std::int64_t Salt,
                     std::int32_t NumThreadsClause,
                     std::uint64_t ScratchBytes) {
  GenKernel K;
  K.Shape = Shape;
  K.Teams = Teams;
  K.Threads = Threads;
  K.N = N;
  K.Salt = Salt;
  frontend::KernelSpec &S = K.Spec;
  S.Name = std::move(Name);
  S.Params = {frontend::ParamSpec::mappedPtr("out", ir::MapKind::From),
              frontend::ParamSpec::mappedPtr("in", ir::MapKind::To),
              frontend::ParamSpec::mappedPtr("acc", ir::MapKind::ToFrom),
              {ir::Type::i64(), "n"},
              {ir::Type::i64(), "salt"}};
  NativeBody Elem;
  Elem.NativeId = Ops.Elem;
  Elem.Args = {BodyArg::iter(),
               Shape == 0 ? BodyArg::constant(0) : BodyArg::teamNum(),
               BodyArg::arg(0),
               BodyArg::arg(1),
               BodyArg::arg(3),
               BodyArg::arg(4)};
  NativeBody Acc;
  Acc.NativeId = Ops.Acc;
  Acc.Args = {BodyArg::arg(2), BodyArg::arg(4)};
  const TripCount Trip = TripCount::argument(3);
  switch (Shape) {
  case 0:
    S.Stmts = {Stmt::distributeParallelFor(Trip, Elem, ScratchBytes)};
    break;
  case 1:
    S.Stmts = {Stmt::parallel({Stmt::forLoop(Trip, Elem)}, NumThreadsClause,
                              ScratchBytes)};
    break;
  case 2:
    S.Stmts = {Stmt::parallel(
        {Stmt::forLoop(Trip, Elem), Stmt::parallelWork(Acc)},
        NumThreadsClause, ScratchBytes)};
    break;
  default:
    S.Stmts = {Stmt::serial(Acc),
               Stmt::parallel({Stmt::forLoop(Trip, Elem)}, NumThreadsClause,
                              ScratchBytes)};
    break;
  }
  return K;
}

std::vector<double> kernelInput(const GenKernel &K) {
  Rng R(static_cast<std::uint64_t>(K.Salt) * 0x9E3779B97F4A7C15ULL + 17);
  std::vector<double> In(static_cast<std::size_t>(K.N));
  for (double &X : In)
    X = R.uniform(-4.0, 4.0);
  return In;
}

std::vector<double> hostReference(const GenKernel &K,
                                  const std::vector<double> &In) {
  CODESIGN_ASSERT(K.Shape != 2, "no host reference for nested regions");
  std::vector<double> Out(K.outElems() + K.accElems(), 0.0);
  const std::uint32_t Teams = K.Shape == 0 ? 1 : K.Teams;
  for (std::uint32_t T = 0; T < Teams; ++T)
    for (std::int64_t I = 0; I < K.N; ++I)
      Out[static_cast<std::size_t>(T * K.N + I)] =
          elemValue(In[static_cast<std::size_t>(I)],
                    static_cast<std::uint64_t>(I), K.Salt);
  // Shape 3's serial prologue runs pb_acc once per team.
  if (K.Shape == 3)
    for (std::uint32_t T = 0; T < K.Teams; ++T)
      Out[K.outElems() + T] = static_cast<double>(K.Salt & 255) + 1.0;
  return Out;
}

std::uint64_t hashDoubles(const std::vector<double> &V) {
  return apps::fnv1a(apps::FnvSeed, V.data(), V.size() * sizeof(double));
}

frontend::CompileOptions kernelOptions() {
  return frontend::CompileOptions::newRTNoAssumptions();
}

void KernelBuffers::reset(const GenKernel &K, const std::vector<double> &Input) {
  Out.assign(K.outElems(), 0.0);
  In = Input;
  Acc.assign(K.accElems(), 0.0);
}

host::LaunchRequest KernelBuffers::request(const GenKernel &K,
                                           std::string Backend,
                                           std::string Tenant) {
  using host::KernelArg;
  auto R = host::LaunchRequest::make(
      K.Spec.Name,
      {KernelArg::buffer(Out.data(), Out.size() * 8, ir::MapKind::From),
       KernelArg::buffer(In.data(), In.size() * 8, ir::MapKind::To),
       KernelArg::buffer(Acc.data(), Acc.size() * 8, ir::MapKind::ToFrom),
       KernelArg::i64(K.N), KernelArg::i64(K.Salt)},
      K.Teams, K.Threads, std::move(Tenant));
  R.Backend = std::move(Backend);
  return R;
}

//===----------------------------------------------------------------------===//
// Streams
//===----------------------------------------------------------------------===//

StreamResult runStream(service::Service &Svc, const StreamSpec &S,
                       Outcome &Out) {
  constexpr std::size_t NumSlots = 256;
  struct Slot {
    KernelBuffers B;
    std::atomic<bool> Busy{false};
  };
  struct Pending {
    std::size_t SlotIdx = 0;
    std::size_t KIdx = 0;
    int Row = 0;
    double Due = 0, Submit = 0;
    std::string Tag;
    Expected<service::Ticket<vgpu::LaunchResult>> T =
        service::Ticket<vgpu::LaunchResult>();
  };
  std::vector<std::unique_ptr<Slot>> Ring;
  for (std::size_t I = 0; I < NumSlots; ++I)
    Ring.push_back(std::make_unique<Slot>());

  std::mutex M;
  std::condition_variable CV;
  std::deque<Pending> Queue;
  bool GenDone = false;
  StreamResult R;
  const double Start = nowUs() + 1000;
  const double End = Start + S.Seconds * 1e6;

  std::thread Collector([&] {
    for (;;) {
      Pending P;
      {
        std::unique_lock<std::mutex> L(M);
        CV.wait(L, [&] { return GenDone || !Queue.empty(); });
        if (Queue.empty())
          break;
        P = std::move(Queue.front());
        Queue.pop_front();
      }
      Slot &Sl = *Ring[P.SlotIdx];
      double Done = -1;
      if (!P.T) {
        Out.fail(S.Name + ": submit refused: " + P.T.error().message());
      } else {
        auto LR = P.T->get();
        const double Finished = nowUs();
        const StreamKernel &SK = S.Kernels[P.KIdx];
        if (!LR || !LR->Ok) {
          Out.fail(S.Name + ": " + SK.K->Spec.Name + ": " +
                   (LR ? LR->Error : LR.error().message()));
        } else {
          std::vector<double> All = Sl.B.Out;
          All.insert(All.end(), Sl.B.Acc.begin(), Sl.B.Acc.end());
          if (SK.ExpectedHash != 0 && hashDoubles(All) != SK.ExpectedHash) {
            Out.fail(S.Name + ": output hash mismatch on " + SK.K->Spec.Name,
                     /*Mismatch=*/true);
          } else {
            Out.ok();
            Done = Finished;
            R.TicketUs.push_back(Finished - P.Submit);
            const vgpu::LaunchProfile &Pr = LR->Profile;
            R.Transfers.push_back(static_cast<double>(
                Pr.TransfersToDevice + Pr.TransfersFromDevice));
            R.TransferBytes.push_back(
                static_cast<double>(Pr.BytesToDevice + Pr.BytesFromDevice));
            R.TransferCycles.push_back(static_cast<double>(Pr.TransferCycles));
          }
        }
        RequestRecord Rec;
        Rec.Tag = P.Tag;
        Rec.Kind = S.Name;
        Rec.Due = P.Due;
        Rec.Submit = P.Submit;
        Rec.Done = Finished;
        RequestLog::global().add(std::move(Rec));
      }
      R.Due.push_back(P.Due);
      R.Submit.push_back(P.Submit);
      R.Done.push_back(Done);
      R.Row.push_back(P.Row);
      Sl.Busy.store(false, std::memory_order_release);
    }
  });

  Rng Gen(S.Seed);
  for (std::uint64_t I = 0;; ++I) {
    const double Due = Start + static_cast<double>(I) * 1e6 / S.Rate;
    if (Due >= End)
      break;
    const double Now = nowUs();
    if (Due > Now)
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::micro>(Due - Now));
    const std::size_t KIdx = Gen.below(S.Kernels.size());
    Slot &Sl = *Ring[I % NumSlots];
    while (Sl.Busy.load(std::memory_order_acquire))
      std::this_thread::yield();
    Sl.Busy.store(true, std::memory_order_relaxed);
    const StreamKernel &SK = S.Kernels[KIdx];
    Sl.B.reset(*SK.K, SK.Input);
    std::string Tag = S.Name;
    if (S.UniqueTags)
      Tag += "#" + std::to_string(I);
    Pending P;
    P.SlotIdx = I % NumSlots;
    P.KIdx = KIdx;
    P.Row = static_cast<int>(KIdx);
    P.Due = Due;
    P.Tag = Tag;
    P.Submit = nowUs();
    P.T = Svc.submitLaunch(Sl.B.request(*SK.K, "native", std::move(Tag)));
    {
      std::lock_guard<std::mutex> L(M);
      Queue.push_back(std::move(P));
    }
    CV.notify_one();
  }
  {
    std::lock_guard<std::mutex> L(M);
    GenDone = true;
  }
  CV.notify_one();
  Collector.join();
  return R;
}

//===----------------------------------------------------------------------===//
// Bystanders
//===----------------------------------------------------------------------===//

Expected<std::vector<StreamKernel>>
setupBystanders(std::vector<GenKernel> &Storage, const OpIds &Ops,
                service::Service &Svc, Outcome &Out) {
  // Seed-independent on purpose: their native modules live in whatever
  // cache the workload uses and must not multiply across seeds.
  Storage.clear();
  Storage.push_back(makeKernel(Ops, "pb_bystander_0", 0, 1, 32, 256, 11));
  Storage.push_back(makeKernel(Ops, "pb_bystander_1", 1, 2, 32, 128, 12));
  std::vector<StreamKernel> Stream;
  for (const GenKernel &K : Storage) {
    auto T = Svc.submitCompile("bystander", K.Spec, kernelOptions());
    if (!T)
      return T.error();
    auto CK = T->get();
    if (!CK)
      return CK.error();
    StreamKernel SK;
    SK.K = &K;
    SK.Input = kernelInput(K);
    SK.ExpectedHash = hashDoubles(hostReference(K, SK.Input));
    // Warm: the first native launch builds (or loads) the module.
    KernelBuffers B;
    B.reset(K, SK.Input);
    auto L = Svc.submitLaunch(B.request(K, "native", "bystander"));
    if (!L)
      return L.error();
    auto LR = L->get();
    if (!LR || !LR->Ok)
      return cs::makeError("bystander warm-up failed: ",
                           LR ? LR->Error : LR.error().message());
    std::vector<double> Got = B.Out;
    Got.insert(Got.end(), B.Acc.begin(), B.Acc.end());
    if (hashDoubles(Got) != SK.ExpectedHash)
      Out.fail("bystander warm-up: output differs from the host reference",
               true);
    Stream.push_back(std::move(SK));
  }
  return Stream;
}

} // namespace pb

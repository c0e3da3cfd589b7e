//===- perfbench/servemix.cpp - the serve_mix workload ---------------------===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// An in-process runServe session fed through a pipe. The calling thread is
// serve's reader; one load-generator thread writes job lines and reads the
// protocol lines back with ppoll, timestamping each `done` line. With two
// workers the session uses four threads, one per core of the 4-core
// machine the benchmark was sized on.
//
// Each session has three phases:
//   priming  every distinct popular job once, all submitted at session
//            start; setup_s is session start to the last of their done lines;
//   open     bursts of jobs at a fixed mean rate (far below the
//            closed-loop capacity), latency timed from each burst's
//            scheduled send time, so a stall also charges the jobs queued
//            behind it;
//   closed   a fixed number of jobs, a fixed window of them in flight;
//            jobs_per_s.
// The job stream draws Zipf-popular suite items over three configurations;
// about 3/4 are m0 (per-job overhead) and 1/4 full runs at scale 1, every
// job carries fuel=, and about 5% name a generated .wasm that is new to the
// session, putting first-contact compile time on the latency tail.
//
//===----------------------------------------------------------------------===//

#include "perfbench.h"

#include "analysis/analysis.h"
#include "engine/registry.h"
#include "runtime/instance.h"
#include "service/serve.h"
#include "support/format.h"
#include "support/rng.h"
#include "wasm/reader.h"
#include "wasm/validator.h"

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <deque>
#include <fcntl.h>
#include <filesystem>
#include <map>
#include <set>
#include <poll.h>
#include <thread>
#include <unistd.h>

using namespace wisp;

namespace perfbench {

namespace {

constexpr unsigned Workers = 2;
/// Sessions per run. setup_s and jobs_per_s are medians over sessions, so a
/// burst of interference from outside the process moves one session, not
/// the run; the latency percentiles pool every session's open-loop jobs.
constexpr unsigned Sessions = 5;
constexpr unsigned ClosedWindow = 2 * Workers;
/// The open-loop rate, jobs/s. The closed-loop capacity measured on a
/// 4-core AMD EPYC VM is 12000-15000 jobs/s (2 workers, a window of 4);
/// 2000 jobs/s keeps the open loop far below saturation, so it measures
/// latency rather than the neighbouring VMs, while giving the percentiles
/// twice the samples of 1000 jobs/s (which spread p99 twice as wide).
constexpr double ServeRate = 2000;
/// One job in this many names a generated module new to the session.
constexpr size_t NewModuleEvery = 20;
/// The open loop sends its jobs in bursts of this many, one burst every
/// OpenBurst / ServeRate seconds, as a client submitting a batch would.
/// A job queues behind the work sent with it, so its latency is mostly
/// serve's work rather than the two thread wakeups (pipe reader, worker)
/// that start a burst: with one job at a time those wakeups were two
/// thirds of a ~0.02 ms p50 and swung it by half from run to run on a
/// shared VM, while a burst pays them once.
/// (Bursts of 50 spread p50 and p99 wider than bursts of 20.)
constexpr size_t OpenBurst = 20;

/// Open-loop jobs per session: 70% of the run's time at the fixed rate,
/// 5600 jobs (280 bursts) per 20 s run, so the run's p99 has 280 samples
/// beyond it. A whole number of bursts.
size_t openJobs(const Options &O) {
  size_t Bursts = size_t(ServeRate * 0.7 * O.Seconds / Sessions) / OpenBurst;
  return std::max<size_t>(1, Bursts) * OpenBurst;
}
/// Closed-loop jobs per session: 1000 per second of run time, under a
/// tenth of the run at the capacities measured.
size_t closedJobs(const Options &O) {
  return size_t(1000 * O.Seconds / Sessions);
}
/// Large enough that no job of the benchmark ever runs out: fuel= is there
/// to exercise the governed path, not to stop jobs.
constexpr uint64_t Fuel = 1000000000000ull;
/// Every third suite item is popular (26 of 78, spread over the three
/// suites), ranked in suite order. The ranking is fixed, so every seed
/// draws from the same popularity distribution and only the sequence
/// varies; with a seeded ranking one heavy item at rank 1 would swing the
/// mix from seed to seed.
constexpr size_t PopularStride = 3;
constexpr double ZipfS = 1.0;
const char *const Configs[] = {"wizard-spc", "interp-threaded",
                               "wizard-tiered"};

enum Phase : uint8_t { Priming, Open, Closed };

/// One job to submit: the manifest line (without id=) and its expected
/// done-line body.
struct JobSpec {
  std::string Line;
  std::string Expected;
  const BenchModule *Mod = nullptr;
  size_t Cfg = 0;
};

std::string rendered(const std::string &Exact) {
  TrapReason Trap;
  std::vector<Value> Vals;
  if (!parseExactOutcome(Exact, &Trap, &Vals))
    return "<bad oracle entry>";
  return renderOutcome(Trap, Vals);
}

/// The seeded job stream of one session. A phase of N jobs is a fixed
/// multiset: N / NewModuleEvery generated modules new to the session and,
/// for the rest, a quota of every popular (item, config, variant) in
/// proportion to its weight (Zipf rank, configs alike, m0 3:1 over full).
/// The seed generates the new modules and orders the jobs; it does not
/// change how many of each popular job a phase runs, so the latency tail,
/// set by the few heaviest full runs, measures speed rather than the draw.
class JobStream {
public:
  JobStream(const std::vector<BenchModule> &M0, const std::vector<BenchModule> &Full,
            const std::vector<BenchModule> &Gen,
            const std::vector<std::string> &GenPaths, uint64_t Seed)
      : M0(M0), Full(Full), Gen(Gen), GenPaths(GenPaths), Rand(Seed) {
    for (size_t I = 0; I * PopularStride < M0.size(); ++I)
      Zipf.push_back(1.0 / std::pow(double(I + 1), ZipfS));
  }

  /// Every distinct popular job: item x config x {m0, full}.
  std::vector<JobSpec> distinctPopular() const {
    std::vector<JobSpec> V;
    for (size_t Rank = 0; Rank < Zipf.size(); ++Rank)
      for (size_t C = 0; C < 3; ++C)
        for (bool IsM0 : {true, false})
          V.push_back(popular(Rank, C, IsM0));
    return V;
  }

  /// The \p N jobs of one phase as consecutive bursts of \p Burst jobs, in
  /// a seeded order. The multiset is dealt round-robin over the bursts, so
  /// every burst holds a like cross-section of it (each its share of new
  /// modules, m0 and full runs); then the seed orders the bursts and the
  /// jobs within each. Burst = N is a plain shuffle of the phase. (Kept in
  /// deal order, every burst led with its new module and ended with its
  /// heaviest kind, which spread p50 twice as wide from run to run.)
  std::vector<JobSpec> phase(size_t N, size_t Burst) {
    std::vector<JobSpec> V;
    for (size_t I = 0; I < N / NewModuleEvery && NextGen < Gen.size(); ++I)
      V.push_back(generated(NextGen++, I % 3));
    // Largest-remainder quotas. distinctPopular lists rank by rank, three
    // configs each, m0 before full.
    std::vector<JobSpec> Kinds = distinctPopular();
    auto Weight = [&](size_t K) { return Zipf[K / 6] * (K % 2 ? 1 : 3); };
    double Sum = 0;
    for (size_t K = 0; K < Kinds.size(); ++K)
      Sum += Weight(K);
    size_t Popular = N - V.size();
    std::vector<std::pair<double, size_t>> Remainders;
    for (size_t K = 0; K < Kinds.size(); ++K) {
      double Exact = double(Popular) * Weight(K) / Sum;
      V.insert(V.end(), size_t(Exact), Kinds[K]);
      Remainders.push_back({Exact - std::floor(Exact), K});
    }
    std::sort(Remainders.begin(), Remainders.end(),
              [](const auto &A, const auto &B) { return A.first > B.first; });
    for (size_t I = 0; V.size() < N; ++I)
      V.push_back(Kinds[Remainders[I].second]);
    size_t Bursts = (N + Burst - 1) / Burst;
    std::vector<std::vector<JobSpec>> Dealt(Bursts);
    for (size_t I = 0; I < V.size(); ++I)
      Dealt[I % Bursts].push_back(std::move(V[I]));
    shuffle(Dealt);
    V.clear();
    for (std::vector<JobSpec> &B : Dealt) {
      shuffle(B);
      for (JobSpec &J : B)
        V.push_back(std::move(J));
    }
    return V;
  }

private:
  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[Rand.below(I)]);
  }

  JobSpec generated(size_t I, size_t C) const {
    JobSpec S;
    S.Mod = &Gen[I];
    S.Cfg = C;
    S.Line = strFormat("%s config=%s invoke=repro fuel=%llu",
                       GenPaths[I].c_str(), Configs[C],
                       (unsigned long long)Fuel);
    S.Expected = rendered(Gen[I].Expected);
    return S;
  }

  JobSpec popular(size_t Rank, size_t C, bool IsM0) const {
    const BenchModule &B = (IsM0 ? M0 : Full)[Rank * PopularStride];
    JobSpec S;
    S.Mod = &B;
    S.Cfg = C;
    S.Line = strFormat("%s config=%s scale=1%s fuel=%llu", B.Name.c_str(),
                       Configs[C], IsM0 ? " m0" : "",
                       (unsigned long long)Fuel);
    S.Expected = rendered(B.Expected);
    return S;
  }

  const std::vector<BenchModule> &M0, &Full, &Gen;
  const std::vector<std::string> &GenPaths;
  Rng Rand;
  std::vector<double> Zipf; ///< Unnormalized weight by popularity rank.
  size_t NextGen = 0;
};

/// The load generator: submits job lines (non-blocking, buffered) and
/// reads protocol lines, both through one ppoll loop on one thread.
class LoadGen {
public:
  struct Rec {
    uint64_t Scheduled = 0, Sent = 0, Done = 0;
    Phase Ph = Priming;
    bool Finished = false;
    JobSpec Spec;
  };

  LoadGen(int InW, int OutR, RunResult &R) : InW(InW), OutR(OutR), R(R) {
    fcntl(InW, F_SETFL, fcntl(InW, F_GETFL) | O_NONBLOCK);
    fcntl(OutR, F_SETFL, fcntl(OutR, F_GETFL) | O_NONBLOCK);
  }

  std::vector<Rec> Jobs;
  uint64_t FinishedIn[3] = {0, 0, 0};
  uint64_t SentIn[3] = {0, 0, 0};

  void submit(JobSpec S, Phase Ph, uint64_t Scheduled) {
    size_t Id = Jobs.size();
    Pending += S.Line + strFormat(" id=%zu\n", Id);
    Marks.push_back({Queued + Pending.size(), Id});
    Rec Rc;
    Rc.Scheduled = Scheduled;
    Rc.Ph = Ph;
    Rc.Spec = std::move(S);
    Jobs.push_back(std::move(Rc));
    ++SentIn[Ph];
  }

  /// Flushes pending lines and reads protocol lines until \p UntilNs
  /// (returns after the first batch of events, or at the deadline). It
  /// sleeps in ppoll: a generator spinning on a zero timeout took a core's
  /// worth of CPU from the two workers beside it on the 4-core VM the
  /// benchmark was sized on, which cut closed-loop capacity by a third and
  /// made it swing. The wakeup it adds to a done line's stamp is small
  /// beside a burst's ~1.5 ms p50.
  void pump(uint64_t UntilNs) {
    struct pollfd Fds[2];
    nfds_t N = 0;
    if (!Eof) {
      Fds[N] = {OutR, POLLIN, 0};
      ++N;
    }
    bool Writing = !Pending.empty() && InW >= 0;
    if (Writing) {
      Fds[N] = {InW, POLLOUT, 0};
      ++N;
    }
    uint64_t Now = nowNs();
    uint64_t Wait = UntilNs > Now ? UntilNs - Now : 0;
    struct timespec Timeout = {time_t(Wait / 1000000000ull),
                               long(Wait % 1000000000ull)};
    int Ready = ppoll(Fds, N, &Timeout, nullptr);
    if (Ready <= 0)
      return;
    uint64_t At = nowNs();
    if (Writing)
      flush(At);
    if (!Eof)
      readLines(At);
  }

  /// Sends the shutdown line and closes the job pipe.
  void shutdown() {
    Pending += "shutdown\n";
    uint64_t Deadline = nowNs() + 30000000000ull;
    while (!Pending.empty() && InW >= 0 && nowNs() < Deadline)
      pump(nowNs() + 10000000ull);
    closeIn();
  }

  void closeIn() {
    if (InW >= 0)
      close(InW);
    InW = -1;
  }

  bool Eof = false;

private:
  void flush(uint64_t At) {
    ssize_t W = write(InW, Pending.data(), Pending.size());
    if (W <= 0)
      return;
    Queued += size_t(W);
    Pending.erase(0, size_t(W));
    while (!Marks.empty() && Marks.front().first <= Queued) {
      Jobs[Marks.front().second].Sent = At;
      Marks.pop_front();
    }
  }

  void readLines(uint64_t At) {
    char Buf[65536];
    for (;;) {
      ssize_t Got = read(OutR, Buf, sizeof(Buf));
      if (Got == 0) {
        Eof = true;
        break;
      }
      if (Got < 0)
        break;
      Line.append(Buf, size_t(Got));
    }
    size_t Pos;
    while ((Pos = Line.find('\n')) != std::string::npos) {
      handle(Line.substr(0, Pos), At);
      Line.erase(0, Pos + 1);
    }
  }

  void handle(const std::string &L, uint64_t At) {
    if (L.empty() || L[0] == '#')
      return;
    if (L.compare(0, 7, "reject ") == 0) {
      R.fail("serve shed or rejected a job: " + L);
      unsigned long long Id = 0;
      if (sscanf(L.c_str(), "reject %llu", &Id) == 1 && Id < Jobs.size())
        finish(size_t(Id), At);
      return;
    }
    unsigned long long Id = 0;
    int Off = 0;
    if (sscanf(L.c_str(), "done %llu %n", &Id, &Off) != 1 || Id >= Jobs.size()) {
      R.fail("unexpected serve line: " + L);
      return;
    }
    size_t MsAt = L.rfind(" ms=");
    std::string Body = L.substr(size_t(Off), MsAt == std::string::npos
                                                 ? std::string::npos
                                                 : MsAt - size_t(Off));
    if (Body != Jobs[Id].Spec.Expected)
      R.fail(strFormat("job %llu (%s): got '%s', want '%s'", Id,
                       Jobs[Id].Spec.Line.c_str(), Body.c_str(),
                       Jobs[Id].Spec.Expected.c_str()));
    finish(size_t(Id), At);
  }

  void finish(size_t Id, uint64_t At) {
    Rec &Rc = Jobs[Id];
    if (Rc.Finished)
      return;
    Rc.Finished = true;
    Rc.Done = At;
    ++FinishedIn[Rc.Ph];
  }

  int InW, OutR;
  RunResult &R;
  std::string Pending, Line;
  /// Bytes written to the job pipe so far.
  size_t Queued = 0;
  /// (stream offset just past a job's line, job id), in send order: a job
  /// counts as sent once the pipe has taken its whole line.
  std::deque<std::pair<size_t, size_t>> Marks;
};

/// What one session measured.
struct SessionObs {
  double PrimingS = 0;
  double ClosedRate = 0;
  double OpenServiceS = 0;
  /// Session start to the end of its span recording (traced sessions).
  double WallS = 0;
  std::vector<double> OpenLatMs, LateMs;
  /// Serve's own queue wait and service time of the open-loop jobs.
  std::vector<double> OpenWaitMs, OpenServiceMs;
  ServeStats Stats;
  std::vector<JobSpec> Replayable; ///< Priming + open jobs, in send order.
};

/// Runs one serve session with the load generator on its own thread.
SessionObs runSession(JobStream &Stream, const Options &O, Tracer &T,
                      bool Tracing, RunResult &R) {
  SessionObs S;
  int InP[2], OutP[2];
  if (pipe2(InP, O_CLOEXEC) || pipe2(OutP, O_CLOEXEC)) {
    R.fail("pipe2 failed");
    return S;
  }
  FILE *In = fdopen(InP[0], "r");
  FILE *Out = fdopen(OutP[1], "w");
  ServeOptions SO;
  SO.Workers = Workers;
  SO.QueueCap = 1 << 16; // Admission must never shed in this mix.
  SO.DiskCache = false;
  SO.CacheDir.clear();
  SO.FaultSeed = 0;
  std::vector<JobSpec> OpenDeck = Stream.phase(openJobs(O), OpenBurst);
  std::vector<JobSpec> ClosedDeck =
      Stream.phase(closedJobs(O), closedJobs(O));
  size_t OpenJobs = OpenDeck.size(), ClosedJobs = ClosedDeck.size();
  uint64_t Interval = uint64_t(1e9 * OpenBurst / ServeRate);
  // The scheduled send time of open-loop job K: its burst's start.
  auto Due = [&](uint64_t OpenStart, size_t K) {
    return OpenStart + K / OpenBurst * Interval;
  };

  LoadGen G(InP[1], OutP[0], R);
  uint64_t T0 = nowNs();
  std::thread Gen([&] {
    constexpr uint64_t Ms = 1000000ull, PhaseLimit = 60000 * Ms;
    auto WaitPhase = [&](Phase Ph) {
      uint64_t Limit = nowNs() + PhaseLimit;
      while (G.FinishedIn[Ph] < G.SentIn[Ph] && !G.Eof && nowNs() < Limit)
        G.pump(nowNs() + 10 * Ms);
    };
    for (JobSpec &J : Stream.distinctPopular()) {
      S.Replayable.push_back(J);
      G.submit(std::move(J), Priming, T0);
    }
    WaitPhase(Priming);
    uint64_t LastPrime = T0;
    for (const LoadGen::Rec &Rc : G.Jobs)
      LastPrime = std::max(LastPrime, Rc.Done);
    S.PrimingS = double(LastPrime - T0) / 1e9;

    uint64_t OpenStart = nowNs();
    uint64_t OpenLimit = Due(OpenStart, OpenJobs) + PhaseLimit;
    for (size_t K = 0; K < OpenJobs || G.FinishedIn[Open] < G.SentIn[Open];) {
      uint64_t Now = nowNs();
      while (K < OpenJobs && Due(OpenStart, K) <= Now) {
        S.Replayable.push_back(OpenDeck[K]);
        G.submit(OpenDeck[K], Open, Due(OpenStart, K));
        ++K;
      }
      if (G.Eof || Now > OpenLimit)
        break;
      G.pump(K < OpenJobs ? Due(OpenStart, K) : Now + 10 * Ms);
    }

    // A fixed job count, not a fixed duration: the session's work (and
    // with it the number of new modules compiled) does not depend on speed.
    uint64_t ClosedStart = nowNs();
    uint64_t ClosedLimit = ClosedStart + PhaseLimit;
    while (G.FinishedIn[Closed] < ClosedJobs && !G.Eof &&
           nowNs() < ClosedLimit) {
      while (G.SentIn[Closed] < ClosedJobs &&
             G.SentIn[Closed] - G.FinishedIn[Closed] < ClosedWindow)
        G.submit(ClosedDeck[G.SentIn[Closed]], Closed, nowNs());
      G.pump(nowNs() + 10 * Ms);
    }
    uint64_t ClosedEnd = ClosedStart;
    for (const LoadGen::Rec &Rc : G.Jobs)
      if (Rc.Ph == Closed)
        ClosedEnd = std::max(ClosedEnd, Rc.Done);
    S.ClosedRate = double(G.FinishedIn[Closed]) /
                   (double(ClosedEnd - ClosedStart) / 1e9);

    G.shutdown();
    uint64_t Limit = nowNs() + PhaseLimit;
    while (!G.Eof && nowNs() < Limit)
      G.pump(nowNs() + 10 * Ms);
  });
  S.Stats = runServe(In, Out, SO);
  fclose(Out); // EOF on the protocol pipe ends the generator's read loop.
  Gen.join();
  G.closeIn();
  fclose(In);
  close(OutP[0]);

  R.Attempted += G.Jobs.size();
  for (size_t Id = 0; Id < G.Jobs.size(); ++Id) {
    const LoadGen::Rec &Rc = G.Jobs[Id];
    if (!Rc.Finished) {
      R.fail("job lost: " + Rc.Spec.Line);
      continue;
    }
    if (Tracing) {
      uint64_t Load = T.newLoad();
      uint64_t JobSpan = T.newId();
      T.span("loadgen.send", Rc.Scheduled, std::max(Rc.Sent, Rc.Scheduled),
             JobSpan, Load);
      T.spanWithId(JobSpan, "serve.job", Rc.Scheduled, Rc.Done, 0, Load);
    }
    if (Rc.Ph != Open)
      continue;
    S.OpenLatMs.push_back(double(Rc.Done - Rc.Scheduled) / 1e6);
    S.LateMs.push_back(double(Rc.Sent > Rc.Scheduled ? Rc.Sent - Rc.Scheduled
                                                     : 0) /
                       1e6);
    // Serve accepts in send order, so the job id is its acceptance index.
    // Its latency starts at admission, after the reader's static precheck,
    // so latency minus service time is the wait in serve's queue only.
    if (Id < S.Stats.ServiceMs.size()) {
      S.OpenServiceS += S.Stats.ServiceMs[Id] / 1e3;
      S.OpenServiceMs.push_back(S.Stats.ServiceMs[Id]);
      S.OpenWaitMs.push_back(S.Stats.LatenciesMs[Id] - S.Stats.ServiceMs[Id]);
    }
  }
  if (S.Stats.Rejected)
    R.fail(strFormat("serve rejected %llu job(s)",
                     (unsigned long long)S.Stats.Rejected));
  S.WallS = double(nowNs() - T0) / 1e9;
  return S;
}

/// Single-threaded replay of a session's priming and open-loop jobs through
/// the layers a serve worker uses: one shared compile cache, one instance
/// pool, one warm governed engine per configuration.
void replaySession(const std::vector<JobSpec> &Jobs, RunResult &R, Tracer &T,
                   Acc &A) {
  CompileCache Cache;
  InstancePool Pool;
  std::map<size_t, std::unique_ptr<Engine>> Engines;
  std::set<const BenchModule *> SeenModule;
  std::set<std::pair<const BenchModule *, size_t>> SeenPair;
  for (const JobSpec &J : Jobs) {
    std::unique_ptr<Engine> &E = Engines[J.Cfg];
    uint64_t Load = T.newLoad();
    uint64_t JobSpan = T.newId(), LoadSpan = T.newId();
    uint64_t T0 = nowNs();
    if (!E) {
      EngineConfig C = pinnedConfig(Configs[J.Cfg]);
      C.UseCompileCache = true;
      C.PoolInstances = true;
      C.Interruptible = true;
      E = std::make_unique<Engine>(C, &Cache, &Pool);
      installGcHostFuncs(*E);
      uint64_t T1 = nowNs();
      T.span("engine.construct", T0, T1, JobSpan, Load);
      A["engine.construct_ns"] += double(T1 - T0);
    }
    const std::vector<uint8_t> &Bytes = J.Mod->Bytes;
    // Serve's reader analyzes each module once (static precheck memo),
    // outside the worker's load.
    if (SeenModule.insert(J.Mod).second) {
      WasmError Err;
      std::unique_ptr<Module> M = decodeModule(Bytes, &Err);
      if (M && validateModule(*M, &Err)) {
        uint64_t S0 = nowNs();
        (void)analyzeModule(*M);
        uint64_t S1 = nowNs();
        T.span("analysis.module", S0, S1, JobSpan, Load);
        A["analysis.module_ns"] += double(S1 - S0);
      }
    }
    uint64_t K0 = nowNs();
    (void)moduleCacheKey(Bytes);
    uint64_t K1 = nowNs();
    T.span("cache.key", K0, K1, LoadSpan, Load);
    A["cache.key_ns"] += double(K1 - K0);
    uint64_t Attributed = K1 - K0;

    E->setGovernance(Fuel, 0);
    std::vector<uint8_t> Copy = Bytes;
    WasmError Err;
    uint64_t L0 = nowNs();
    std::unique_ptr<LoadedModule> LM = E->load(std::move(Copy), &Err);
    uint64_t L1 = nowNs();
    T.spanWithId(LoadSpan, "engine.load", L0, L1, JobSpan, Load);
    ++R.Attempted;
    if (!LM) {
      R.fail("replay load failed: " + J.Line + ": " + Err.Message);
      continue;
    }
    A["engine.load_ns"] += double(L1 - L0);
    A["cache.hits"] += double(LM->Stats.CacheHits);
    A["cache.misses"] += double(LM->Stats.CacheMisses);
    A["runtime.pool_hits"] += double(LM->Stats.PoolHits);
    A["runtime.pool_misses"] += double(LM->Stats.PoolMisses);
    // First contact of a (module, config): what the cache misses cost.
    if (SeenPair.insert({J.Mod, J.Cfg}).second)
      Attributed +=
          replayLoad(*E, *LM, Bytes, ReplayPlan(), T, LoadSpan, Load, A);
    A["engine.load_unattributed_ns"] += double(L1 - L0) - double(Attributed);

    ExecCounters Before = execCounters(*E);
    std::vector<Value> Out;
    uint64_t I0 = nowNs();
    TrapReason Trap = E->invoke(*LM, J.Mod->Invoke, {}, &Out);
    uint64_t I1 = nowNs();
    T.span("engine.invoke", I0, I1, JobSpan, Load);
    A["engine.invoke_ns"] += double(I1 - I0);
    addExecCounters(execCounters(*E), Before, A);
    if (renderOutcome(Trap, Out) != J.Expected)
      R.fail("replay outcome mismatch: " + J.Line);
    // The reimage a later pool hit of this module pays.
    if (LM->Image) {
      uint64_t R0 = nowNs();
      LM->Inst = reimageInstance(std::move(LM->Inst), *LM->M, *LM->Image,
                                 E->hosts(), &E->heap(), &Err);
      uint64_t R1 = nowNs();
      T.span("runtime.reimage", R0, R1, JobSpan, Load);
      A["runtime.reimage_ns"] += double(R1 - R0);
    }
    if (LM->Inst)
      E->recycle(std::move(LM));
    T.spanWithId(JobSpan, "job", T0, nowNs(), 0, Load);
  }
  A["cache.hit_ratio"] =
      A["cache.hits"] / std::max(1.0, A["cache.hits"] + A["cache.misses"]);
}

} // namespace

RunResult runServeMix(const Options &O, const Oracle &Or, Tracer &T) {
  namespace fs = std::filesystem;
  RunResult R;
  signal(SIGPIPE, SIG_IGN);
  std::vector<BenchModule> M0 = suiteModules(Or, /*M0=*/true, 1, &R);
  std::vector<BenchModule> Full = suiteModules(Or, /*M0=*/false, 1, &R);
  // The new modules of one session. Sessions are independent (fresh
  // caches), so each uses the same ones.
  std::vector<BenchModule> Gen = generatedModules(
      O.Seed ^ 0x5e7e,
      openJobs(O) / NewModuleEvery + closedJobs(O) / NewModuleEvery, &R);
  std::string GenDir = O.WorkDir + "/serve-gen";
  std::error_code EC;
  fs::create_directories(GenDir, EC);
  std::vector<std::string> GenPaths;
  for (size_t I = 0; I < Gen.size(); ++I) {
    GenPaths.push_back(strFormat("%s/%zu.wasm", GenDir.c_str(), I));
    FILE *F = fopen(GenPaths.back().c_str(), "wb");
    if (!F || fwrite(Gen[I].Bytes.data(), 1, Gen[I].Bytes.size(), F) !=
                  Gen[I].Bytes.size()) {
      R.fail("cannot write " + GenPaths.back());
    }
    if (F)
      fclose(F);
  }

  std::vector<SessionObs> Obs;
  for (unsigned I = 0; I < Sessions; ++I) {
    JobStream Stream(M0, Full, Gen, GenPaths,
                     O.Seed * 0x9E3779B97F4A7C15ull + I);
    Obs.push_back(runSession(Stream, O, T, O.Trace && I % 2 == 1, R));
  }
  fs::remove_all(GenDir, EC);

  // Every figure but the open-loop latency percentiles is a median over
  // sessions, so a burst of interference from outside the process moves
  // one session, not the run. p50_ms and p99_ms are taken over every
  // session's open-loop jobs together: in runs of one seed each, their
  // spread was half to two thirds that of the median of the sessions'.
  std::vector<double> Setup, Rate, Exec, P50, P99, Late99, Untraced, Traced;
  std::vector<double> OpenLat;
  std::vector<double> QW50, QW99, SV50, SV99;
  uint64_t Shed = 0;
  for (unsigned I = 0; I < Obs.size(); ++I) {
    const SessionObs &S = Obs[I];
    Setup.push_back(S.PrimingS);
    (O.Trace && I % 2 == 1 ? Traced : Untraced).push_back(S.WallS);
    Rate.push_back(S.ClosedRate);
    Exec.push_back(S.OpenServiceS);
    P50.push_back(percentile(S.OpenLatMs, 0.50));
    P99.push_back(percentile(S.OpenLatMs, 0.99));
    Late99.push_back(percentile(S.LateMs, 0.99));
    OpenLat.insert(OpenLat.end(), S.OpenLatMs.begin(), S.OpenLatMs.end());
    QW50.push_back(percentile(S.OpenWaitMs, 0.50));
    QW99.push_back(percentile(S.OpenWaitMs, 0.99));
    SV50.push_back(percentile(S.OpenServiceMs, 0.50));
    SV99.push_back(percentile(S.OpenServiceMs, 0.99));
    Shed += S.Stats.Rejected;
  }
  R.Metrics["setup_s"] = median(Setup);
  R.Metrics["exec_s"] = median(Exec);
  R.Metrics["p50_ms"] = percentile(OpenLat, 0.50);
  R.Metrics["p99_ms"] = percentile(OpenLat, 0.99);
  R.Metrics["jobs_per_s"] = median(Rate);
  R.Notes.push_back(strFormat("sessions=%zu", Obs.size()));
  R.Notes.push_back(strFormat("open_rate=%.1f", ServeRate));
  R.Notes.push_back(strFormat("latency_samples=%zu", OpenLat.size()));
  R.Notes.push_back(strFormat("loadgen_late_ms_p99=%.4f", median(Late99)));
  for (unsigned I = 0; I < Obs.size(); ++I)
    R.Notes.push_back(strFormat("session%u p50_ms=%.4f p99_ms=%.4f", I, P50[I],
                                P99[I]));
  if (!O.Trace)
    return R;

  R.Metrics["service.queue_wait_ms_p50"] = median(QW50);
  R.Metrics["service.queue_wait_ms_p99"] = median(QW99);
  R.Metrics["service.service_ms_p50"] = median(SV50);
  R.Metrics["service.service_ms_p99"] = median(SV99);
  R.Metrics["service.shed"] = double(Shed);
  R.Metrics["loadgen.late_ms_p99"] = median(Late99);
  // Replay session 0's deterministic part twice: the single-threaded
  // cache and pool counts must repeat exactly. Tracing costs the traced
  // sessions' span recording plus the traced replay.
  Acc A, B;
  uint64_t Replay0 = nowNs();
  replaySession(Obs[0].Replayable, R, T, A);
  R.Metrics["trace.overhead_s"] = median(Traced) - median(Untraced) +
                                  double(nowNs() - Replay0) / 1e9;
  Tracer Off;
  replaySession(Obs[0].Replayable, R, Off, B);
  for (const char *K : {"cache.hits", "cache.misses", "runtime.pool_hits",
                        "runtime.pool_misses", "spc.insts", "interp.ir_bytes",
                        "interp.steps", "interp.threaded_steps",
                        "machine.jit_cycles"})
    if (A[K] != B[K])
      R.Nondeterministic.push_back(
          strFormat("serve replay: %s %.17g != %.17g", K, B[K], A[K]));
  for (auto &KV : A)
    R.Metrics[KV.first] = KV.second;
  double LoadNs = A["engine.load_ns"];
  R.Metrics["engine.load_unattributed_share"] =
      LoadNs > 0 ? A["engine.load_unattributed_ns"] / LoadNs : 0;
  return R;
}

} // namespace perfbench

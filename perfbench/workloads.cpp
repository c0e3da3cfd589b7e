//===- perfbench/workloads.cpp - cold_start, disk_restart, steady_exec ----===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// The three in-process workloads. Each runs one job per (module, config):
// a fresh Engine, Engine::load, Engine::invoke — the paper's one-VM-per-
// item methodology — repeated in passes until the run's time is up, and
// reports medians over passes. Untraced passes give the end-to-end
// metrics; in a traced run every other pass is traced (spans plus layer
// replays), so the traced-minus-untraced pass wall time is the tracing
// overhead measured inside one process.
//
//===----------------------------------------------------------------------===//

#include "perfbench.h"

#include "engine/registry.h"
#include "support/format.h"
#include "support/rng.h"

#include <algorithm>
#include <filesystem>
#include <set>

using namespace wisp;

namespace perfbench {

namespace {

/// Counts that must repeat exactly between repetitions of the same inputs.
const std::set<std::string> &deterministicKeys() {
  static const std::set<std::string> Keys = {
      "wasm.code_bytes", "spc.insts",          "spc.tag_stores",
      "twopass.insts",   "copypatch.insts",    "opt.insts",
      "interp.ir_bytes", "interp.steps",       "interp.threaded_steps",
      "machine.jit_cycles", "verify.findings", "disk.hits",
      "disk.misses",     "disk.rejected",      "cache.hits",
      "cache.misses",    "runtime.pool_hits",  "runtime.pool_misses",
      "engine.tiered_funcs", "cycles_geomean", "code_kinsts"};
  return Keys;
}

/// Checks every deterministic key of \p Passes against the first pass.
void checkDeterministic(const char *What, const std::vector<Acc> &Passes,
                        RunResult &R) {
  for (size_t P = 1; P < Passes.size(); ++P)
    for (const std::string &K : deterministicKeys()) {
      auto A = Passes[0].find(K), B = Passes[P].find(K);
      double VA = A == Passes[0].end() ? 0 : A->second;
      double VB = B == Passes[P].end() ? 0 : B->second;
      if (VA != VB)
        R.Nondeterministic.push_back(strFormat("%s pass %zu: %s %.17g != %.17g",
                                               What, P, K.c_str(), VB, VA));
    }
}

/// One (module, config) pair of a pass.
struct Job {
  const BenchModule *Mod;
  size_t Cfg;
};

/// What one job observed.
struct JobObs {
  uint64_t CtorNs = 0, LoadNs = 0, InvokeNs = 0;
  LoadStats Stats;
  uint64_t Cycles = 0;
  uint64_t DiskRejected = 0;
  std::string Outcome;
};

/// Runs one job in a fresh engine and checks its outcome against the
/// oracle. With \p Layers set the job is traced: spans around the engine
/// calls, then the load replayed through the layer functions per \p Plan.
JobObs runJob(const EngineConfig &Cfg, const BenchModule &Mod,
              CompileCache *Cache, RunResult &R, Tracer &T, Acc *Layers,
              const ReplayPlan &Plan) {
  JobObs J;
  ++R.Attempted;
  uint64_t T0 = nowNs();
  Engine E(Cfg, Cache);
  uint64_t T1 = nowNs();
  std::vector<uint8_t> Bytes = Mod.Bytes;
  WasmError Err;
  uint64_t T2 = nowNs();
  std::unique_ptr<LoadedModule> LM = E.load(std::move(Bytes), &Err);
  uint64_t T3 = nowNs();
  J.CtorNs = T1 - T0;
  J.LoadNs = T3 - T2;
  if (!LM) {
    R.fail(strFormat("%s on %s: load failed: %s", Mod.Name.c_str(),
                     Cfg.Name.c_str(), Err.Message.c_str()));
    return J;
  }
  J.Stats = LM->Stats;
  std::vector<Value> Out;
  uint64_t T4 = nowNs();
  TrapReason Trap = E.invoke(*LM, Mod.Invoke, {}, &Out);
  uint64_t T5 = nowNs();
  J.InvokeNs = T5 - T4;
  J.Cycles = E.thread().modeledCycles();
  J.Outcome = exactOutcome(Trap, Out);
  if (E.disk())
    J.DiskRejected = E.disk()->totals().Rejected;
  if (J.Outcome != Mod.Expected)
    R.fail(strFormat("%s on %s: got '%s', want '%s'", Mod.Name.c_str(),
                     Cfg.Name.c_str(), J.Outcome.c_str(),
                     Mod.Expected.c_str()));
  if (!Layers)
    return J;

  Acc &A = *Layers;
  uint64_t LoadId = T.newLoad();
  uint64_t JobSpan = T.newId(), LoadSpan = T.newId();
  T.span("engine.construct", T0, T1, JobSpan, LoadId);
  T.spanWithId(LoadSpan, "engine.load", T2, T3, JobSpan, LoadId);
  T.span("engine.invoke", T4, T5, JobSpan, LoadId);
  uint64_t Attributed =
      replayLoad(E, *LM, Mod.Bytes, Plan, T, LoadSpan, LoadId, A);
  T.spanWithId(JobSpan, "job", T0, T5, 0, LoadId);
  A["engine.construct_ns"] += double(J.CtorNs);
  A["engine.load_ns"] += double(J.LoadNs);
  A["engine.load_unattributed_ns"] += double(J.LoadNs) - double(Attributed);
  A["engine.invoke_ns"] += double(J.InvokeNs);
  addExecCounters(execCounters(E), ExecCounters{}, A);
  if (Cfg.Mode == ExecMode::Tiered)
    for (const FuncInstance &FI : LM->Inst->Funcs)
      A["engine.tiered_funcs"] += FI.UseJit ? 1 : 0;
  return J;
}

/// End-to-end observations of one untraced (or traced) pass.
struct PassObs {
  uint64_t SetupNs = 0, ExecNs = 0, WallNs = 0, Jobs = 0;
  std::vector<double> LatMs;
  std::vector<double> SetupByCfg;
  std::vector<double> Cycles;
  uint64_t CodeInsts = 0;
  /// Hash of every job's deterministic observations (outcome, code size,
  /// IR size, modeled cycles, cache and disk counts), compared across
  /// passes.
  KeyHasher Fingerprint;

  void add(const JobObs &J, size_t Cfg) {
    SetupNs += J.CtorNs + J.LoadNs;
    ExecNs += J.InvokeNs;
    ++Jobs;
    LatMs.push_back(double(J.CtorNs + J.LoadNs + J.InvokeNs) / 1e6);
    SetupByCfg[Cfg] += double(J.CtorNs + J.LoadNs);
    Cycles.push_back(double(J.Cycles));
    CodeInsts += J.Stats.CodeInsts;
    Fingerprint.bytes(J.Outcome.data(), J.Outcome.size());
    for (uint64_t V : {J.Stats.CodeInsts, uint64_t(J.Stats.IrBytes), J.Cycles,
                       J.Stats.CacheHits, J.Stats.CacheMisses,
                       J.Stats.DiskHits, J.Stats.DiskMisses, J.DiskRejected})
      Fingerprint.u64(V);
  }
};

/// Orders the jobs with a seeded shuffle: run order (and with it cache
/// and allocator state) varies with the seed, the job set does not.
std::vector<Job> shuffledJobs(const std::vector<BenchModule> &Mods,
                              size_t NumCfgs, uint64_t Seed) {
  std::vector<Job> Jobs;
  for (const BenchModule &M : Mods)
    for (size_t C = 0; C < NumCfgs; ++C)
      Jobs.push_back(Job{&M, C});
  Rng Rand(Seed ^ 0x5eed5eed5eedull);
  for (size_t I = Jobs.size(); I > 1; --I)
    std::swap(Jobs[I - 1], Jobs[Rand.below(I)]);
  return Jobs;
}

void checkFingerprints(const char *What, const std::vector<PassObs> &Passes,
                       RunResult &R) {
  for (size_t P = 1; P < Passes.size(); ++P)
    if (!(Passes[P].Fingerprint.key() == Passes[0].Fingerprint.key()))
      R.Nondeterministic.push_back(
          strFormat("%s pass %zu: per-job outcome/size/cycle/cache counts "
                    "differ from pass 0",
                    What, P));
}

/// Fills the end-to-end metrics (and the notes) common to every pass-based
/// workload from its untraced passes.
void reportPasses(const std::vector<PassObs> &Passes,
                  const std::vector<EngineConfig> &Cfgs, RunResult &R) {
  // A pass runs every job of the workload once, so its latency percentiles
  // describe the job mix; the run reports their median over passes. (The
  // tail of a pooled sample would sit on the fastest repetitions of the
  // few heaviest jobs, which swing far more between runs.)
  std::vector<double> Setup, Exec, Rate, P50, P99;
  std::vector<std::vector<double>> ByCfg(Cfgs.size());
  for (const PassObs &P : Passes) {
    Setup.push_back(double(P.SetupNs) / 1e9);
    Exec.push_back(double(P.ExecNs) / 1e9);
    Rate.push_back(double(P.Jobs) / (double(P.WallNs) / 1e9));
    P50.push_back(percentile(P.LatMs, 0.50));
    P99.push_back(percentile(P.LatMs, 0.99));
    for (size_t C = 0; C < Cfgs.size(); ++C)
      ByCfg[C].push_back(P.SetupByCfg[C] / 1e9);
  }
  R.Metrics["setup_s"] = median(Setup);
  R.Metrics["exec_s"] = median(Exec);
  R.Metrics["p50_ms"] = median(P50);
  R.Metrics["p99_ms"] = median(P99);
  R.Metrics["jobs_per_s"] = median(Rate);
  R.Notes.push_back(strFormat("passes=%zu", Passes.size()));
  R.Notes.push_back(strFormat("jobs_per_pass=%llu",
                              (unsigned long long)Passes[0].Jobs));
  for (size_t C = 0; C < Cfgs.size(); ++C)
    R.Notes.push_back(strFormat("setup_s[%s]=%.6f", Cfgs[C].Name.c_str(),
                                median(ByCfg[C])));
}

/// Adds the per-layer metrics of a traced run: medians over traced passes
/// plus the derived shares, the deterministic pass-level counts and the
/// tracing overhead.
void reportLayers(const std::vector<Acc> &Traced,
                  const std::vector<PassObs> &TracedPasses,
                  const std::vector<PassObs> &Untraced, RunResult &R) {
  std::vector<Acc> WithCounts = Traced;
  for (size_t P = 0; P < WithCounts.size(); ++P) {
    WithCounts[P]["cycles_geomean"] = geomean(TracedPasses[P].Cycles);
    WithCounts[P]["code_kinsts"] = double(TracedPasses[P].CodeInsts) / 1e3;
  }
  checkDeterministic("traced", WithCounts, R);
  Acc L = medianOf(WithCounts);
  for (auto &KV : L)
    if (R.Metrics.find(KV.first) == R.Metrics.end())
      R.Metrics[KV.first] = KV.second;
  double LoadNs = L["engine.load_ns"];
  R.Metrics["engine.load_unattributed_share"] =
      LoadNs > 0 ? L["engine.load_unattributed_ns"] / LoadNs : 0;
  // Whole passes: a traced pass's wall time includes its span recording
  // and layer replays.
  std::vector<double> TS, US;
  for (const PassObs &P : TracedPasses)
    TS.push_back(double(P.WallNs) / 1e9);
  for (const PassObs &P : Untraced)
    US.push_back(double(P.WallNs) / 1e9);
  R.Metrics["trace.overhead_s"] = median(TS) - median(US);
}

/// Runs fresh-engine passes over \p Mods x \p CfgNames (caches off) until
/// the run's time is up: the shared body of cold_start and steady_exec.
RunResult runFreshPasses(const char *What, const Options &O,
                         std::vector<BenchModule> Mods,
                         const std::vector<std::string> &CfgNames, Tracer &T,
                         RunResult R) {
  std::vector<EngineConfig> Cfgs;
  for (const std::string &N : CfgNames)
    Cfgs.push_back(pinnedConfig(N));
  std::vector<Job> Jobs = shuffledJobs(Mods, Cfgs.size(), O.Seed);
  ReplayPlan Plan;
  std::vector<PassObs> Untraced, TracedPasses;
  std::vector<Acc> Traced;
  uint64_t Deadline = nowNs() + uint64_t(O.Seconds * 1e9);
  for (unsigned Pass = 0;; ++Pass) {
    bool Tracing = O.Trace && Pass % 2 == 1;
    PassObs P;
    P.SetupByCfg.assign(Cfgs.size(), 0);
    Acc A;
    uint64_t Start = nowNs();
    for (const Job &J : Jobs)
      P.add(runJob(Cfgs[J.Cfg], *J.Mod, nullptr, R, T,
                   Tracing ? &A : nullptr, Plan),
            J.Cfg);
    P.WallNs = nowNs() - Start;
    (Tracing ? TracedPasses : Untraced).push_back(std::move(P));
    if (Tracing)
      Traced.push_back(std::move(A));
    if (nowNs() >= Deadline && !Untraced.empty() &&
        (!O.Trace || !Traced.empty()))
      break;
  }
  std::vector<PassObs> All = Untraced;
  All.insert(All.end(), TracedPasses.begin(), TracedPasses.end());
  checkFingerprints(What, All, R);
  reportPasses(Untraced, Cfgs, R);
  if (O.Trace)
    reportLayers(Traced, TracedPasses, Untraced, R);
  return R;
}

/// The cold_start / disk_restart module set: every suite item's m0
/// variant plus the seeded generated modules.
std::vector<BenchModule> setupModules(const Options &O, const Oracle &Or,
                                      RunResult &R) {
  // 24 generated modules (~240 KB of code) next to the 78 tiny m0 items:
  // enough that module size, not per-engine overhead, drives setup.
  constexpr size_t Generated = 24;
  std::vector<BenchModule> Mods = suiteModules(Or, /*M0=*/true, 1, &R);
  for (BenchModule &G : generatedModules(O.Seed, Generated, &R))
    Mods.push_back(std::move(G));
  return Mods;
}

} // namespace

RunResult runColdStart(const Options &O, const Oracle &Or, Tracer &T) {
  RunResult R;
  std::vector<BenchModule> Mods = setupModules(O, Or, R);
  return runFreshPasses("cold_start", O, std::move(Mods),
                        {"wizard-spc", "wazero", "wasm-now", "wasmtime",
                         "interp-threaded", "wizard-int"},
                        T, std::move(R));
}

RunResult runSteadyExec(const Options &O, const Oracle &Or, Tracer &T) {
  RunResult R;
  std::vector<BenchModule> Mods =
      suiteModules(Or, /*M0=*/false, SteadyScale, &R);
  return runFreshPasses("steady_exec", O, std::move(Mods),
                        {"wizard-spc", "wasm-now", "wasmtime",
                         "interp-threaded", "wizard-int", "wizard-tiered"},
                        T, std::move(R));
}

RunResult runDiskRestart(const Options &O, const Oracle &Or, Tracer &T) {
  namespace fs = std::filesystem;
  RunResult R;
  std::vector<BenchModule> Mods = setupModules(O, Or, R);
  std::vector<EngineConfig> Cfgs;
  for (const char *N : {"wizard-spc", "interp-threaded", "wasmtime"}) {
    EngineConfig C = pinnedConfig(N);
    C.UseCompileCache = true;
    C.UseDiskCache = true;
    Cfgs.push_back(C);
  }
  std::vector<Job> Jobs = shuffledJobs(Mods, Cfgs.size(), O.Seed);
  // Reload passes per filled directory. A fill creates thousands of
  // artifact files and takes 2-9x as long as a reload, so each directory
  // serves several reloads, each one a fresh CompileCache and fresh
  // engines (a new process), and setup_s gets several samples per fill.
  constexpr unsigned Reloads = 4;
  std::vector<PassObs> Untraced, TracedPasses;
  std::vector<Acc> Traced;
  std::vector<double> StoreS;
  uint64_t Deadline = nowNs() + uint64_t(O.Seconds * 1e9);
  for (unsigned Iter = 0;; ++Iter) {
    bool Tracing = O.Trace && Iter % 2 == 1;
    std::string Dir = strFormat("%s/disk-%u", O.WorkDir.c_str(), Iter);
    std::string ReplayDir = Dir + "-replay";
    std::error_code EC;
    fs::remove_all(Dir, EC);
    fs::remove_all(ReplayDir, EC);
    std::unique_ptr<DiskCache> ReplayStore, ReplayRead;
    if (Tracing)
      ReplayStore = DiskCache::open(ReplayDir);
    Acc FillA;

    // Fill: a first process compiles, serializes and publishes every
    // artifact into the empty directory.
    uint64_t FillNs = 0, Stored = 0;
    {
      CompileCache Fill;
      ReplayPlan Plan;
      Plan.Decode = Plan.Compile = Plan.Instantiate = false;
      Plan.Serialize = true;
      Plan.SerializeTo = ReplayStore.get();
      for (const Job &J : Jobs) {
        EngineConfig C = Cfgs[J.Cfg];
        C.DiskCacheDir = Dir;
        JobObs Obs = runJob(C, *J.Mod, &Fill, R, T, Tracing ? &FillA : nullptr,
                            Plan);
        FillNs += Obs.CtorNs + Obs.LoadNs;
        Stored += Obs.Stats.DiskMisses;
      }
    }
    if (!Tracing)
      StoreS.push_back(double(FillNs) / 1e9);
    if (Tracing)
      ReplayRead = DiskCache::open(Dir);

    // Reload: a second process — a fresh in-process cache over the same
    // directory — admits every artifact from disk (re-verified). Only the
    // first reload of a traced fill is traced.
    for (unsigned Rep = 0; Rep < Reloads; ++Rep) {
      bool TracedPass = Tracing && Rep == 0;
      Acc A;
      PassObs P;
      P.SetupByCfg.assign(Cfgs.size(), 0);
      uint64_t Hits = 0, Misses = 0, Rejected = 0;
      CompileCache Reload;
      ReplayPlan Plan;
      Plan.Compile = false;
      Plan.Disk = true;
      Plan.DiskRead = ReplayRead.get();
      uint64_t Start = nowNs();
      for (const Job &J : Jobs) {
        EngineConfig C = Cfgs[J.Cfg];
        C.DiskCacheDir = Dir;
        JobObs Obs =
            runJob(C, *J.Mod, &Reload, R, T, TracedPass ? &A : nullptr, Plan);
        P.add(Obs, J.Cfg);
        Hits += Obs.Stats.DiskHits;
        Misses += Obs.Stats.DiskMisses;
        Rejected += Obs.DiskRejected;
        A["cache.hits"] += double(Obs.Stats.CacheHits);
        A["cache.misses"] += double(Obs.Stats.CacheMisses);
      }
      P.WallNs = nowNs() - Start;
      // A reload that compiles instead of reading from disk would read as
      // a faster setup_s, so every stored artifact must be served.
      if (Hits == 0 || Hits != Stored || Misses || Rejected)
        R.fail(strFormat("reload served %llu of %llu stored artifacts from "
                         "disk (%llu misses, %llu rejected)",
                         (unsigned long long)Hits, (unsigned long long)Stored,
                         (unsigned long long)Misses,
                         (unsigned long long)Rejected));
      if (!TracedPass) {
        Untraced.push_back(std::move(P));
        continue;
      }
      A["disk.hits"] = double(Hits);
      A["disk.misses"] = double(Misses);
      A["disk.rejected"] = double(Rejected);
      A["disk.serialize_ns"] = FillA["disk.serialize_ns"];
      A["disk.store_ns"] = FillA["disk.store_ns"];
      A["cache.hit_ratio"] =
          A["cache.hits"] / std::max(1.0, A["cache.hits"] + A["cache.misses"]);
      Traced.push_back(std::move(A));
      TracedPasses.push_back(std::move(P));
    }
    fs::remove_all(Dir, EC);
    fs::remove_all(ReplayDir, EC);
    if (nowNs() >= Deadline && !Untraced.empty() &&
        (!O.Trace || !Traced.empty()))
      break;
  }
  std::vector<PassObs> All = Untraced;
  All.insert(All.end(), TracedPasses.begin(), TracedPasses.end());
  checkFingerprints("disk_restart", All, R);
  reportPasses(Untraced, Cfgs, R);
  R.Notes.push_back(strFormat("store_s=%.6f", median(StoreS)));
  if (O.Trace) {
    reportLayers(Traced, TracedPasses, Untraced, R);
    // The write side is timed on untraced fills like every other time.
    R.Metrics["store_s"] = median(StoreS);
  }
  return R;
}

} // namespace perfbench

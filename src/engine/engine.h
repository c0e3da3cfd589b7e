//===- engine/engine.h - the wisp engine facade -----------------*- C++ -*-===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine facade: loads modules through a configurable pipeline
/// (decode, validate, compile per execution mode), runs them through the
/// tier dispatcher, implements the tiering hooks (hot-function compilation,
/// OSR tier-up, deopt tier-down), dispatches probes, and scans GC roots via
/// value tags or stackmaps. Engine configurations model the execution tiers
/// of the paper's Figure 10.
///
//===----------------------------------------------------------------------===//

#ifndef WISP_ENGINE_ENGINE_H
#define WISP_ENGINE_ENGINE_H

#include "cache/compilecache.h"
#include "engine/run.h"
#include "instr/registry.h"
#include "interp/predecode.h"
#include "machine/isa.h"
#include "runtime/gcheap.h"
#include "runtime/hooks.h"
#include "spc/options.h"
#include "wasm/module.h"

#include <memory>
#include <string>

namespace wisp {

class DiskCache;

/// How a configuration executes Wasm code.
enum class ExecMode : uint8_t {
  Interp,  ///< Interpreter only.
  Jit,     ///< Compile everything eagerly at load time.
  JitLazy, ///< Compile each function on its first invocation.
  Tiered,  ///< Start interpreted; tier up hot functions (incl. OSR).
};

/// Which compiler pipeline a JIT configuration uses.
enum class CompilerKind : uint8_t {
  SinglePass, ///< The paper's abstract-interpretation baseline (Wizard-SPC
              ///< and the Liftoff/SpiderMonkey/wasmer-shaped presets).
  TwoPass,    ///< wazero-shaped: build a listing IR, then emit (slower).
  CopyPatch,  ///< WasmNow-shaped: pre-built templates, patched per opcode.
  Optimizing, ///< IR-based optimizing compiler (TurboFan/Cranelift-shaped).
};

/// A complete engine configuration.
struct EngineConfig {
  std::string Name = "wizard-spc";
  ExecMode Mode = ExecMode::Jit;
  CompilerKind Compiler = CompilerKind::SinglePass;
  CompilerOptions Opts;
  bool Validate = true; ///< wasm3 famously does not validate.
  /// Interpreter frames run on the threaded-dispatch tier: function bodies
  /// are pre-decoded at load time into threaded IR (computed-goto dispatch,
  /// pre-resolved branches, superinstructions). Applies to Interp and
  /// Tiered modes; ignored by pure JIT modes. Fusion is automatically
  /// disabled when deopt checkpoints are emitted, because a deopt may
  /// resume at any opcode boundary.
  bool ThreadedDispatch = false;
  uint32_t TierUpThreshold = 256; ///< Tiered mode hotness threshold.
  uint32_t StackSlots = 1u << 16;
  /// Use the content-addressed compile cache (src/cache/): repeated loads
  /// of content-identical modules/bodies under an identical configuration
  /// reuse decoded modules, compiled MCode and pre-decoded threaded IR
  /// instead of rebuilding them. Engines default to the process-wide
  /// cache; the batch runner shares one cache across its worker pool.
  /// Probed bodies always bypass the cache. Disable with
  /// `wisp --no-compile-cache` (measurement runs want cold-start costs).
  bool UseCompileCache = true;
  /// Root directory of the persistent on-disk artifact cache
  /// (cache/diskcache.h): the second level below the in-process compile
  /// cache, so a repeat workload in a *new* process skips the compile
  /// pipeline. Empty (the default) falls back to the WISP_CACHE_DIR
  /// environment variable; if that is unset too, no disk level is opened.
  /// Requires UseCompileCache (the disk level sits behind the process
  /// level). Set via `wisp --cache-dir=DIR`.
  std::string DiskCacheDir;
  /// Gate for the disk level: with false the engine never reads or writes
  /// disk artifacts even when a directory is configured. Disable with
  /// `wisp --no-disk-cache` (cold-start measurement in a warm directory).
  bool UseDiskCache = true;
  /// Use the instantiation fast path: derive (and cache) an InstanceImage
  /// per module — globals pre-evaluated, element segments pre-resolved,
  /// data segments pre-imaged — so instantiation is a handful of memcpys
  /// instead of segment replay, and recycle retired instances through an
  /// InstancePool (re-imaged in place, dirty-bounded) instead of
  /// reallocating. Modules that import globals are not imageable (their
  /// initial state depends on the link environment) and silently take the
  /// legacy path. Disable with `wisp --no-instance-pool`.
  bool PoolInstances = true;
  /// Statically verify every artifact this engine builds (src/verify/):
  /// compiled MCode and pre-decoded threaded IR are translation-validated
  /// against the wasm body before installation. Cached artifacts are
  /// verified once, inside the insert-time builder, so cache hits stay
  /// free. A rejected artifact never runs: eager loads fail with
  /// "artifact verification failed", lazy/tier-up paths stay on the
  /// interpreter, and verifyError() carries the findings either way.
  /// Defaults on in Debug builds; the differential fuzzer forces it on;
  /// opt-in elsewhere via `wisp --verify`.
#ifdef NDEBUG
  bool VerifyArtifacts = false;
#else
  bool VerifyArtifacts = true;
#endif

  // --- Execution governance (service mode; see DESIGN.md) ---
  /// Fuel budget per invocation: deterministic, tier-independent count of
  /// semantic events (frame pushes + loop-header arrivals). Exhaustion
  /// traps with FuelExhausted at the identical bytecode pc on every tier.
  /// 0 = unmetered.
  uint64_t FuelBudget = 0;
  /// Wall-clock deadline per invocation in milliseconds; expiry traps
  /// with DeadlineExceeded at the next governance check. 0 = none.
  uint32_t DeadlineMs = 0;
  /// Honor asynchronous interrupts (Engine::cancel) even without fuel or
  /// a deadline. Implied by FuelBudget/DeadlineMs.
  bool Interruptible = false;
  /// Maximum wasm call depth (frames); CallStackExhausted beyond it.
  /// 0 = the Thread default (4096).
  uint32_t MaxCallDepth = 0;
  /// Runtime cap on linear-memory pages per job: loads whose declared
  /// minimum exceeds it fail, memory.grow beyond it returns -1.
  /// 0 = the architectural 65536-page limit only.
  uint32_t MaxMemoryPages = 0;
  /// Cap on table element counts at instantiation. 0 = unlimited.
  uint32_t MaxTableElems = 0;

  /// True when any per-invocation governance is configured.
  bool governed() const {
    return FuelBudget != 0 || DeadlineMs != 0 || Interruptible;
  }

  /// Whether the value stack needs a tag lane.
  bool wantsTagLane() const {
    if (Mode != ExecMode::Jit && Mode != ExecMode::JitLazy)
      return true; // Interpreter tiers always maintain tags.
    return Opts.Tags != TagMode::None && Opts.Tags != TagMode::StackMap;
  }
};

/// Per-load measurements (the paper's setup-time methodology). Derives
/// the compile-cache counters CacheHits / CacheMisses / CacheSavedNs from
/// CacheStats (cache/compilecache.h).
struct LoadStats : CacheStats {
  uint64_t DecodeNs = 0;
  uint64_t ValidateNs = 0;
  uint64_t CompileNs = 0;
  uint64_t InstantiateNs = 0;
  /// Threaded-IR pre-decode time (threaded-dispatch configurations only).
  /// Counted into TotalSetupNs so total-cost comparisons stay honest.
  uint64_t PredecodeNs = 0;
  uint64_t TotalSetupNs = 0;
  size_t ModuleBytes = 0;
  size_t CodeBytes = 0; ///< Function body bytes (compile-speed denominator).
  uint64_t CodeInsts = 0;
  uint64_t TagStores = 0;
  uint64_t StackMapBytes = 0;
  /// Bytes of pre-decoded threaded IR (SQ-space cost of the threaded tier).
  size_t IrBytes = 0;
  /// Instance-pool accounting: a hit means this load re-imaged a retired
  /// instance in place; a miss means pooling was on and imageable but no
  /// retired instance was available (a fresh image instantiation was
  /// paid). Loads outside the fast path (pool off, module not imageable)
  /// count neither.
  uint64_t PoolHits = 0;
  uint64_t PoolMisses = 0;
};

/// A loaded, instantiated module plus its compiled code.
///
/// Compiled artifacts are held through shared, immutable handles: a body
/// served from the compile cache is the same MCode/ThreadedCode object in
/// every module (and every engine) that loaded it, and an artifact stays
/// alive as long as any loaded module (or the cache) still references it.
class LoadedModule {
public:
  /// Decoded + validated module; shared with the compile cache and with
  /// any other LoadedModule of the same bytes. Immutable after load.
  std::shared_ptr<const Module> M;
  std::unique_ptr<Instance> Inst;
  std::vector<std::shared_ptr<const MCode>> Codes;
  /// Pre-decoded threaded IR bodies. Append-only: probe attachment
  /// re-predecodes (fusion must be suppressed at probed offsets) and
  /// running frames may still reference the superseded IR until their next
  /// observation point.
  std::vector<std::shared_ptr<const ThreadedCode>> TCodes;
  LoadStats Stats;
  /// moduleContextDigest(*M), memoized on first cached compile.
  uint64_t ContextDigest = 0;
  /// The module's instance image (shared through the compile cache), or
  /// null when the fast path was off or the module is not imageable.
  /// Engine::recycle() requires it: only imaged instances are poolable.
  std::shared_ptr<const InstanceImage> Image;
};

/// A pool of retired instances, keyed by module identity (valid because
/// the compile cache shares decoded Module objects across loads of
/// content-identical bytes; uncached loads get distinct Module objects
/// and simply never hit). Entries pin their Module and image through
/// shared handles, so a pool may outlive the engines that fed it — the
/// batch runner keeps one per worker across jobs. Single-threaded, like
/// the engines that own or borrow it.
class InstancePool {
public:
  struct Entry {
    std::shared_ptr<const Module> M;
    std::shared_ptr<const InstanceImage> Image;
    std::unique_ptr<Instance> Inst;
  };

  /// Retired instances kept per module; beyond this, put() drops the
  /// instance (bounding pool memory at MaxPerModule minimum memories).
  static constexpr size_t MaxPerModule = 8;

  struct Totals {
    uint64_t Hits = 0;     ///< take() served a retired instance.
    uint64_t Misses = 0;   ///< take() had nothing for the module.
    uint64_t Returned = 0; ///< Instances accepted by put().
    uint64_t Dropped = 0;  ///< Instances rejected (per-module cap).
  };

  /// Takes a retired instance of \p M, or an empty entry.
  Entry take(const Module *M);
  /// Returns a retired instance; drops it beyond the per-module cap.
  void put(std::shared_ptr<const Module> M,
           std::shared_ptr<const InstanceImage> Image,
           std::unique_ptr<Instance> Inst);

  size_t size() const { return Count; }
  const Totals &totals() const { return T; }

private:
  std::map<const Module *, std::vector<Entry>> Map;
  size_t Count = 0;
  Totals T;
};

/// The engine. Implements EngineHooks for probes and tiering.
///
/// Thread-safety contract (the batch service in src/service/ is built on
/// it; audited for the parallel batch runner):
///
///  - An Engine is single-threaded. It owns all of its mutable state —
///    host registry, probe registry, GC heap, the execution Thread, and
///    every LoadedModule it returns (modules hold FuncInstance hotness
///    counters and code pointers the engine mutates while running). One
///    engine, its thread, and its modules must only ever be touched from
///    one OS thread at a time.
///  - *Distinct* Engine instances are fully independent: any number may
///    load, compile, instrument and run concurrently on different
///    threads. The process-wide state they share is either immutable
///    after initialization and safe to race on first use — the opcode
///    tables (const magic static) and the copy-and-patch template cache
///    (built inside its magic-static initializer — see
///    baselines/copypatch.cpp; construction is serialized by the C++
///    runtime, reads are const) — or internally synchronized: the
///    compile cache (src/cache/compilecache.h) hands out shared
///    `shared_ptr<const T>` handles to artifacts that are immutable once
///    built, coordinates concurrent builds of the same key so each is
///    performed exactly once, and runs builders outside its lock.
///  - Module bytes passed to load() are copied; suite generators
///    (suites/suites.h) build fresh buffers per call and share nothing.
///
/// In short: share nothing mutable, one engine per worker, and any fan-out
/// (the wisp --batch worker pool, concurrent tests, future sharding) is
/// data-race-free by construction.
class Engine : public EngineHooks {
public:
  /// \p Cache selects the compile cache to share: nullptr (the default)
  /// means the process-wide cache when Cfg.UseCompileCache is set — pass
  /// a private CompileCache to scope sharing (the batch runner shares one
  /// per worker pool; tests isolate stats). With Cfg.UseCompileCache
  /// false the engine never touches any cache.
  /// \p Pool selects the instance pool recycle() feeds and load() draws
  /// from: nullptr means an engine-private pool when Cfg.PoolInstances is
  /// set — pass a longer-lived pool to recycle instances across engines
  /// (the batch runner keeps one per worker thread). With
  /// Cfg.PoolInstances false the engine never pools or images.
  explicit Engine(EngineConfig Cfg, CompileCache *Cache = nullptr,
                  InstancePool *Pool = nullptr);
  ~Engine() override;

  const EngineConfig &config() const { return Cfg; }
  /// The compile cache this engine consults, or nullptr when disabled.
  CompileCache *cache() const { return Cache; }
  HostRegistry &hosts() { return Hosts; }
  GcHeap &heap() { return Heap; }
  ProbeRegistry &probes() { return Probes; }
  Thread &thread() { return *T; }
  /// Last artifact-verification rejection (one finding per line), or empty
  /// if every artifact this engine built verified clean. Only populated
  /// when Cfg.VerifyArtifacts is set.
  const std::string &verifyError() const { return VerifyError; }
  /// The persistent artifact store this engine consults below the
  /// in-process cache, or nullptr when no directory is configured.
  DiskCache *disk() const { return Disk.get(); }
  /// Why the most recent disk artifact was rejected at load (damage,
  /// deserialization failure, or verifier findings — one per line), or
  /// empty. Diagnostic only: a rejected disk artifact is deleted and
  /// rebuilt, it never fails the load, so this is kept separate from
  /// verifyError() (which reports artifacts *this* engine built).
  const std::string &diskNote() const { return DiskNote; }

  /// The instance pool this engine recycles through, or nullptr.
  InstancePool *pool() const { return Pool; }

  /// Loads a module: decode, validate, instantiate, compile per mode.
  /// Fills timing statistics. Returns nullptr and \p Err on failure.
  std::unique_ptr<LoadedModule> load(std::vector<uint8_t> Bytes,
                                     WasmError *Err);

  /// Retires \p LM, returning its instance to the pool for a later load
  /// of the same module to re-image in place. Conservatively declines —
  /// destroying the module normally — when pooling is off, the module
  /// was not imaged, this engine has probes attached (instrumentation
  /// side state must not leak into an un-instrumented load), or the GC
  /// heap has live objects (they may reference the instance). Returns
  /// true when the instance was pooled.
  bool recycle(std::unique_ptr<LoadedModule> LM);

  /// Invokes an exported function. Runs lazy compilation if configured.
  /// Arms the configured governance (fuel budget, deadline watchdog) for
  /// the duration of the call.
  TrapReason invoke(LoadedModule &LM, const std::string &ExportName,
                    const std::vector<Value> &Args,
                    std::vector<Value> *Results);

  /// Requests cancellation of the invocation currently running on this
  /// engine's thread (traps with Cancelled at its next governance check).
  /// Safe to call from another OS thread — this is the one sanctioned
  /// cross-thread entry point; it only touches the interrupt atomic. A
  /// no-op unless the engine is configured governed().
  void cancel() {
    T->Interrupt.store(uint8_t(TrapReason::Cancelled),
                       std::memory_order_relaxed);
  }

  /// Serve mode: re-targets the per-invocation fuel budget and deadline on
  /// a warm engine between jobs. Only meaningful on an engine constructed
  /// governed (e.g. Interruptible set) — fuel-check emission into compiled
  /// artifacts is decided at construction and does not change here.
  void setGovernance(uint64_t FuelBudget, uint32_t DeadlineMs) {
    Cfg.FuelBudget = FuelBudget;
    Cfg.DeadlineMs = DeadlineMs;
  }

  /// Attaches a probe; recompiles or tiers down compiled functions so the
  /// probe is observed by all future execution.
  void addProbe(LoadedModule &LM, uint32_t FuncIdx, uint32_t Ip, Probe *P);

  /// Requests that all JIT frames of \p FuncIdx tier down at their next
  /// checkpoint and future calls run interpreted.
  void requestTierDown(LoadedModule &LM, uint32_t FuncIdx);

  /// Recompiles every already-compiled function so newly attached probes
  /// (e.g. from Monitor::attach) are observed; stale frames tier down at
  /// their next checkpoint.
  void reinstrument(LoadedModule &LM);

  /// Scans all live frames for externref roots (tags or stackmaps).
  std::vector<uint64_t> scanRoots();
  /// Runs a GC over the host-object heap using scanned roots.
  size_t collectGarbage();

  // --- EngineHooks ---
  void fireProbes(Thread &T, FuncInstance *Func, uint32_t Ip) override;
  void fireProbeTos(Thread &T, FuncInstance *Func, uint32_t Ip,
                    Value Tos) override;
  void onFuncHot(Thread &T, FuncInstance *Func) override;
  bool onLoopBackedge(Thread &T, FuncInstance *Func,
                      uint32_t TargetIp) override;

private:
  void compileAndInstall(FuncInstance *Func);
  /// (Re-)pre-decodes \p Func's body into threaded IR, honoring the
  /// current probe bitmap (fusion is suppressed at probed offsets).
  /// Returns false (installing nothing) when artifact verification
  /// rejects the IR.
  bool predecodeAndInstall(LoadedModule &LM, FuncInstance *Func);
  /// Verifies \p Code under \p Kind's scope when Cfg.VerifyArtifacts is
  /// set. On rejection records the findings in VerifyError and returns
  /// false.
  bool verifyMCodeArtifact(const Module &M, const FuncDecl &F,
                           const MCode &Code, CompilerKind Kind);
  /// Threaded-IR counterpart: checks \p TC against \p Func's probe bitmap.
  bool verifyThreadedArtifact(const Module &M, const FuncDecl &F,
                              const ThreadedCode &TC,
                              const FuncInstance *Func);
  /// Runs \p Kind's pipeline over \p F with this engine's probe oracle.
  std::unique_ptr<MCode> compileRaw(const Module &M, const FuncDecl &F,
                                    const CompilerOptions &Opts,
                                    CompilerKind Kind);
  /// Compiles \p F under \p Opts through the compile cache when usable
  /// (cache present, no probes attached anywhere in this engine), else
  /// fresh. Appends the handle to \p LM.Codes and updates LM.Stats.
  const MCode *compileShared(LoadedModule &LM, const FuncDecl &F,
                             const CompilerOptions &Opts, CompilerKind Kind);
  /// The cache is only consulted while this engine has no probes at all:
  /// probe sites compile against engine-local state (counter cells), so
  /// instrumented artifacts must never be inserted or served.
  bool cacheUsable() const { return Cache && !Probes.anyProbes(); }

  EngineConfig Cfg;
  CompileCache *Cache = nullptr;
  /// The on-disk second level, opened at construction when a directory is
  /// configured (Cfg.DiskCacheDir, else WISP_CACHE_DIR). Engine-private:
  /// cross-engine and cross-process coordination lives in the filesystem
  /// (atomic publish via rename), not in shared memory.
  std::unique_ptr<DiskCache> Disk;
  InstancePool *Pool = nullptr;
  /// Backing storage when no pool was injected but pooling is on.
  std::unique_ptr<InstancePool> OwnedPool;
  HostRegistry Hosts;
  GcHeap Heap;
  ProbeRegistry Probes;
  std::unique_ptr<Thread> T;
  /// Deadline watchdog thread, created lazily on the first deadline-armed
  /// invoke and reused for the engine's lifetime (serve workers keep warm
  /// engines, so the thread amortizes across jobs).
  std::unique_ptr<class Watchdog> Dog;
  LoadedModule *Current = nullptr; ///< Module served by hooks/invoke.
  std::string VerifyError;         ///< Last verification rejection.
  std::string DiskNote;            ///< Last disk-artifact rejection.
};

/// Installs the GC demo host functions (wisp.alloc/link/payload/collect)
/// used by tests and examples.
void installGcHostFuncs(Engine &E);

} // namespace wisp

#endif // WISP_ENGINE_ENGINE_H

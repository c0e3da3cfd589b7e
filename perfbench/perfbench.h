//===- perfbench/perfbench.h - shared benchmark harness types ---*- C++ -*-===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Types shared by the benchmark's workloads: the run options, the
/// per-run result (attempted/failed operations plus named metrics), the
/// module sets every workload draws from, the output oracle, per-pass
/// metric accumulators and the span tracer. The harness only calls wisp's
/// public API; see perfbench/README.md for the metric definitions.
///
//===----------------------------------------------------------------------===//

#ifndef WISP_PERFBENCH_PERFBENCH_H
#define WISP_PERFBENCH_PERFBENCH_H

#include "cache/diskcache.h"
#include "engine/engine.h"
#include "runtime/trap.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line options of one benchmark run.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Expected; ///< Path of the committed oracle file.
  std::string WorkDir;  ///< Scratch directory for cache dirs, traces, .wasm.
};

/// Suite scale of steady_exec's full runs: Engine::invoke is ~97% of the
/// workload's wall time there (setup ~0.017 s of a ~0.7 s pass on a 4-core
/// x86-64 box), while a pass stays short enough for a dozen passes per run.
/// serve_mix's full runs use scale 1; the oracle holds both scales.
constexpr int SteadyScale = 2;

/// What one run reports.
struct RunResult {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Deterministic counts that differed between repetitions of the same
  /// inputs inside this run (determinism guard); any entry fails the run.
  std::vector<std::string> Nondeterministic;
  /// Metric values by name; main.cpp owns the names, units and print order.
  std::map<std::string, double> Metrics;
  /// Free-form `key=value` notes printed to stderr (per-config breakdowns).
  std::vector<std::string> Notes;

  void fail(const std::string &Why);
};

/// Canonical rendering of an invocation outcome, identical to the body of
/// a serve-mode `done` line: "= <v>, <v>" or "trap: <reason>".
std::string renderOutcome(wisp::TrapReason Trap,
                          const std::vector<wisp::Value> &Results);

/// Exact (bit-level) rendering used by the committed oracle file.
std::string exactOutcome(wisp::TrapReason Trap,
                         const std::vector<wisp::Value> &Results);
/// Inverse of exactOutcome: rebuilds trap + values. False on bad text.
bool parseExactOutcome(const std::string &Text, wisp::TrapReason *Trap,
                       std::vector<wisp::Value> *Results);

/// A module the workloads load, with its entry point and expected outcome
/// (exactOutcome text).
struct BenchModule {
  std::string Name; ///< "polybench/2mm" or "gen/<index>".
  std::vector<uint8_t> Bytes;
  std::string Invoke = "run";
  std::string Expected;
};

/// The committed oracle: exact outcome per (item, variant), variant "m0"
/// or "s<scale>". Recorded from wizard-int, never a compiler under test.
class Oracle {
public:
  bool load(const std::string &Path, std::string *Err);
  /// Exact outcome text, or empty when the file has no entry.
  std::string lookup(const std::string &Item, const std::string &Variant) const;

private:
  std::map<std::string, std::string> Map;
};

/// Writes the oracle file for every suite item as m0, at scale 1 and at
/// SteadyScale by running wizard-int. Returns false on any I/O or run
/// failure.
bool recordOracle(const std::string &Path);

/// Suite items as BenchModules: m0 variants (\p M0) or full runs at
/// \p Scale, each carrying its oracle entry. Missing entries fail \p R.
std::vector<BenchModule> suiteModules(const Oracle &O, bool M0, int Scale,
                                      RunResult *R);

/// Seeded generated modules (RandWasm on an enlarged profile, sizes kept
/// in a narrow band around 10 KB), exported entry "repro" with baked
/// arguments. Expected outcomes come from a wizard-int run of the same
/// bytes made here, during set-up.
std::vector<BenchModule> generatedModules(uint64_t Seed, size_t Count,
                                          RunResult *R);

/// Engine configuration by registry name with the benchmark's pinned
/// settings: compile cache, disk cache, pool and artifact verification
/// off (cold loads). Workloads switch on what they measure.
wisp::EngineConfig pinnedConfig(const std::string &Name);

/// Per-pass metric accumulator: name -> summed value.
using Acc = std::map<std::string, double>;

/// Median over passes of each accumulated key (keys missing from a pass
/// count as 0 there).
Acc medianOf(const std::vector<Acc> &Passes);

double median(std::vector<double> V);
/// Nearest-rank percentile, P in [0, 1].
double percentile(std::vector<double> V, double P);
double geomean(const std::vector<double> &V);

uint64_t nowNs();
uint64_t peakRssKb();

/// Span recorder for the traced run: spans live in memory and are written
/// as Chrome trace-event JSON at exit. Disabled tracers record nothing.
class Tracer {
public:
  bool Enabled = false;
  /// Starts a new load (request) id; spans of one load share it.
  uint64_t newLoad() { return ++LoadSeq; }
  /// Reserves a span id, so children can name a parent recorded later.
  uint64_t newId() { return ++SpanSeq; }
  /// Records a finished span under a reserved id.
  void spanWithId(uint64_t Id, const char *Name, uint64_t Start, uint64_t End,
                  uint64_t Parent, uint64_t Load);
  /// Records a finished span; returns its id (0 when disabled).
  uint64_t span(const char *Name, uint64_t Start, uint64_t End,
                uint64_t Parent, uint64_t Load) {
    if (!Enabled)
      return 0;
    uint64_t Id = newId();
    spanWithId(Id, Name, Start, End, Parent, Load);
    return Id;
  }
  /// Writes every recorded span to \p Path; false on I/O failure.
  bool write(const std::string &Path) const;

private:
  struct Span {
    const char *Name;
    uint64_t Start, End, Parent, Load, Id;
  };
  /// Bound on retained spans: enough for several whole passes of every
  /// workload while keeping the traced run's memory small.
  static constexpr size_t MaxSpans = 100000;
  std::vector<Span> Spans;
  uint64_t LoadSeq = 0;
  uint64_t SpanSeq = 0;
};

// --- Layer replay (traced runs) -------------------------------------------

/// Which layer functions a traced load is replayed through: only the work
/// the load itself did (a disk-served load compiled nothing).
struct ReplayPlan {
  bool Decode = true;      ///< decodeModule + validateModule.
  bool Compile = true;     ///< The config's compiler, or predecode.
  bool Instantiate = true; ///< instantiate, or image + instantiateFromImage.
  /// Key derivation + disk read + deserialize + analyze + verify, reading
  /// through DiskRead (opened on the directory the engine read from).
  bool Disk = false;
  wisp::DiskCache *DiskRead = nullptr;
  /// Key derivation + serialize + store of the load's artifacts into
  /// SerializeTo (a directory of its own).
  bool Serialize = false;
  wisp::DiskCache *SerializeTo = nullptr;
};

/// Replays one finished load of \p Bytes on \p E through the layer
/// functions (wisp's public API), adding per-layer time and counts to
/// \p A and recording child spans of \p LoadSpan. Returns the replayed
/// nanoseconds attributed to layers (for the unattributed remainder).
uint64_t replayLoad(wisp::Engine &E, const wisp::LoadedModule &LM,
                    const std::vector<uint8_t> &Bytes, const ReplayPlan &Plan,
                    Tracer &T, uint64_t LoadSpan, uint64_t LoadId, Acc &A);

/// Adds the execution counters of \p E's thread (interpreter steps,
/// threaded steps, JIT cycles) to \p A, minus \p Before.
struct ExecCounters {
  uint64_t Steps = 0, ThreadedSteps = 0, JitCycles = 0;
};
ExecCounters execCounters(wisp::Engine &E);
void addExecCounters(const ExecCounters &After, const ExecCounters &Before,
                     Acc &A);

/// Every per-layer metric name with its unit, in print order.
const std::vector<std::pair<std::string, std::string>> &layerMetricUnits();

// --- Workloads ---------------------------------------------------------------

RunResult runColdStart(const Options &O, const Oracle &Or, Tracer &T);
RunResult runDiskRestart(const Options &O, const Oracle &Or, Tracer &T);
RunResult runSteadyExec(const Options &O, const Oracle &Or, Tracer &T);
RunResult runServeMix(const Options &O, const Oracle &Or, Tracer &T);

} // namespace perfbench

#endif // WISP_PERFBENCH_PERFBENCH_H

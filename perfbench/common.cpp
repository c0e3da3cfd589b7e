//===- perfbench/common.cpp - oracle, module sets, stats, tracer ----------===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "perfbench.h"

#include "engine/registry.h"
#include "fuzz/randwasm.h"
#include "service/batch.h"
#include "suites/suites.h"
#include "support/format.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <sys/resource.h>

using namespace wisp;

namespace perfbench {

void RunResult::fail(const std::string &Why) {
  ++Failed;
  // Keep the first few diagnostics; a systematic failure repeats per pass.
  if (Notes.size() < 64)
    Notes.push_back("failure=" + Why);
}

std::string renderOutcome(TrapReason Trap, const std::vector<Value> &Results) {
  if (Trap != TrapReason::None)
    return std::string("trap: ") + trapReasonName(Trap);
  std::string S = "= ";
  if (Results.empty())
    S += "<void>";
  for (size_t I = 0; I < Results.size(); ++I) {
    if (I)
      S += ", ";
    S += valueText(Results[I]);
  }
  return S;
}

std::string exactOutcome(TrapReason Trap, const std::vector<Value> &Results) {
  if (Trap != TrapReason::None)
    return strFormat("trap %u", unsigned(Trap));
  std::string S = "=";
  for (const Value &V : Results)
    S += strFormat(" %u:%016" PRIx64, unsigned(V.Type), V.Bits);
  return S;
}

bool parseExactOutcome(const std::string &Text, TrapReason *Trap,
                       std::vector<Value> *Results) {
  Results->clear();
  unsigned T = 0;
  if (sscanf(Text.c_str(), "trap %u", &T) == 1) {
    *Trap = TrapReason(T);
    return true;
  }
  if (Text.empty() || Text[0] != '=')
    return false;
  *Trap = TrapReason::None;
  std::istringstream In(Text.substr(1));
  std::string Tok;
  while (In >> Tok) {
    unsigned Ty = 0;
    uint64_t Bits = 0;
    if (sscanf(Tok.c_str(), "%u:%" SCNx64, &Ty, &Bits) != 2)
      return false;
    Value V;
    V.Type = ValType(Ty);
    V.Bits = Bits;
    Results->push_back(V);
  }
  return true;
}

bool Oracle::load(const std::string &Path, std::string *Err) {
  std::ifstream In(Path);
  if (!In) {
    *Err = "cannot read oracle file " + Path;
    return false;
  }
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    size_t A = Line.find('\t'), B = Line.find('\t', A + 1);
    if (A == std::string::npos || B == std::string::npos) {
      *Err = "malformed oracle line: " + Line;
      return false;
    }
    Map[Line.substr(0, B)] = Line.substr(B + 1);
  }
  return true;
}

std::string Oracle::lookup(const std::string &Item,
                           const std::string &Variant) const {
  auto It = Map.find(Item + "\t" + Variant);
  return It == Map.end() ? std::string() : It->second;
}

EngineConfig pinnedConfig(const std::string &Name) {
  EngineConfig C = configByName(Name);
  C.UseCompileCache = false;
  C.UseDiskCache = false;
  C.DiskCacheDir.clear();
  C.PoolInstances = false;
  C.VerifyArtifacts = false;
  return C;
}

namespace {

/// Runs \p Bytes on wizard-int and returns the exact outcome, or empty on
/// a load failure. \p Cycles (optional) receives the modeled cycles.
std::string interpOutcome(const std::vector<uint8_t> &Bytes,
                          const std::string &Invoke,
                          uint64_t *Cycles = nullptr) {
  Engine E(pinnedConfig("wizard-int"));
  WasmError Err;
  auto LM = E.load(Bytes, &Err);
  if (!LM)
    return std::string();
  std::vector<Value> Out;
  TrapReason Trap = E.invoke(*LM, Invoke, {}, &Out);
  if (Cycles)
    *Cycles = E.thread().modeledCycles();
  return exactOutcome(Trap, Out);
}

std::string itemName(const LineItem &I) { return I.Suite + "/" + I.Name; }

} // namespace

bool recordOracle(const std::string &Path) {
  FILE *Out = fopen(Path.c_str(), "w");
  if (!Out)
    return false;
  fprintf(Out, "# Expected outcomes of every suite item, recorded from "
               "wizard-int (the in-place\n# interpreter). Regenerate with: "
               "python3 perfbench/run.py --record-oracle\n"
               "# item\tvariant\toutcome (exact bits: type:hex)\n");
  bool Ok = true;
  for (const LineItem &I : allSuites(1)) {
    std::string O = interpOutcome(I.M0Bytes, "run");
    Ok &= !O.empty();
    fprintf(Out, "%s\tm0\t%s\n", itemName(I).c_str(), O.c_str());
  }
  for (int S : {1, SteadyScale})
    for (const LineItem &I : allSuites(S)) {
      std::string O = interpOutcome(I.Bytes, "run");
      Ok &= !O.empty();
      fprintf(Out, "%s\ts%d\t%s\n", itemName(I).c_str(), S, O.c_str());
    }
  return fclose(Out) == 0 && Ok;
}

std::vector<BenchModule> suiteModules(const Oracle &O, bool M0, int Scale,
                                      RunResult *R) {
  std::vector<BenchModule> Mods;
  std::string Variant = M0 ? "m0" : strFormat("s%d", Scale);
  for (LineItem &I : allSuites(M0 ? 1 : Scale)) {
    BenchModule B;
    B.Name = itemName(I);
    B.Bytes = std::move(M0 ? I.M0Bytes : I.Bytes);
    B.Expected = O.lookup(B.Name, Variant);
    if (B.Expected.empty())
      R->fail("oracle has no entry for " + B.Name + " " + Variant);
    Mods.push_back(std::move(B));
  }
  return Mods;
}

std::vector<BenchModule> generatedModules(uint64_t Seed, size_t Count,
                                          RunResult *R) {
  // The enlarged profile: 64 call-free helpers plus main (65 functions)
  // with longer statement lists, so a module is ~10 KB of code — two
  // orders of magnitude above the m0 suite items — and setup cost scales
  // with code size the way real modules do.
  FuzzProfile P;
  P.Name = "perfbench";
  P.NumHelpers = 64;
  P.MinStmts = 4;
  P.MaxStmts = 10;
  // Sizes and interpreted run lengths are kept in narrow bands so the
  // set's total setup and execution time vary little from seed to seed.
  constexpr size_t MinBytes = 9 * 1024, MaxBytes = 11 * 1024;
  constexpr uint64_t MinCycles = 1000, MaxCycles = 4000;
  const std::vector<Value> Args = {Value::makeI32(7), Value::makeI32(100),
                                   Value::makeF64(1.5), Value::makeF64(-2.25)};
  std::vector<BenchModule> Mods;
  uint64_t Draw = 0;
  while (Mods.size() < Count) {
    if (++Draw > Count * 1000) {
      R->fail("generated-module profile no longer yields ~10 KB modules");
      break;
    }
    uint64_t S = Seed * 0x9E3779B97F4A7C15ull + Draw;
    FuzzModule FM = RandWasm(S, P).build();
    std::vector<uint8_t> Bytes = FM.toBytes(&Args);
    if (Bytes.size() < MinBytes || Bytes.size() > MaxBytes)
      continue;
    uint64_t Cycles = 0;
    std::string Expected = interpOutcome(Bytes, "repro", &Cycles);
    // Trapping draws are skipped: a module that traps early measures
    // nothing past the trap.
    if (Expected.empty() || Expected[0] != '=' || Cycles < MinCycles ||
        Cycles > MaxCycles)
      continue;
    BenchModule B;
    B.Name = strFormat("gen/%zu", Mods.size());
    B.Bytes = std::move(Bytes);
    B.Invoke = "repro";
    B.Expected = std::move(Expected);
    Mods.push_back(std::move(B));
  }
  return Mods;
}

Acc medianOf(const std::vector<Acc> &Passes) {
  std::map<std::string, std::vector<double>> Cols;
  for (const Acc &P : Passes)
    for (const auto &KV : P)
      Cols[KV.first];
  for (auto &KV : Cols)
    for (const Acc &P : Passes) {
      auto It = P.find(KV.first);
      KV.second.push_back(It == P.end() ? 0.0 : It->second);
    }
  Acc Out;
  for (auto &KV : Cols)
    Out[KV.first] = median(KV.second);
  return Out;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = size_t(std::ceil(P * double(V.size())));
  return V[std::min(V.size() - 1, Rank ? Rank - 1 : 0)];
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(std::max(X, 1.0));
  return std::exp(LogSum / double(V.size()));
}

uint64_t nowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

uint64_t peakRssKb() {
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  return uint64_t(RU.ru_maxrss);
}

void Tracer::spanWithId(uint64_t Id, const char *Name, uint64_t Start,
                        uint64_t End, uint64_t Parent, uint64_t Load) {
  if (Enabled && Spans.size() < MaxSpans)
    Spans.push_back(Span{Name, Start, End, Parent, Load, Id});
}

bool Tracer::write(const std::string &Path) const {
  FILE *Out = fopen(Path.c_str(), "w");
  if (!Out)
    return false;
  uint64_t Base = Spans.empty() ? 0 : Spans.front().Start;
  for (const Span &S : Spans)
    Base = std::min(Base, S.Start);
  fprintf(Out, "{\"traceEvents\": [\n");
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    fprintf(Out,
            "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
            "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %" PRIu64
            ", \"parent\": %" PRIu64 ", \"load\": %" PRIu64 "}}%s\n",
            S.Name, double(S.Start - Base) / 1e3,
            double(S.End - S.Start) / 1e3, S.Id, S.Parent, S.Load,
            I + 1 < Spans.size() ? "," : "");
  }
  fprintf(Out, "]}\n");
  return fclose(Out) == 0;
}

const std::vector<std::pair<std::string, std::string>> &layerMetricUnits() {
  static const std::vector<std::pair<std::string, std::string>> Units = {
      {"engine.construct_ns", "ns"},
      {"engine.load_ns", "ns"},
      {"engine.load_unattributed_ns", "ns"},
      {"engine.load_unattributed_share", "ratio"},
      {"engine.invoke_ns", "ns"},
      {"exec_s", "s"},
      {"engine.tiered_funcs", "count"},
      {"wasm.decode_ns", "ns"},
      {"wasm.validate_ns", "ns"},
      {"wasm.code_bytes", "bytes"},
      {"spc.compile_ns", "ns"},
      {"spc.insts", "count"},
      {"spc.tag_stores", "count"},
      {"twopass.compile_ns", "ns"},
      {"twopass.insts", "count"},
      {"copypatch.compile_ns", "ns"},
      {"copypatch.insts", "count"},
      {"opt.compile_ns", "ns"},
      {"opt.insts", "count"},
      {"interp.predecode_ns", "ns"},
      {"interp.ir_bytes", "bytes"},
      {"interp.steps", "count"},
      {"interp.threaded_steps", "count"},
      {"machine.jit_cycles", "cycles"},
      {"cycles_geomean", "cycles"},
      {"code_kinsts", "kinsts"},
      {"verify.mcode_ns", "ns"},
      {"verify.threaded_ns", "ns"},
      {"verify.findings", "count"},
      {"analysis.function_ns", "ns"},
      {"analysis.module_ns", "ns"},
      {"disk.read_ns", "ns"},
      {"disk.deserialize_ns", "ns"},
      {"disk.hits", "count"},
      {"disk.misses", "count"},
      {"disk.rejected", "count"},
      {"disk.serialize_ns", "ns"},
      {"disk.store_ns", "ns"},
      {"store_s", "s"},
      {"runtime.image_ns", "ns"},
      {"runtime.instantiate_ns", "ns"},
      {"runtime.reimage_ns", "ns"},
      {"runtime.pool_hits", "count"},
      {"runtime.pool_misses", "count"},
      {"cache.key_ns", "ns"},
      {"cache.hits", "count"},
      {"cache.misses", "count"},
      {"cache.hit_ratio", "ratio"},
      {"service.queue_wait_ms_p50", "ms"},
      {"service.queue_wait_ms_p99", "ms"},
      {"service.service_ms_p50", "ms"},
      {"service.service_ms_p99", "ms"},
      {"service.shed", "count"},
      {"loadgen.late_ms_p99", "ms"},
      {"error_rate", "ratio"},
      {"trace.overhead_s", "s"},
  };
  return Units;
}

} // namespace perfbench

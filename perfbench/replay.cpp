//===- perfbench/replay.cpp - per-layer replay of a finished load ---------===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// The traced run measures each layer from outside the engine: after a
// load, the same bytes are pushed through the layer functions the load
// went through (decode, validate, each compiler, predecode, instantiate,
// cache keys, disk read/deserialize/analyze/verify, serialize/store), each
// call timed and recorded as a child span of the load. What the replays do
// not cover of the load's own time is reported as unattributed.
//
//===----------------------------------------------------------------------===//

#include "perfbench.h"

#include "analysis/analysis.h"
#include "baselines/copypatch.h"
#include "baselines/twopass.h"
#include "cache/diskcache.h"
#include "interp/predecode.h"
#include "opt/optcompiler.h"
#include "runtime/instance.h"
#include "spc/compiler.h"
#include "verify/verifier.h"
#include "wasm/reader.h"
#include "wasm/validator.h"

using namespace wisp;

namespace perfbench {

namespace {

struct CompilerNames {
  const char *Span, *Ns, *Insts;
};

CompilerNames compilerNames(CompilerKind K) {
  switch (K) {
  case CompilerKind::SinglePass:
    return {"spc.compile", "spc.compile_ns", "spc.insts"};
  case CompilerKind::TwoPass:
    return {"twopass.compile", "twopass.compile_ns", "twopass.insts"};
  case CompilerKind::CopyPatch:
    return {"copypatch.compile", "copypatch.compile_ns", "copypatch.insts"};
  case CompilerKind::Optimizing:
    break;
  }
  return {"opt.compile", "opt.compile_ns", "opt.insts"};
}

std::unique_ptr<MCode> compileWith(CompilerKind K, const Module &M,
                                   const FuncDecl &F,
                                   const CompilerOptions &Opts) {
  switch (K) {
  case CompilerKind::SinglePass:
    return compileFunction(M, F, Opts);
  case CompilerKind::TwoPass:
    return compileTwoPass(M, F, Opts);
  case CompilerKind::CopyPatch:
    return compileCopyPatch(M, F, Opts);
  case CompilerKind::Optimizing:
    break;
  }
  return compileOptimizing(M, F, Opts);
}

} // namespace

uint64_t replayLoad(Engine &E, const LoadedModule &LM,
                    const std::vector<uint8_t> &Bytes, const ReplayPlan &Plan,
                    Tracer &T, uint64_t LoadSpan, uint64_t LoadId, Acc &A) {
  const EngineConfig &Cfg = E.config();
  uint64_t Attributed = 0;
  auto Timed = [&](const char *Span, const char *Metric, auto &&Fn) {
    uint64_t T0 = nowNs();
    Fn();
    uint64_t T1 = nowNs();
    T.span(Span, T0, T1, LoadSpan, LoadId);
    A[Metric] += double(T1 - T0);
    Attributed += T1 - T0;
  };

  WasmError Err;
  std::unique_ptr<Module> M;
  bool Valid = false;
  if (Plan.Decode) {
    std::vector<uint8_t> Copy = Bytes;
    Timed("wasm.decode", "wasm.decode_ns",
          [&] { M = decodeModule(std::move(Copy), &Err); });
    if (M)
      Timed("wasm.validate", "wasm.validate_ns",
            [&] { Valid = validateModule(*M, &Err); });
  } else {
    // Later replays need the validated module; untimed when the load
    // itself did not decode (served from a cache).
    M = decodeModule(Bytes, &Err);
    Valid = M && validateModule(*M, &Err);
  }
  if (!Valid)
    return Attributed;
  if (Plan.Decode)
    A["wasm.code_bytes"] += double(M->codeBytes());

  bool Jit = Cfg.Mode == ExecMode::Jit;
  bool Threaded = Cfg.ThreadedDispatch && (Cfg.Mode == ExecMode::Interp ||
                                           Cfg.Mode == ExecMode::Tiered);
  bool Fuse = !Cfg.Opts.EmitDeoptChecks;
  bool Gates = Cfg.Opts.EmitFuelChecks;

  if (Plan.Instantiate) {
    std::unique_ptr<Instance> Inst;
    if (Cfg.PoolInstances) {
      std::unique_ptr<InstanceImage> Img;
      Timed("runtime.image", "runtime.image_ns",
            [&] { Img = buildInstanceImage(*M, nullptr); });
      if (Img)
        Timed("runtime.instantiate", "runtime.instantiate_ns", [&] {
          Inst = instantiateFromImage(*M, *Img, E.hosts(), &E.heap(), &Err);
        });
    } else {
      Timed("runtime.instantiate", "runtime.instantiate_ns",
            [&] { Inst = instantiate(*M, E.hosts(), &E.heap(), &Err); });
    }
  }

  if (Plan.Compile) {
    for (const FuncDecl &F : M->Funcs) {
      if (F.Imported)
        continue;
      if (Jit) {
        CompilerNames N = compilerNames(Cfg.Compiler);
        std::unique_ptr<MCode> C;
        Timed(N.Span, N.Ns,
              [&] { C = compileWith(Cfg.Compiler, *M, F, Cfg.Opts); });
        if (C) {
          A[N.Insts] += double(C->Stats.CodeInsts);
          if (Cfg.Compiler == CompilerKind::SinglePass)
            A["spc.tag_stores"] += double(C->Stats.TagStores);
        }
      }
      if (Threaded) {
        std::unique_ptr<ThreadedCode> TC;
        Timed("interp.predecode", "interp.predecode_ns",
              [&] { TC = predecodeFunction(*M, F, nullptr, Fuse, Gates); });
        if (TC)
          A["interp.ir_bytes"] += double(TC->byteSize());
      }
    }
  }

  if (Plan.Disk || Plan.Serialize) {
    uint64_t Ctx = 0;
    std::vector<CacheKey> Keys;
    Timed("cache.key", "cache.key_ns", [&] {
      Ctx = moduleContextDigest(*M);
      for (const FuncDecl &F : M->Funcs) {
        if (F.Imported)
          continue;
        Keys.push_back(Jit ? codeCacheKey(Ctx, *M, F, Cfg.Compiler, Cfg.Opts,
                                          Cfg.VerifyArtifacts)
                           : irCacheKey(Ctx, *M, F, Fuse, Gates,
                                        Cfg.VerifyArtifacts));
      }
    });
    DiskArtifactKind Kind = Jit ? DiskArtifactKind::Code : DiskArtifactKind::Ir;
    size_t KeyIdx = 0;
    for (const FuncDecl &F : M->Funcs) {
      if (F.Imported)
        continue;
      const CacheKey &K = Keys[KeyIdx];
      if (Plan.Disk && Plan.DiskRead) {
        std::vector<uint8_t> Payload;
        bool Hit = false;
        Timed("disk.read", "disk.read_ns",
              [&] { Hit = Plan.DiskRead->load(K, Kind, &Payload); });
        if (!Hit)
          continue;
        if (Jit) {
          std::shared_ptr<MCode> C;
          Timed("disk.deserialize", "disk.deserialize_ns",
                [&] { C = deserializeMCode(Payload); });
          if (!C)
            continue;
          FuncFacts Facts;
          Timed("analysis.function", "analysis.function_ns",
                [&] { Facts = analyzeFunction(*M, F); });
          VerifyScope Scope = Cfg.Compiler == CompilerKind::Optimizing
                                  ? VerifyScope::optimizing()
                                  : VerifyScope::baseline();
          VerifyReport R;
          Timed("verify.mcode", "verify.mcode_ns", [&] {
            R = verifyMachineCode(*M, F, *C, Scope.withFacts(Facts.StackBound));
          });
          A["verify.findings"] += double(R.Findings.size());
        } else {
          std::shared_ptr<ThreadedCode> TC;
          Timed("disk.deserialize", "disk.deserialize_ns",
                [&] { TC = deserializeThreadedCode(Payload); });
          if (!TC)
            continue;
          VerifyReport R;
          Timed("verify.threaded", "verify.threaded_ns", [&] {
            R = verifyThreadedCode(*M, F, *TC, [](uint32_t) { return false; });
          });
          A["verify.findings"] += double(R.Findings.size());
        }
      }
      if (Plan.Serialize && Plan.SerializeTo) {
        std::vector<uint8_t> Payload;
        if (Jit && KeyIdx < LM.Codes.size())
          Timed("disk.serialize", "disk.serialize_ns",
                [&] { Payload = serializeMCode(*LM.Codes[KeyIdx]); });
        else if (!Jit && KeyIdx < LM.TCodes.size())
          Timed("disk.serialize", "disk.serialize_ns",
                [&] { Payload = serializeThreadedCode(*LM.TCodes[KeyIdx]); });
        if (!Payload.empty())
          Timed("disk.store", "disk.store_ns",
                [&] { Plan.SerializeTo->store(K, Kind, Payload, 0); });
      }
      ++KeyIdx;
    }
  }
  return Attributed;
}

ExecCounters execCounters(Engine &E) {
  const Thread &Th = E.thread();
  return ExecCounters{Th.InterpSteps, Th.ThreadedSteps, Th.JitCycles};
}

void addExecCounters(const ExecCounters &After, const ExecCounters &Before,
                     Acc &A) {
  A["interp.steps"] += double(After.Steps - Before.Steps);
  A["interp.threaded_steps"] +=
      double(After.ThreadedSteps - Before.ThreadedSteps);
  A["machine.jit_cycles"] += double(After.JitCycles - Before.JitCycles);
}

} // namespace perfbench

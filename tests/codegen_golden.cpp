//===- tests/codegen_golden.cpp - per-compiler code hashes ------*- C++ -*-===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Prints one line per module: its name, then one FNV-1a hash per code
// producer over every defined function's serialized artifact:
//
//   spc        single-pass, over every registry JIT/lazy/tiered config, the
//              nok/nokfold/noisel/nomr presets, each TagMode and fuel
//              checks on
//   twopass    the wazero config
//   copypatch  the wasm-now config
//   opt        the wasmtime config
//   threaded   pre-decoded threaded IR, fusion on and off
//
// Modules: every suite item (full and m0, scale 1), tests/corpus/*.wasm,
// tests/data/must-recurse.wasm and the 800 fuzz_smoke seeds (mixed profile
// rotation). MCode is hashed through serializeMCode with Stats.TimeNs
// zeroed, because the serializer records wall-clock compile time.
//
// Usage: codegen_golden <source-root>. cli_codegen_golden.cmake diffs the
// output against tests/data/codegen-golden.txt.
//
//===----------------------------------------------------------------------===//

#include "baselines/copypatch.h"
#include "baselines/twopass.h"
#include "cache/diskcache.h"
#include "engine/registry.h"
#include "fuzz/randwasm.h"
#include "interp/predecode.h"
#include "opt/optcompiler.h"
#include "spc/compiler.h"
#include "suites/suites.h"
#include "wasm/reader.h"
#include "wasm/validator.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

using namespace wisp;

namespace {

struct Fnv {
  uint64_t H = 14695981039346656037ull;
  void add(const std::vector<uint8_t> &Bytes) {
    for (uint8_t B : Bytes)
      H = (H ^ B) * 1099511628211ull;
  }
};

using Compile = std::unique_ptr<MCode> (*)(const Module &, const FuncDecl &,
                                           const CompilerOptions &,
                                           const ProbeSiteOracle *);

struct Producer {
  const char *Name;
  Compile Fn; ///< Null: threaded IR.
  std::vector<CompilerOptions> Opts;
};

std::vector<Producer> producers() {
  std::vector<CompilerOptions> Spc;
  for (const EngineConfig &C : figure10Registry())
    if (C.Compiler == CompilerKind::SinglePass && C.Mode != ExecMode::Interp)
      Spc.push_back(C.Opts);
  for (CompilerOptions O :
       {CompilerOptions::nok(), CompilerOptions::nokfold(),
        CompilerOptions::noisel(), CompilerOptions::nomr()})
    Spc.push_back(O);
  for (TagMode T : {TagMode::None, TagMode::Eager, TagMode::EagerLocals,
                    TagMode::EagerOperands, TagMode::OnDemand, TagMode::Lazy,
                    TagMode::StackMap})
    Spc.push_back(CompilerOptions::withTags(T));
  CompilerOptions Fuel;
  Fuel.EmitFuelChecks = true;
  Spc.push_back(Fuel);
  return {{"spc", compileFunction, Spc},
          {"twopass", compileTwoPass, {configByName("wazero").Opts}},
          {"copypatch", compileCopyPatch, {configByName("wasm-now").Opts}},
          {"opt", compileOptimizing, {configByName("wasmtime").Opts}},
          {"threaded", nullptr, {}}};
}

std::string hashLine(const std::string &Name, std::vector<uint8_t> Bytes,
                     const std::vector<Producer> &Producers) {
  WasmError Err;
  std::unique_ptr<Module> M = decodeModule(std::move(Bytes), &Err);
  if (!M || !validateModule(*M, &Err))
    return Name + " invalid";
  std::string Line = Name;
  for (const Producer &P : Producers) {
    Fnv H;
    for (const FuncDecl &F : M->Funcs) {
      if (F.Imported)
        continue;
      if (!P.Fn) {
        for (bool Fuse : {true, false})
          H.add(serializeThreadedCode(
              *predecodeFunction(*M, F, nullptr, Fuse)));
        continue;
      }
      for (const CompilerOptions &O : P.Opts) {
        std::unique_ptr<MCode> Code = P.Fn(*M, F, O, nullptr);
        Code->Stats.TimeNs = 0;
        H.add(serializeMCode(*Code));
      }
    }
    char Hex[24];
    snprintf(Hex, sizeof(Hex), "%016llx", (unsigned long long)H.H);
    Line += std::string(" ") + P.Name + "=" + Hex;
  }
  return Line;
}

std::vector<uint8_t> readFile(const std::filesystem::path &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(In), {});
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc != 2) {
    fprintf(stderr, "usage: codegen_golden <source-root>\n");
    return 2;
  }
  std::filesystem::path Root = Argv[1];
  warmCopyPatchTemplates();
  std::vector<Producer> Producers = producers();
  auto Emit = [&](const std::string &Name, std::vector<uint8_t> Bytes) {
    printf("%s\n", hashLine(Name, std::move(Bytes), Producers).c_str());
  };

  for (LineItem &Item : allSuites(1)) {
    std::string Name = Item.Suite + "/" + Item.Name;
    Emit(Name, std::move(Item.Bytes));
    Emit(Name + ":m0", std::move(Item.M0Bytes));
  }

  std::vector<std::string> Files;
  for (const auto &E :
       std::filesystem::directory_iterator(Root / "tests" / "corpus"))
    if (E.path().extension() == ".wasm")
      Files.push_back("tests/corpus/" + E.path().filename().string());
  std::sort(Files.begin(), Files.end());
  Files.push_back("tests/data/must-recurse.wasm");
  for (const std::string &F : Files) {
    std::vector<uint8_t> Bytes = readFile(Root / F);
    if (Bytes.empty()) {
      fprintf(stderr, "codegen_golden: cannot read %s\n", F.c_str());
      return 1;
    }
    Emit(F, std::move(Bytes));
  }

  // The fuzz_smoke ctest's seeds and its "mixed" profile rotation.
  static const char *Rotation[] = {"default", "control", "memory", "exits"};
  for (uint64_t Seed = 0; Seed < 800; ++Seed) {
    FuzzProfile P;
    fuzzProfileByName(Rotation[Seed % 4], &P);
    Emit("fuzz/" + std::to_string(Seed), RandWasm(Seed, P).build().toBytes());
  }
  return 0;
}

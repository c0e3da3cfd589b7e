//===- perfbench/main.cpp - benchmark harness entry point ------------------===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
//   wisp-perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --expected FILE --workdir DIR
//   wisp-perfbench --record-oracle FILE
//
// Runs one workload and prints, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the end-to-end metrics, traced runs the per-layer ones.
// Diagnostics and per-config breakdowns go to stderr as `# key=value`.
//
//===----------------------------------------------------------------------===//

#include "perfbench.h"

#include "support/format.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

using namespace perfbench;

namespace {

const char *const EndToEnd[][2] = {
    {"setup_s", "s"},      {"p50_ms", "ms"},       {"p99_ms", "ms"},
    {"jobs_per_s", "1/s"}, {"peak_rss_mb", "MiB"},
};

int usage(const char *Why) {
  fprintf(stderr, "wisp-perfbench: %s\n", Why);
  return 2;
}

void printResult(const RunResult &R, bool Trace) {
  bool Correct = R.Failed == 0 && R.Nondeterministic.empty();
  printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
         "\"metrics\": {",
         Correct ? "true" : "false", (unsigned long long)R.Attempted,
         (unsigned long long)R.Failed);
  bool First = true;
  auto Emit = [&](const std::string &Name, const std::string &Unit) {
    auto It = R.Metrics.find(Name);
    double V = It == R.Metrics.end() ? 0.0 : It->second;
    if (!std::isfinite(V))
      V = 0;
    printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", First ? "" : ", ",
           Name.c_str(), V, Unit.c_str());
    First = false;
  };
  if (Trace) {
    for (const auto &NU : layerMetricUnits())
      Emit(NU.first, NU.second);
  } else {
    for (const auto &NU : EndToEnd)
      Emit(NU[0], NU[1]);
  }
  printf("}}\n");
  fflush(stdout);
}

} // namespace

int main(int Argc, char **Argv) {
  // Pin the environment: a user's shell must not turn a cold run warm
  // (an empty DiskCacheDir falls back to WISP_CACHE_DIR), resize the
  // compile cache, or inject faults into serve sessions.
  for (const char *V : {"WISP_CACHE_DIR", "WISP_CACHE_BYTES", "WISP_FAULT_SEED"})
    unsetenv(V);

  Options O;
  std::string RecordPath;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + A).c_str());
    std::string V = Argv[++I];
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = strtoull(V.c_str(), nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = atof(V.c_str());
    else if (A == "--trace")
      O.Trace = V == "1";
    else if (A == "--expected")
      O.Expected = V;
    else if (A == "--workdir")
      O.WorkDir = V;
    else if (A == "--record-oracle")
      RecordPath = V;
    else
      return usage(("unknown option " + A).c_str());
  }

  if (!RecordPath.empty())
    return recordOracle(RecordPath) ? 0 : 1;

  if (O.Seconds <= 0 || O.WorkDir.empty() || O.Expected.empty())
    return usage("need --seconds > 0, --workdir and --expected");
  std::error_code EC;
  std::filesystem::create_directories(O.WorkDir, EC);
  Oracle Or;
  std::string Err;
  if (!Or.load(O.Expected, &Err))
    return usage(Err.c_str());

  Tracer T;
  T.Enabled = O.Trace;
  RunResult R;
  if (O.Workload == "cold_start")
    R = runColdStart(O, Or, T);
  else if (O.Workload == "disk_restart")
    R = runDiskRestart(O, Or, T);
  else if (O.Workload == "steady_exec")
    R = runSteadyExec(O, Or, T);
  else if (O.Workload == "serve_mix")
    R = runServeMix(O, Or, T);
  else
    return usage(("unknown workload " + O.Workload).c_str());

  R.Metrics["peak_rss_mb"] = double(peakRssKb()) / 1024.0;
  R.Metrics["error_rate"] =
      R.Attempted ? double(R.Failed) / double(R.Attempted) : 0;
  if (O.Trace) {
    std::string Path = wisp::strFormat("%s/trace-%s-seed%llu.json",
                                       O.WorkDir.c_str(), O.Workload.c_str(),
                                       (unsigned long long)O.Seed);
    if (!T.write(Path))
      R.Notes.push_back("trace_write_failed=" + Path);
  }

  fprintf(stderr, "# workload=%s seed=%llu trace=%d nproc=%u build_type=%s\n",
          O.Workload.c_str(), (unsigned long long)O.Seed, int(O.Trace),
          std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE);
  for (const std::string &N : R.Notes)
    fprintf(stderr, "# %s\n", N.c_str());
  for (const std::string &N : R.Nondeterministic)
    fprintf(stderr, "# nondeterministic: %s\n", N.c_str());
  printResult(R, O.Trace);
  return 0;
}

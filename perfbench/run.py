#!/usr/bin/env python3
"""wisp benchmark runner.

Builds the harness (perfbench/CMakeLists.txt, Release) from the enclosing
source tree on first use, runs one workload and prints the harness's JSON
result as the last line of stdout:

    python3 perfbench/run.py --workload cold_start --seed 1 --seconds 10 --trace 0

Extra modes (not used by a plain run):

    --steadiness N    run the workload N times with seeds SEED..SEED+N-1 and
                      print each metric's median, quartiles and spread
    --determinism     run the traced workload twice with the same seed and
                      require every deterministic count to repeat exactly
    --record-oracle   rewrite perfbench/expected.tsv from wizard-int

Every result is also appended, with the commit, nproc and build type, to
.bench_build/results.jsonl.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "cmake")
HARNESS = os.path.join(BUILD_DIR, "wisp-perfbench")
EXPECTED = os.path.join(HERE, "expected.tsv")
BUILD_TYPE = "Release"

WORKLOADS = ["cold_start", "disk_restart", "steady_exec", "serve_mix"]
# Deterministic per-layer counts (--determinism compares them exactly).
DETERMINISTIC = [
    "wasm.code_bytes", "spc.insts", "spc.tag_stores", "twopass.insts",
    "copypatch.insts", "opt.insts", "interp.ir_bytes", "interp.steps",
    "interp.threaded_steps", "machine.jit_cycles", "cycles_geomean",
    "code_kinsts", "verify.findings", "disk.hits", "disk.misses",
    "disk.rejected", "cache.hits", "cache.misses", "runtime.pool_hits",
    "runtime.pool_misses", "engine.tiered_funcs",
]
HARNESS_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def clean_env():
    """The caller's environment minus every knob that changes wisp's
    behaviour: a stray WISP_CACHE_DIR would make cold loads disk-warm."""
    return {k: v for k, v in os.environ.items() if not k.startswith("WISP_")}


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        log("wisp sources not found next to perfbench/; nothing to build")
        return False
    env = clean_env()
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        rc = subprocess.call(
            ["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE] + gen,
            stdout=sys.stderr, stderr=sys.stderr, env=env)
        if rc != 0:
            log("cmake configure failed")
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    rc = subprocess.call(
        ["cmake", "--build", BUILD_DIR, "--target", "wisp-perfbench",
         "-j", jobs], stdout=sys.stderr, stderr=sys.stderr, env=env)
    if rc != 0 or not os.path.isfile(HARNESS):
        log("build failed")
        return False
    return True


def source_commit():
    """The git commit when there is one, else a digest of the sources
    (benchmark checkouts are not git repositories)."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ["src", "perfbench"]:
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "src-" + h.hexdigest()[:16]


def run_harness(workload, seed, seconds, trace):
    """Runs one harness process; returns (exit code, parsed result or None)."""
    workdir = os.path.join(BUILD_ROOT, "work", "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = [HARNESS, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--expected", EXPECTED, "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=clean_env(),
                              stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("harness timed out")
        return 1, None
    finally:
        traces = os.path.join(BUILD_ROOT, "traces")
        if os.path.isdir(workdir):
            for f in os.listdir(workdir):
                if f.startswith("trace-"):
                    os.makedirs(traces, exist_ok=True)
                    shutil.move(os.path.join(workdir, f), os.path.join(traces, f))
        shutil.rmtree(workdir, ignore_errors=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        log("harness failed with exit code %d" % proc.returncode)
        return proc.returncode or 1, None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("harness printed no result line")
        return 1, None
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "commit": source_commit(),
              "nproc": os.cpu_count(), "build_type": BUILD_TYPE,
              "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "result": result}
    with open(os.path.join(BUILD_ROOT, "results.jsonl"), "a") as fh:
        fh.write(json.dumps(record) + "\n")
    return 0, result


def steadiness(args):
    values = {}
    for i in range(args.steadiness):
        seed = args.seed + i
        rc, result = run_harness(args.workload, seed, args.seconds, args.trace)
        if rc != 0:
            return rc
        if not result["correct"]:
            log("seed %d: incorrect result" % seed)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print("%-34s %14s %14s %14s %9s" % ("metric", "median", "q1", "q3",
                                        "iqr/med"))
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 \
            else (vals[0], 0, vals[0])
        spread = (q3 - q1) / med if med else 0.0
        print("%-34s %14.6g %14.6g %14.6g %9.4f" % (name, med, q1, q3, spread))
    return 0


def determinism(args):
    _, a = run_harness(args.workload, args.seed, args.seconds, 1)
    _, b = run_harness(args.workload, args.seed, args.seconds, 1)
    if a is None or b is None:
        return 1
    bad = [k for k in DETERMINISTIC
           if a["metrics"][k]["value"] != b["metrics"][k]["value"]]
    for k in bad:
        log("%s: %r != %r" % (k, a["metrics"][k]["value"],
                              b["metrics"][k]["value"]))
    print("determinism %s: %s" % (args.workload, "FAIL" if bad else "ok"))
    return 1 if bad else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steadiness", type=int, default=0, metavar="N")
    p.add_argument("--determinism", action="store_true")
    p.add_argument("--record-oracle", action="store_true")
    args = p.parse_args()
    if not args.record_oracle and not args.workload:
        p.error("--workload is required")
    if not build():
        return 2
    if args.record_oracle:
        return subprocess.call([HARNESS, "--record-oracle", EXPECTED],
                               env=clean_env())
    if args.steadiness:
        return steadiness(args)
    if args.determinism:
        return determinism(args)
    rc, result = run_harness(args.workload, args.seed, args.seconds,
                             args.trace)
    if rc != 0:
        return rc
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

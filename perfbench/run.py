#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep|churn|serve --seed N \\
        --seconds S --trace 0|1

Builds perfbench/ (a CMake project over ../src) in Release under
.bench_build/perfbench, runs the workload in a fresh directory under
.bench_run/, and prints two JSON lines on stdout: the host stamp, then
the result

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are BENCHMARK.json's end_to_end set (--trace 0) or its
per_layer set (--trace 1).  setup_s is the median, over the measuring
process and the set-up probes (processes that stop after set-up), of
the time from spawning the process to its first timed operation.  A traced run
reports 0 for the per-layer metrics of layers its workload does not
use, and writes its spans, as a sharch-trace-v1 Chrome trace validated
by tools/check_trace.py, to .bench_out/<workload>.trace.json.

Exit status: 0 when every output check passed, 1 when a check failed
(the result line still prints), 2 when nothing could be measured (no
result line).

Maintainers regenerate the committed reference digests with
`python3 perfbench/run.py --write-reference` after a change that
legitimately moves the simulated surface or the churn report.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
REFERENCE = os.path.join(HERE, "reference.txt")
WORKLOADS = ("sweep", "churn", "serve")
REFERENCE_SEEDS = 8  # perfbench keys a run by seed % 8 + 1
# Span categories each workload's trace must hold: the layers it uses.
SURFACE_LAYERS = "workload,exec,trace,core"
CATEGORIES = {
    "sweep": SURFACE_LAYERS,
    "churn": SURFACE_LAYERS + ",econ,hyper,fleet,engine",
    "serve": SURFACE_LAYERS + ",econ,hyper,engine,serve,journal,common",
}
RUN_TIMEOUT_S = 170
# Set-up probes: at least SETUP_PROBES_MIN, then more while they have
# taken under SETUP_PROBE_BUDGET_S in all, up to SETUP_PROBES_MAX.  A
# set-up of about a millisecond (sweep's, mostly the process start)
# varies a lot from one spawn to the next and needs the many samples;
# a set-up of a second (churn's and serve's prefill) needs the few.
SETUP_PROBES_MIN = 4
SETUP_PROBES_MAX = 40
SETUP_PROBE_BUDGET_S = 2.0


def die(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then let the build tool bring the binary up to
    date.  Build chatter goes to stderr: stdout carries results only."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no sharch sources next to perfbench/ (src/CMakeLists.txt)")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            die(f"'{tool}' is not on PATH")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            die("configuring perfbench failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        die("building perfbench failed")


def benchmark_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def source_digest():
    """sha256 over the library and benchmark sources, for the stamp
    (the checkout a benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def commit():
    # Only this checkout's own repository; never one found further up.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_binary(args, cwd):
    """Run perfbench; @return (returncode, parsed result or None, set-up
    seconds: spawn to the first timed operation)."""
    # time.monotonic_ns() and the binary's steady_clock both read
    # CLOCK_MONOTONIC.
    spawned = time.monotonic_ns()
    proc = subprocess.Popen([BINARY] + args, cwd=cwd,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        die(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
    lines = out.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines or \
            not lines[-1].startswith("{"):
        return proc.returncode, None, None
    res = json.loads(lines[-1])
    return proc.returncode, res, (res["first_op_ns"] - spawned) / 1e9


def write_reference():
    build()
    body = []
    # sweep's surface is the same for every seed; churn has one stream
    # per key (seed % 8 + 1).
    for workload, seeds in (("sweep", 1), ("churn", REFERENCE_SEEDS)):
        for seed in range(seeds):
            out = subprocess.run(
                [BINARY, "--digest-only", workload, "--seed", str(seed)],
                capture_output=True, text=True, check=True)
            key = seed % REFERENCE_SEEDS + 1
            body.append(f"{workload} {key} {out.stdout.strip()}")
            print(body[-1], file=sys.stderr)
    text = "".join(line + "\n" for line in body)
    with open(REFERENCE, "w") as fh:
        fh.write(text)
        fh.write(f"checksum {fnv1a(text.encode())}\n")


def fnv1a(data):
    h = 0xcbf29ce484222325
    for b in data:
        h = ((h ^ b) * 0x100000001b3) & 0xffffffffffffffff
    return f"{h:016x}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="regenerate perfbench/reference.txt")
    args = ap.parse_args()
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    wanted = benchmark_metrics(args.trace == 1)
    build()

    # A fresh working directory per run: journals, the planted warm
    # cache and the trace live there and go away with it.
    run_dir = os.path.join(ROOT, ".bench_run",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    trace_path = os.path.join(run_dir, "perfbench.trace.json")
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--reference", REFERENCE, "--trace-out", trace_path]
    try:
        setups = []
        probing = time.monotonic()
        while not args.trace and (
                len(setups) < SETUP_PROBES_MIN or
                (time.monotonic() - probing < SETUP_PROBE_BUDGET_S and
                 len(setups) < SETUP_PROBES_MAX)):
            code, probe, setup = run_binary(argv + ["--setup-only"],
                                            run_dir)
            if probe is None:
                die(f"perfbench set-up probe exited {code}")
            setups.append(setup)
        code, res, setup = run_binary(argv, run_dir)
        if res is None:
            die(f"perfbench exited {code} without a result")
        errors = list(res["errors"])
        if not args.trace:
            setups.append(setup)
            res["metrics"]["setup_s"] = {
                "value": statistics.median(setups), "unit": "s"}
        if args.trace:
            check = subprocess.run(
                [sys.executable, os.path.join(ROOT, "tools", "check_trace.py"),
                 trace_path, "--require-categories",
                 CATEGORIES[args.workload]],
                capture_output=True, text=True)
            if check.returncode != 0:
                errors.append("trace check: " + check.stderr.strip())
            out_dir = os.path.join(ROOT, ".bench_out")
            os.makedirs(out_dir, exist_ok=True)
            shutil.copyfile(trace_path, os.path.join(
                out_dir, f"{args.workload}.trace.json"))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    metrics = {}
    for name, unit in wanted.items():
        m = res["metrics"].get(name)
        if m is None and args.trace:
            # A layer this workload does not use does no work here.
            m = {"value": 0, "unit": unit}
        if m is None or m["unit"] != unit:
            errors.append(f"metric {name} [{unit}] missing or mislabelled")
        else:
            metrics[name] = m
    for name in sorted(set(res["metrics"]) - set(wanted)):
        errors.append(f"metric {name} is not in BENCHMARK.json")

    stamp = dict(res["build"])
    stamp.update({"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "commit": commit(),
                  "source_sha256": source_digest(),
                  "host_nproc": os.cpu_count(),
                  "platform": platform.platform(),
                  "digest": res["digest"]})
    print(json.dumps({"host": stamp}))
    for e in errors:
        print(f"run.py: check failed: {e}", file=sys.stderr)
    correct = res["correct"] and not errors
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

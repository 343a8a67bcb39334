#!/usr/bin/env python3
"""Build and run the PNW benchmark.

One run:

    python3 perfbench/run.py --workload paper_replace --seed 1 --seconds 10 --trace 0

builds perfbench/ (a CMake project compiling ../src) into .bench_build/ on
first use, runs one workload from one seed, relays the benchmark's
human-readable report, checks that the metric names and units are exactly
the ones BENCHMARK.json declares (end_to_end with --trace 0, per_layer with
--trace 1), and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

It exits nonzero when a correctness or reconcile check failed, and without
a result when the program cannot be built or run. The traced run leaves its
spans in .bench_build/traces/<workload>.tsv.

Self-test:

    python3 perfbench/run.py --selftest

runs every workload at the small size, traced and untraced, checks the
metric names against BENCHMARK.json and the rationale file, and checks that
paper_replace's count metrics repeat exactly for one seed and differ under
another.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "pnw_perfbench")
RUN_TIMEOUT_S = 170

# Metrics that must repeat exactly for one seed on paper_replace.
DETERMINISTIC = {
    0: ["bits_per_512", "lines_per_put"],
    1: ["nvm.bits_per_put", "nvm.words_per_put", "nvm.lines_per_put",
        "ml.predicted_share", "core.pool_fallback_rate"],
}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no pnw sources at src/; cannot build the benchmark")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "pnw_perfbench", "-j", "4"],
        stdout=sys.stderr, check=True)


def run_binary(workload, seed, seconds, trace, scale="full"):
    """Runs the benchmark binary; returns (exit code, report lines, result)."""
    work_dir = os.path.join(BUILD_ROOT, "work-%d" % os.getpid())
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        proc = subprocess.run(
            [BINARY, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace),
             "--scale", scale, "--work-dir", work_dir],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
        spans = os.path.join(work_dir, "spans.tsv")
        if os.path.isfile(spans):
            traces = os.path.join(BUILD_ROOT, "traces")
            os.makedirs(traces, exist_ok=True)
            shutil.move(spans, os.path.join(traces, workload + ".tsv"))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, lines[:-1] if result else lines, result


def check_names(result, declared):
    """Problems with the metric set against the declared (name -> unit)."""
    problems = []
    got = result["metrics"]
    for name, unit in declared.items():
        if name not in got:
            problems.append("missing metric " + name)
        elif got[name]["unit"] != unit:
            problems.append("%s: unit %s, declared %s"
                            % (name, got[name]["unit"], unit))
    for name in got:
        if name not in declared:
            problems.append("undeclared metric " + name)
    for name, m in got.items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(
                m["value"]):
            problems.append(name + " is not a finite number")
    return problems


def declared_metrics(bench, trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}


def run_once(args):
    bench = load_benchmark()
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail("unknown workload " + args.workload)
    build()
    code, lines, result = run_binary(args.workload, args.seed, args.seconds,
                                     args.trace)
    for line in lines:
        print(line)
    if result is None:
        fail("the benchmark printed no result (exit code %d)" % code)
    problems = check_names(result, declared_metrics(bench, args.trace))
    for p in problems:
        print("CHECK FAILED: " + p)
    correct = bool(result["correct"]) and code == 0 and not problems
    out = {
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]) + len(problems),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in result["metrics"].items()},
    }
    print(json.dumps(out))
    sys.exit(0 if correct else 1)


def selftest():
    bench = load_benchmark()
    build()
    problems = []

    with open(os.path.join(HERE, "rationale.json")) as f:
        rationale = json.load(f)
    for w in bench["workloads"]:
        if w["name"] not in rationale["workloads"]:
            problems.append("rationale.json lacks workload " + w["name"])
    for m in bench["per_layer"]:
        if m["name"] not in rationale["per_layer"]:
            problems.append("rationale.json lacks per-layer metric "
                            + m["name"])

    results = {}
    for w in bench["workloads"]:
        for trace in (0, 1):
            seeds = (1, 1, 2) if w["name"] == "paper_replace" else (1,)
            for i, seed in enumerate(seeds):
                code, _, result = run_binary(w["name"], seed, 1, trace,
                                             "small")
                tag = "%s seed %d trace %d" % (w["name"], seed, trace)
                if result is None or code != 0 or not result["correct"]:
                    problems.append(tag + ": run failed (exit %d)" % code)
                    continue
                problems += [tag + ": " + p for p in check_names(
                    result, declared_metrics(bench, trace))]
                results[(w["name"], trace, i)] = result["metrics"]

    for trace, names in DETERMINISTIC.items():
        runs = [results.get(("paper_replace", trace, i)) for i in range(3)]
        if None in runs:
            continue
        for name in names:
            a, b, c = (r[name]["value"] for r in runs)
            if a != b:
                problems.append("%s differs between two runs of one seed: "
                                "%r vs %r" % (name, a, b))
            if name in ("bits_per_512", "nvm.bits_per_put") and a == c:
                problems.append("%s is the same under another seed" % name)
            print("determinism %-26s seed 1: %r, %r  seed 2: %r"
                  % (name, a, b, c))

    for p in problems:
        print("SELFTEST FAILED: " + p)
    print("selftest: %s" % ("ok" if not problems else "FAILED"))
    sys.exit(0 if not problems else 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        selftest()
    if not args.workload:
        parser.error("--workload is required")
    run_once(args)


if __name__ == "__main__":
    main()

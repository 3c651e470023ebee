#!/usr/bin/env python3
"""Builds and runs the stack benchmark.

    python3 stackbench/run.py --workload device|fleet_bulk|fleet_live \
        --seed N --seconds S --trace 0|1
    python3 stackbench/run.py --self-check

Run from the repository root. The library and the benchmark program are
built from source into $CARGO_TARGET_DIR (default .bench_build) with
CMake. The last line of stdout is the result object; the lines before it
give the machine and build facts, every metric with its unit and sample
count, and the output checks' verdicts. BENCHMARK.json is the one list of
metric names and units: the program reports what its workload measured,
and this script checks that against BENCHMARK.json and completes it. See
stackbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("device", "fleet_bulk", "fleet_live")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_base():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def build():
    """Configures once, then builds incrementally; returns the binary."""
    build_dir = os.path.join(build_base(), "stackbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j",
                    str(os.cpu_count() or 1)], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "stackbench")


def source_hash():
    """SHA-256 over the library and benchmark sources (path + bytes)."""
    h = hashlib.sha256()
    for top in ("src", "stackbench", "CMakeLists.txt", "cmake"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def machine_facts():
    facts = {"nproc": str(len(os.sched_getaffinity(0)))}
    try:
        with open("/proc/cpuinfo") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh
                      if ln.startswith("model name")]
        facts["cpu_model"] = models[0] if models else "unknown"
    except OSError:
        facts["cpu_model"] = "unknown"
    facts["git_commit"] = "none (not a git checkout)"
    try:
        top, head = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, check=True).stdout.split()
        if os.path.samefile(top, ROOT):
            facts["git_commit"] = head
    except (OSError, ValueError, subprocess.CalledProcessError):
        pass
    facts["source_hash"] = source_hash()
    return facts


def declared_metrics(trace):
    """(name, unit) of each per_layer or end_to_end metric, in order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def run(binary, workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns (exit code, stdout lines)."""
    work = os.path.join(build_base(), "stackbench-work", workload)
    shutil.rmtree(work, ignore_errors=True)
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1" if trace else "0",
         "--work-dir", work, *extra],
        stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout.splitlines()


def complete_result(line, trace):
    """The program's result object with BENCHMARK.json's metrics for this
    mode in their declared order; a per-layer metric the workload leaves
    idle reads 0. Raises ValueError when a measured metric is undeclared
    or in another unit, or a declared end-to-end metric is missing."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    declared = declared_metrics(trace)
    measured = result["metrics"]
    undeclared = set(measured) - {name for name, _ in declared}
    if undeclared:
        raise ValueError(f"undeclared metrics {sorted(undeclared)}")
    metrics = {}
    for name, unit in declared:
        if name not in measured and not trace:
            raise ValueError(f"end-to-end metric {name} not measured")
        metric = measured.get(name, {"value": 0.0, "unit": unit})
        if metric.get("unit") != unit:
            raise ValueError(f"{name} in {metric.get('unit')}, declared {unit}")
        metrics[name] = metric
    result["metrics"] = metrics
    return result


def self_check(binary):
    """Smoke-size run of every workload, traced and untraced, then with a
    tampered answer, which every workload's checks must reject."""
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            code, lines = run(binary, workload, 1, 2, trace, ["--smoke"])
            try:
                result = complete_result(lines[-1], trace)
                good = code == 0 and result["correct"] and result["failed"] == 0
            except (IndexError, ValueError) as e:
                good = False
                log(f"{workload} trace={int(trace)}: {e}")
            log(f"{workload} trace={int(trace)}: "
                f"{'every metric printed, checks pass' if good else 'FAILED'}")
            ok = ok and good
        code, lines = run(binary, workload, 1, 2, False, ["--smoke", "--tamper"])
        rejected = code == 0 and bool(lines) and not json.loads(lines[-1])["correct"]
        log(f"{workload} tampered answer: "
            f"{'rejected' if rejected else 'NOT REJECTED'}")
        ok = ok and rejected
    log("self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    args = p.parse_args()
    if not args.self_check and args.workload is None:
        p.error("--workload is required")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1
    if args.self_check:
        return self_check(binary)

    for key, value in machine_facts().items():
        print(f"fact {args.workload}.{key} = {value}")
    code, lines = run(binary, args.workload, args.seed, args.seconds,
                      bool(args.trace))
    if code != 0 or not lines:
        print("\n".join(lines))
        log(f"benchmark exited with {code}")
        return code or 1
    try:
        result = complete_result(lines[-1], bool(args.trace))
    except ValueError as e:
        print("\n".join(lines[:-1]))
        log(f"malformed result: {e}")
        return 1
    print("\n".join(lines[:-1]))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Repository benchmark: build the simulator and run one workload.

    python3 perfbench/run.py --workload machsuite|memcpy_stream|fuzz|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds
perfbench/ (the simulator library from src/ plus the driver) into
.bench_build/; later calls only re-check the build. Every workload runs
in a fresh driver process. --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer metrics from a traced run (spans written to
.bench_build/traces/). The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics.

--workload all runs every workload untraced and traced (--trace is then
ignored), prints every metric, and ends with the same JSON line summed
over the workloads, each metric prefixed with its workload.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["machsuite", "memcpy_stream", "fuzz"]
DRIVER_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(root):
    """Configure once, then (re)build the driver; return its path."""
    build_root = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench_driver", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode
            except OSError as e:
                fail(f"cannot run {cmd[0]}: {e}")
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "perfbench_driver"), build_root


def git(root, *args):
    try:
        out = subprocess.run(["git", "-C", root, *args], capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(root):
    """Commit and dirty flag when in git, plus a hash of the sources."""
    commit = git(root, "rev-parse", "HEAD") or "none"
    status = git(root, "status", "--porcelain") if commit != "none" else None
    dirty = "unknown" if status is None else ("1" if status else "0")
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(root, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return commit, dirty, h.hexdigest()[:16]


def run_driver(driver, build_root, root, workload, seed, seconds, trace, prov, extra=()):
    """Run one driver process; return its parsed result object."""
    trace_dir = os.path.join(build_root, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    commit, dirty, source_hash = prov
    cmd = [driver, f"--workload={workload}", f"--seed={seed}", f"--seconds={seconds}",
           f"--trace={trace}", f"--pins={os.path.join(BENCH_DIR, 'pins.json')}",
           f"--trace-out={os.path.join(trace_dir, f'{workload}-seed{seed}.json')}",
           f"--commit={commit}", f"--dirty={dirty}", f"--source-hash={source_hash}", *extra]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=root,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {DRIVER_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} driver exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload} driver printed no result")
    return result


def report(result):
    """Print provenance, op accounting and every metric with its unit."""
    prov = result["provenance"]
    print(f"# {result['workload']} trace={prov['trace']} seed={prov['seed']} "
          f"rounds={result['rounds']} ops={result['ops']} ops_failed={result['ops_failed']}")
    print("# provenance: " + " ".join(f"{k}={v}" for k, v in sorted(prov.items())))
    for f in result["failures"]:
        print(f"# failure: {f}")
    for name, m in result["metrics"].items():
        print(f"{result['workload']:>14} {name:<34} {m['value']:>22.6f} {m['unit']}")


def contract_line(results, prefix):
    metrics = {}
    ok = True
    for r in results:
        for name, m in r["metrics"].items():
            ok = ok and math.isfinite(m["value"])
            metrics[(r["workload"] + "." if prefix else "") + name] = m
    attempted = sum(r["ops"] for r in results)
    failed = sum(r["ops_failed"] for r in results)
    return {"correct": ok and failed == 0 and attempted > 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must not be negative")

    root = os.getcwd()
    driver, build_root = build(root)
    prov = provenance(root)
    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    results = []
    for workload, trace in runs:
        r = run_driver(driver, build_root, root, workload, args.seed, args.seconds, trace, prov)
        report(r)
        results.append(r)
    print(json.dumps(contract_line(results, prefix=args.workload == "all")))


if __name__ == "__main__":
    main()

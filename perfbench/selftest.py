#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout; builds like run.py. Checks that:

  1. every workload runs at smoke size, traced and untraced, with no
     failed op and every metric present;
  2. a planted wrong result shows up in ops_failed on every workload;
  3. the default seed at full size matches perfbench/pins.json, and a
     pin that does not match turns every op of the round into a failure;
  4. the trace file parses with tools/json_check;
  5. exact counters repeat bit-for-bit across two traced runs.

Exit code 0 when every check passes, 1 otherwise. Takes under a minute.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

EXACT = ["sim.cycles", "sim.ticks_per_cycle", "sim.allocs_per_cycle",
         "sim.alloc_bytes_per_cycle", "elab.allocs", "elab.count",
         "cmd.mmio_txns_per_op", "queue.allocs_per_op", "spad.allocs_per_access",
         "case.cycles", "dram.row_hit_ratio", "noc.hops_per_cycle", "accel.busy_frac"]

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def drive(driver, workload, trace, *extra, seconds=0, seed=1):
    cmd = [driver, f"--workload={workload}", f"--seed={seed}", f"--seconds={seconds}",
           f"--trace={trace}", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=run.DRIVER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    root = os.getcwd()
    driver, build_root = run.build(root)
    bench = json.load(open(os.path.join(root, "BENCHMARK.json")))
    want = {0: [m["name"] for m in bench["end_to_end"]],
            1: [m["name"] for m in bench["per_layer"]]}
    pins = os.path.join(run.BENCH_DIR, "pins.json")
    trace_dir = os.path.join(build_root, "selftest")
    os.makedirs(trace_dir, exist_ok=True)

    for w in run.WORKLOADS:
        for trace in (0, 1):
            r = drive(driver, w, trace, "--smoke")
            check(r is not None and r["ops"] > 0 and r["ops_failed"] == 0,
                  f"{w} trace={trace}: smoke run clean")
            check(r is not None and sorted(r["metrics"]) == sorted(want[trace]),
                  f"{w} trace={trace}: reports exactly the BENCHMARK.json metrics")
        r = drive(driver, w, 0, "--smoke", "--plant-wrong")
        check(r is not None and r["ops_failed"] >= 1,
              f"{w}: planted wrong result counted in ops_failed")

    for w in run.WORKLOADS:
        r = drive(driver, w, 0, f"--pins={pins}")
        check(r is not None and r["ops_failed"] == 0,
              f"{w}: default seed matches its pin")
    wrong = os.path.join(trace_dir, "wrong_pins.json")
    doc = json.load(open(pins))
    doc["fuzz"]["sim_cycles"] += 1
    json.dump(doc, open(wrong, "w"))
    r = drive(driver, "fuzz", 0, f"--pins={wrong}")
    check(r is not None and r["ops"] > 0 and r["ops_failed"] == r["ops"],
          "fuzz: divergence from the pin fails every op")

    subprocess.run(["cmake", "--build", os.path.dirname(driver), "--target", "json_check"],
                   capture_output=True)
    json_check = os.path.join(os.path.dirname(driver), "json_check")
    for w in run.WORKLOADS:
        runs = []
        for i in range(2):
            out = os.path.join(trace_dir, f"{w}-{i}.json")
            runs.append(drive(driver, w, 1, "--smoke", f"--trace-out={out}"))
            rc = subprocess.run([json_check, "--require-key=self_time", out],
                                capture_output=True).returncode
            check(rc == 0, f"{w}: trace file {i} parses with json_check")
        for name in EXACT:
            a, b = (r["metrics"].get(name, {}).get("value") if r else None for r in runs)
            check(a is not None and a == b, f"{w}: {name} repeats exactly ({a} vs {b})")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()

#!/usr/bin/env bash
# Assert the kernel-speed ordering the simulator claims, on one bench
# (best of N --quick runs per kernel): event >= tick, the event
# kernel's skip-idle-modules win.
#
# Usage: perf_gate_kernels.sh BENCH_BINARY [RUNS]
#
# Exit codes: 0 ordering holds, 1 the event kernel is slower than the
# tick kernel, 2 usage/run failure. Wired behind the
# BEETHOVEN_PERF_GATE ctest option: absolute numbers are
# machine-scoped, but kernel-vs-kernel ratios on one machine in one
# build are exactly the claim the event kernel makes.
set -u

if [ $# -lt 1 ]; then
    echo "usage: $0 BENCH_BINARY [RUNS]" >&2
    exit 2
fi
bench="$1"
runs="${2:-3}"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

best_cps() {
    kernel="$1"
    best=0
    for _ in $(seq "$runs"); do
        if ! "$bench" --quick --sim-kernel="$kernel" \
            --perf-json="$tmpdir/perf.json" >/dev/null 2>&1; then
            echo "perf_gate_kernels: $bench --sim-kernel=$kernel failed" >&2
            exit 2
        fi
        v=$(grep -o '"cycles_per_sec":[0-9.e+]*' "$tmpdir/perf.json" |
            head -1 | cut -d: -f2)
        if [ -z "$v" ]; then
            echo "perf_gate_kernels: no cycles_per_sec in perf json" >&2
            exit 2
        fi
        best=$(awk -v a="$best" -v b="$v" 'BEGIN{print (b>a)?b:a}')
    done
    echo "$best"
}

tick_cps=$(best_cps tick) || exit 2
event_cps=$(best_cps event) || exit 2
echo "tick:  $tick_cps cycles/sec (best of $runs)"
echo "event: $event_cps cycles/sec (best of $runs)"
awk -v t="$tick_cps" -v e="$event_cps" 'BEGIN{
    printf "event/tick ratio: %.2fx\n", e / t
    exit (e >= t) ? 0 : 1
}'
status=$?
if [ "$status" -ne 0 ]; then
    echo "perf_gate_kernels: event kernel slower than tick kernel" >&2
fi
exit "$status"

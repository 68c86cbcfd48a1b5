#!/bin/sh
# Interleaved A/B of the repository benchmark between two commits.
#
# Usage: tools/perf_ab.sh [--workload=W[,W...]] [--pairs=N] [--seed=N]
#                         BASE [HEAD]
#   BASE, HEAD  commits to compare (HEAD defaults to HEAD)
#   --workload  machsuite, memcpy_stream and/or fuzz (default: all)
#   --pairs     runs per commit and workload (default 5)
#   --seed      perfbench seed (default 1, the pinned one); a hold-out
#               seed checks a claim on inputs it was not tuned on
#
# Both commits are cloned with `git clone --shared` into a temporary
# directory and perfbench is built in each. Every pair then runs
#   python3 perfbench/run.py --workload W --seed N --seconds 30 --trace 0
# once in each clone, base first in odd pairs and head first in even
# ones, so host drift falls on both sides alike. For every end-to-end
# metric the summary prints both commits' medians and quartiles, scaled
# to the reference host speed and unscaled, head/base, and the pairs in
# which head was better. Run it on an otherwise idle machine.
#
# Exit: 0 every run completed with ops_failed 0; 1 a run failed or
# reported failed ops; 2 bad usage.
set -eu

usage() {
    sed -n '4,10p' "$0" | sed 's/^# \{0,1\}//'
}

workloads="machsuite memcpy_stream fuzz"
pairs=5
seed=1
base=""
head=""
for arg in "$@"; do
    case $arg in
        --help | -h)
            usage
            exit 0
            ;;
        --workload=*)
            workloads=$(echo "${arg#--workload=}" | tr ',' ' ')
            for w in $workloads; do
                case $w in
                    machsuite | memcpy_stream | fuzz) ;;
                    *) echo "perf_ab: unknown workload '$w'" >&2; exit 2 ;;
                esac
            done
            [ -n "$workloads" ] || { echo "perf_ab: empty --workload" >&2; exit 2; }
            ;;
        --pairs=*)
            pairs=${arg#--pairs=}
            case $pairs in
                '' | *[!0-9]* | 0) echo "perf_ab: bad --pairs '$pairs'" >&2; exit 2 ;;
            esac
            ;;
        --seed=*)
            seed=${arg#--seed=}
            case $seed in
                '' | *[!0-9]*) echo "perf_ab: bad --seed '$seed'" >&2; exit 2 ;;
            esac
            ;;
        -*)
            echo "perf_ab: unknown argument '$arg'" >&2
            usage >&2
            exit 2
            ;;
        *)
            if [ -z "$base" ]; then
                base=$arg
            elif [ -z "$head" ]; then
                head=$arg
            else
                echo "perf_ab: unexpected argument '$arg'" >&2
                exit 2
            fi
            ;;
    esac
done
[ -n "$base" ] || { usage >&2; exit 2; }
head=${head:-HEAD}

repo=$(cd "$(dirname "$0")/.." && pwd)
base_sha=$(git -C "$repo" rev-parse --verify "$base^{commit}") ||
    { echo "perf_ab: no commit '$base'" >&2; exit 2; }
head_sha=$(git -C "$repo" rev-parse --verify "$head^{commit}") ||
    { echo "perf_ab: no commit '$head'" >&2; exit 2; }

tmp=$(mktemp -d "${TMPDIR:-/tmp}/perf_ab.XXXXXX")
trap 'rm -rf "$tmp"' EXIT INT TERM
mkdir "$tmp/out"
for side in base head; do
    eval "sha=\$${side}_sha"
    git clone -q --shared --no-checkout "$repo" "$tmp/$side"
    git -C "$tmp/$side" checkout -q "$sha"
done

# One short run per clone builds perfbench before anything is timed.
first=${workloads%% *}
for side in base head; do
    echo "perf_ab: building $side" >&2
    (cd "$tmp/$side" && python3 perfbench/run.py --workload "$first" \
        --seed "$seed" --seconds 0 --trace 0 > "$tmp/out/build.$side.txt") ||
        { echo "perf_ab: $side failed to build or run" >&2; exit 1; }
done

run() { # side workload pair
    echo "perf_ab: $2 pair $3/$pairs $1" >&2
    (cd "$tmp/$1" && python3 perfbench/run.py --workload "$2" \
        --seed "$seed" --seconds 30 --trace 0 > "$tmp/out/$2.$1.$3.txt") ||
        { echo "perf_ab: $2 run failed on $1" >&2; exit 1; }
}

for w in $workloads; do
    p=1
    while [ "$p" -le "$pairs" ]; do
        if [ $((p % 2)) -eq 1 ]; then
            run base "$w" "$p"
            run head "$w" "$p"
        else
            run head "$w" "$p"
            run base "$w" "$p"
        fi
        p=$((p + 1))
    done
done

compiler=$(${CXX:-c++} --version 2>/dev/null | head -n 1)
python3 - "$tmp/out" "$pairs" "$base_sha" "$head_sha" "$compiler" \
    "$(nproc)" "$seed" $workloads <<'EOF'
import json, os, re, statistics, sys

out, pairs, base, head, compiler, cores, seed = sys.argv[1:8]
workloads, pairs = sys.argv[8:], int(pairs)
HIGHER = {"sim_cps"}

def iqr(xs):
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
    return f"{q[0]:.6g}-{q[2]:.6g}"

def load(path):
    lines = open(path).read().splitlines()
    res = json.loads(lines[-1])
    scaled = {k: m["value"] for k, m in res["metrics"].items()}
    raw = {}
    for line in lines:
        m = re.match(r"unscaled median (\S+)=(\S+)", line)
        if m:
            raw[m.group(1)] = float(m.group(2))
    return scaled, raw, res["failed"]

print(f"perf_ab: base {base} head {head}")
print(f"perf_ab: compiler {compiler}; nproc {cores}; {pairs} interleaved "
      f"pairs of `run.py --seed {seed} --seconds 30 --trace 0`")
failed = 0
for w in workloads:
    runs = {s: [load(os.path.join(out, f"{w}.{s}.{p}.txt"))
                for p in range(1, pairs + 1)] for s in ("base", "head")}
    failed += sum(r[2] for s in runs for r in runs[s])
    print(f"\n{w} (ops_failed base {sum(r[2] for r in runs['base'])}, "
          f"head {sum(r[2] for r in runs['head'])})")
    print(f"  {'metric':<12} {'kind':<8} {'base median':>12} {'base IQR':>21} "
          f"{'head median':>12} {'head IQR':>21} {'head/base':>9} "
          f"{'head better':>11}")
    for kind, idx in (("scaled", 0), ("unscaled", 1)):
        for name in runs["base"][0][idx]:
            b = [r[idx][name] for r in runs["base"]]
            h = [r[idx][name] for r in runs["head"]]
            mb, mh = statistics.median(b), statistics.median(h)
            ratio = mh / mb if mb else float("nan")
            if name == "probe_ms":  # host speed, not a metric
                wins = "-"
            else:
                won = sum((y > x) if name in HIGHER else (y < x)
                          for x, y in zip(b, h))
                wins = f"{won}/{pairs}"
            print(f"  {name:<12} {kind:<8} {mb:>12.6g} {iqr(b):>21} "
                  f"{mh:>12.6g} {iqr(h):>21} {ratio:>9.4f} {wins:>11}")
sys.exit(1 if failed else 0)
EOF

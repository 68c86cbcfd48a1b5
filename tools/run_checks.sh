#!/bin/sh
# Unified pre-merge gate: chain every static and dynamic check the
# repo ships, in cheapest-first order, and stop at the first failure.
#
#   1. lint      soc_lint on the clean reference case (composition
#                contract, BTH0xx)
#   2. analyze   soc_analyze on the clean case and both paper presets
#                (wake contract, BTH1xx)
#   3. tidy      tools/run_tidy.sh --diff (new clang-tidy warnings in
#                changed files only; skips when LLVM is absent)
#   4. sanitize  ctest smoke in the tsan preset's build tree when it
#                exists (configure with `cmake --preset tsan` to opt
#                in; skipped otherwise so gcc-only images still pass),
#                including the run-isolation test that steps two SoCs
#                on concurrent threads — the one place real
#                cross-thread interleavings run under tsan
#
# Usage: tools/run_checks.sh [BUILD_DIR]
#   BUILD_DIR  build tree holding the tools (default: build)
set -eu

repo_root=$(cd "$(dirname "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}
tools_dir="$build_dir/tools"
testdata="$repo_root/tools/testdata"

fail() {
    echo "run_checks: FAILED at stage '$1'" >&2
    exit 1
}

echo "== run_checks: 1/4 lint =="
"$tools_dir/soc_lint" "$testdata/lint_clean.json" || fail lint

echo "== run_checks: 2/4 analyze =="
"$tools_dir/soc_analyze" "$testdata/lint_clean.json" || fail analyze
"$tools_dir/soc_analyze" --preset=fig4 || fail analyze
"$tools_dir/soc_analyze" --preset=fig6 || fail analyze

echo "== run_checks: 3/4 tidy (diff) =="
"$repo_root/tools/run_tidy.sh" --diff "$build_dir" || fail tidy

echo "== run_checks: 4/4 sanitize (tsan smoke) =="
tsan_dir="$repo_root/build-tsan"
if [ -f "$tsan_dir/CTestTestfile.cmake" ]; then
    (cd "$tsan_dir" && ctest -R \
        'EventKernel|WakeWheel|Simulator|CrossKernel|RunIsolation' \
        --output-on-failure -j "$(nproc)") || fail sanitize
else
    echo "run_checks: $tsan_dir not configured; skipping tsan smoke" \
         "(run 'cmake --preset tsan && cmake --build --preset tsan')"
fi

echo "run_checks: all stages passed"

#!/usr/bin/env bash
# A/A check: the suite four times on one build — sides A and B, two runs
# each, interleaved A B A B so that drift of the host is shared — then the
# two sides side by side. A side's value for a metric is the better of its
# two runs (the host's noise only ever makes a number worse). Non-zero if
# any end-to-end metric differs between the sides by more than its
# BENCHMARK.json bound, or if anything that depends on the seed alone
# (modeled time, replay counts, the result digest) differs between any
# two of the four runs.
#
#   benchmark/aa.sh [--seed N] [--quick]      # ~11 min; output is Markdown
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
case "$CARGO_TARGET_DIR" in /*) ;; *) CARGO_TARGET_DIR="$root/$CARGO_TARGET_DIR" ;; esac

for run in a1 b1 a2 b2; do
    echo "aa.sh: run ${run^^} ..." >&2
    mkdir -p "benchmark/out/aa_$run"
    if ! bash benchmark/run.sh --out "benchmark/out/aa_$run" "$@" >"benchmark/out/aa_$run/run.log" 2>&1; then
        cat "benchmark/out/aa_$run/run.log" >&2
        echo "aa.sh: run ${run^^} failed its own checks" >&2
        exit 1
    fi
done

echo "# A/A: two sides of two suite runs each, same build"
echo
echo "commit \`$(git rev-parse --short HEAD 2>/dev/null || echo unknown)\`, $(rustc -V), nproc $(nproc), args: \`${*:-none}\`"
echo
"$CARGO_TARGET_DIR/release/e2e_bench" --compare \
    benchmark/out/aa_a1,benchmark/out/aa_a2 benchmark/out/aa_b1,benchmark/out/aa_b2

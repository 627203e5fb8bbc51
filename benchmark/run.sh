#!/usr/bin/env bash
# The one command of the benchmark of record.
#
#   benchmark/run.sh [--seed N] [--out DIR] [--quick]
#       build, then run all four workloads (traced, so every end-to-end
#       and per-layer metric is printed); non-zero if any check fails.
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       build if needed, then one run; its last stdout line is the
#       driver's JSON object.
#
# Reads and writes only inside the checkout: build output goes to
# $CARGO_TARGET_DIR (default .bench_build/), results to benchmark/out/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
case "$CARGO_TARGET_DIR" in /*) ;; *) CARGO_TARGET_DIR="$root/$CARGO_TARGET_DIR" ;; esac
bin="$CARGO_TARGET_DIR/release/e2e_bench"
serve="$CARGO_TARGET_DIR/release/hgpcn-serve"

# The benchmark is a package of its own (benchmark/Cargo.toml, an empty
# [workspace]); the server it drives over HTTP is the repository's binary.
# Both are release builds with the AVX2 kernel compiled in.
build() {
    cargo build --release --offline --manifest-path benchmark/Cargo.toml &&
        cargo build --release --offline --features simd -p hgpcn-serve
}
mkdir -p "$CARGO_TARGET_DIR"
if ! build >"$CARGO_TARGET_DIR/e2e_bench_build.log" 2>&1; then
    cat "$CARGO_TARGET_DIR/e2e_bench_build.log" >&2
    echo "benchmark/run.sh: build failed" >&2
    exit 2
fi

export E2E_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
export E2E_GIT_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"

# Any hgpcn-serve still alive from this build directory is ours and a bug.
leftovers() {
    local found=0 exe
    for pid in $(pgrep -x hgpcn-serve 2>/dev/null || true); do
        exe="$(readlink "/proc/$pid/exe" 2>/dev/null || true)"
        if [ "${exe% (deleted)}" = "$serve" ]; then
            echo "benchmark/run.sh: leftover hgpcn-serve (pid $pid); killing it" >&2
            kill -9 "$pid" 2>/dev/null || true
            found=1
        fi
    done
    return $found
}

for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        status=0
        "$bin" --serve-bin "$serve" "$@" || status=$?
        leftovers || status=1
        exit $status
    fi
done

# Suite mode: every workload, traced. One process per workload, so each
# one's peak RSS and CPU time are its own.
status=0
for w in raw_cold infer_batched stream_warm serve_http; do
    "$bin" --serve-bin "$serve" --workload "$w" --trace 1 "$@" || status=1
    echo
done
leftovers || status=1
if [ $status -eq 0 ]; then
    echo "benchmark/run.sh: all four workloads OK"
else
    echo "benchmark/run.sh: FAILED (see violations and mismatches above)" >&2
fi
exit $status

#!/usr/bin/env bash
# Build the benchmark with the root workspace's release profile and vendored
# patches, then run one workload (or all five) each in its own process.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S]
#                    [--trace 0|1 | --layers] [--smoke]
#
# With --workload the last line of stdout is the result object described in
# BENCHMARK.json's contract. Everything written lands under
# ${BENCH_OUT:-${CARGO_TARGET_DIR:-target}/benchmark}/.
set -euo pipefail

HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(dirname "$HERE")"
ROOT_MANIFEST="$ROOT/Cargo.toml"

if [[ ! -f "$ROOT_MANIFEST" || ! -d "$ROOT/crates" ]]; then
    echo "benchmark/run.sh: no engine workspace at $ROOT (Cargo.toml and crates/ are required)" >&2
    exit 2
fi

# A relative CARGO_TARGET_DIR is relative to the caller's directory.
TARGET="${CARGO_TARGET_DIR:-$ROOT/target}"
[[ "$TARGET" = /* ]] || TARGET="$PWD/$TARGET"
OUT="${BENCH_OUT:-$TARGET/benchmark}"
mkdir -p "$OUT"

# --- generated cargo config: the codegen and patches users get -------------
# One TOML section of the root manifest, header included, up to the next one.
section() {
    awk -v want="[$1]" '
        /^\[/ { inside = ($0 == want) }
        inside && !/^[[:space:]]*(#|$)/ { print }
    ' "$ROOT_MANIFEST"
}
CONFIG="$OUT/cargo-config.toml"
{
    section "profile.release"
    # Vendored stand-ins are given as root-relative paths; a --config file
    # outside the workspace needs them absolute.
    section "patch.crates-io" | sed -E "s|path = \"([^/\"][^\"]*)\"|path = \"$ROOT/\\1\"|"
} > "$CONFIG"

export BENCH_PROFILE="$(section "profile.release" | tail -n +2 | paste -sd ';' -)"
export BENCH_RUSTC="$(rustc -V)"
export BENCH_COMMIT="$(git -C "$ROOT" rev-parse HEAD 2>/dev/null || echo unknown)"
export BENCH_OUT="$OUT"
# glibc moves its mmap threshold with the sizes a process happens to free, so
# the heap's high-water mark follows the seed (fleet_churn VmHWM spread 17 %
# over ten seeds). Pinned, freed blocks go back to the kernel and peak_rss_mb
# reads live bytes (0.7 %).
export MALLOC_MMAP_THRESHOLD_=65536

cargo_bench() {
    CARGO_TARGET_DIR="$TARGET" cargo "$1" --config "$CONFIG" --offline --release \
        --manifest-path "$HERE/Cargo.toml" "${@:2}"
}

SMOKE=0
WORKLOAD=""
ARGS=()
while (($#)); do
    case "$1" in
        --smoke) SMOKE=1; ARGS+=("$1") ;;
        --workload) WORKLOAD="$2"; shift ;;
        *) ARGS+=("$1") ;;
    esac
    shift
done

cargo_bench build --quiet >&2
BIN="$TARGET/release/anton-benchmark"

if ((SMOKE)); then
    cargo_bench test --quiet >&2
fi

if [[ -n "$WORKLOAD" ]]; then
    exec "$BIN" --workload "$WORKLOAD" "${ARGS[@]}"
fi

status=0
for w in $("$BIN" --list); do
    ((SMOKE)) && [[ "$w" == dhfr ]] && continue
    "$BIN" --workload "$w" "${ARGS[@]}" || status=1
done
exit $status

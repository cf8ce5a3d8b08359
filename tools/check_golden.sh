#!/usr/bin/env bash
# Bit-identity gate for the seeded experiment outputs.
#
# Runs each seeded bench binary and CLI command in a scratch
# directory, normalizes the volatile parts of its output (wall-clock
# timings and host worker counts), and diffs every file it leaves
# against the committed golden copies under tests/golden/. Any
# difference means a change altered the simulated results — the
# optimisation work this repo does on the hot path must keep every
# one of these outputs bit-identical. It is the repo's only
# regression gate on simulated results.
#
# Two passes:
#   1. every seeded output at --jobs 1: stdout and JSON artifacts;
#   2. the parallel grids at --jobs 4, JSON artifacts only (parallel
#      cells interleave calibration warnings on stdout). This pins
#      the quick grids' worker-count invariance and the full phy and
#      defense grids (tests/golden/{phy,defense}_full/).
#
# Usage: check_golden.sh BUILD_BENCH_DIR [GOLDEN_DIR]
#   BUILD_BENCH_DIR  directory holding the built bench binaries
#   GOLDEN_DIR       defaults to <repo>/tests/golden
#
# Refresh the goldens after an intentional behaviour change with:
#   tools/check_golden.sh build/bench --refresh
# A file pinned by both passes is written by the first and checked
# against it by the second, so a refresh cannot bake in a
# worker-count dependence.

set -u
shopt -s nullglob

here="$(cd "$(dirname "$0")" && pwd)"
repo="$(dirname "$here")"

refresh=0
args=()
for a in "$@"; do
    if [ "$a" = "--refresh" ]; then refresh=1; else args+=("$a"); fi
done

bench_dir="${args[0]:?usage: check_golden.sh BUILD_BENCH_DIR [GOLDEN_DIR]}"
golden_dir="${args[1]:-$repo/tests/golden}"
bench="$(cd "$bench_dir" && pwd)"
cli="$bench/../tools/cohersim"

# Strip the fields that legitimately differ between runs/machines:
# wall-clock seconds and the worker count, in both the stdout
# summaries and the BENCH_*.json envelopes.
normalize() {
    sed -e '/s wall on [0-9]* worker/d' \
        -e '/^ *"wall_seconds":/d' \
        -e '/^ *"jobs":/d' "$1"
}

status=0
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT
declare -A pinned # NAME/FILE -> 1 once written or compared this run

# settle NAME FILE CMD: diff FILE against tests/golden/NAME/, or on
# --refresh write it there unless an earlier pin already did.
settle() {
    local name="$1" f="$2" cmd="$3"
    local key="$name/$(basename "$f")"
    local gold="$golden_dir/$key"
    if [ "$refresh" -eq 1 ] && [ -z "${pinned[$key]:-}" ]; then
        mkdir -p "$golden_dir/$name"
        normalize "$f" > "$gold"
    elif [ ! -f "$gold" ]; then
        echo "check_golden: missing golden $key ($cmd)" >&2
        status=1
    elif ! diff -u "$gold" <(normalize "$f") > "$scratch/diff.txt"; then
        echo "check_golden: $key DIFFERS from golden ($cmd):" >&2
        cat "$scratch/diff.txt" >&2
        status=1
    fi
    pinned[$key]=1
}

# pin NAME STDOUT CMD...: run CMD in a fresh directory, keep its
# stdout+stderr as STDOUT ("-" drops it), and settle every file left
# there against tests/golden/NAME/.
runs=0
pin() {
    local name="$1" stdout="$2"
    shift 2
    local out="$scratch/run$((runs += 1))"
    local cmd="${*#"$bench/"}"
    mkdir -p "$out"
    if ! (cd "$out" && "$@" > "$scratch/stdout.raw" 2>&1); then
        echo "check_golden: $name FAILED to run ($cmd):" >&2
        tail -n 20 "$scratch/stdout.raw" >&2
        status=1
        return
    fi
    [ "$stdout" = - ] || mv "$scratch/stdout.raw" "$out/$stdout"
    for f in "$out"/*; do
        settle "$name" "$f" "$cmd"
    done
}

# Pass 1: single worker, keeps each check reproducible on loaded
# machines.
for b in table01_scenarios fig08_accuracy_vs_rate \
    fig09_noise_accuracy fig10_error_correction \
    fig11_multibit_symbols ablation_protocols ablation_mitigations \
    ablation_detection; do
    pin "$b" stdout.txt "$bench/$b" --jobs 1 --quiet
done
# The CLI's run-health report: the rendered report and its JSON
# timeseries document.
pin report_health stdout.txt \
    "$cli" report --preset health-quick --jobs 1 --json REPORT_health.json
# The multi-tenant path: a fleet transmit and the quick fleet sweep.
pin fleet_quick stdout.txt "$cli" transmit --preset fleet-quick
pin fleet_quick sweep_stdout.txt \
    "$bench/fleet_scaling" --quick --jobs 1 --quiet
# The PHY stack: hamming-soft end to end and the quick
# parity-vs-FEC comparison.
pin phy_quick stdout.txt "$cli" transmit --preset phy-quick
pin phy_quick bench_stdout.txt \
    "$bench/phy_comparison" --quick --jobs 1 --quiet
# Table I row 4 against every defense column (§VIII-E mitigations
# plus the randomized caches).
pin defense_quick stdout.txt \
    "$bench/defense_matrix" --quick --jobs 1 --quiet
# The leakage-vector plugins: one transmit through a non-coherence
# vector and the quick vector matrix with its CC-Hunter trackers.
pin vectors_quick stdout.txt "$cli" transmit --preset lru-quick
pin vectors_quick bench_stdout.txt \
    "$bench/vector_matrix" --quick --jobs 1 --quiet

# Pass 2: the parallel grids at four workers, JSON only.
pin fleet_quick - "$bench/fleet_scaling" --quick --jobs 4 --quiet
pin phy_quick - "$bench/phy_comparison" --quick --jobs 4 --quiet
pin defense_quick - "$bench/defense_matrix" --quick --jobs 4 --quiet
pin vectors_quick - "$bench/vector_matrix" --quick --jobs 4 --quiet
pin phy_full - "$bench/phy_comparison" --jobs 4 --quiet
pin defense_full - "$bench/defense_matrix" --jobs 4 --quiet

# Every golden must have been produced by some run above.
if [ "$refresh" -eq 0 ]; then
    for gold in "$golden_dir"/*/*; do
        key="${gold#"$golden_dir"/}"
        if [ -z "${pinned[$key]:-}" ]; then
            echo "check_golden: no run produced golden $key" >&2
            status=1
        fi
    done
fi

if [ "$refresh" -eq 1 ]; then
    echo "check_golden: goldens written to $golden_dir"
elif [ "$status" -eq 0 ]; then
    echo "check_golden: all seeded experiment outputs bit-identical"
else
    echo "check_golden: FAILED — seeded outputs changed" >&2
fi
exit "$status"

#!/usr/bin/env bash
# Benchmark smoke: build perfbench from this checkout, run its helper
# tests, then every workload once for about a second, untraced, at
# seed 2018. Fails when a run exits non-zero, reports
# "correct": false, or prints a digest other than the one pinned
# below. A change that moves a digest on purpose updates the table.
#
#   tools/bench_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

declare -A expect=(
    [sweep]=5a929034e553a740
    [fleet]=b4beb273bf5ddc88
    [defended]=7d8e6628524b4bfe
)

python3 perfbench/run.py --selftest
for w in sweep fleet defended; do
    out=$(python3 perfbench/run.py --workload "$w" --seed 2018 \
          --seconds 1 --trace 0)
    grep -E '^(digest|metric) ' <<< "$out"
    got=$(awk -v w="$w" '$1 == "digest" && $2 == w { print $3 }' \
          <<< "$out")
    if [[ "$got" != "${expect[$w]}" ]]; then
        echo "bench_smoke: $w digest '$got', expected ${expect[$w]}" >&2
        exit 1
    fi
    if ! tail -n 1 <<< "$out" | python3 -c \
        'import json, sys; sys.exit(json.load(sys.stdin)["correct"] is not True)'
    then
        echo "bench_smoke: $w reported \"correct\": false" >&2
        exit 1
    fi
done
echo "bench_smoke: every workload ran clean with its pinned digest"

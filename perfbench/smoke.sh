#!/usr/bin/env bash
# Smoke test of the benchmark itself. Runs every workload on small inputs,
# untraced and traced, with every correctness check on; then reruns each
# workload with one expected answer corrupted, which must fail the run.
# Takes about a minute after the build. Run from the repository root:
#
#   bash perfbench/smoke.sh
set -uo pipefail
run() { bash perfbench/run.sh --seed 7 --seconds 2 --smoke "$@"; }
status=0
for w in batch_report query_steady live_churn; do
    for t in 0 1; do
        out=$(run --workload "$w" --trace "$t")
        code=$?
        if [[ $code -ne 0 || $(tail -n 1 <<<"$out") != *'"correct": true'* ]]; then
            echo "FAIL $w trace=$t (exit $code)"
            status=1
        else
            echo "ok   $w trace=$t"
        fi
    done
    out=$(run --workload "$w" --trace 0 --corrupt-expected)
    code=$?
    if [[ $code -eq 0 || $(tail -n 1 <<<"$out") != *'"correct": false'* ]]; then
        echo "FAIL $w: a corrupted expected answer was not caught"
        status=1
    else
        echo "ok   $w: a corrupted expected answer fails the run"
    fi
done
exit $status

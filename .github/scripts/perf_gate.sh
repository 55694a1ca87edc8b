#!/usr/bin/env bash
# The performance gate: the benchmark of BENCHMARK.json run on a base
# commit and on this checkout, side by side, and judged by the
# benchmark's own pairing rule (benchmark/README.md, `sfqbench compare`).
#
#   .github/scripts/perf_gate.sh <base-ref> [pairs=10] [seconds=20]
#
# Checks <base-ref> out into a git worktree under target/perf-gate/,
# builds each side into a target directory of its own, and for every
# workload makes `pairs` runs of each side, alternating which side goes
# first. The runs land in target/perf-gate/{base,head}.jsonl. Exits with
# `compare`'s status: non-zero when a row reads REGRESSION (or a run was
# incorrect); `unresolved` rows are printed and do not fail. `compare`
# takes its spreads from the base side's own runs, so no baseline is
# committed anywhere.
set -euo pipefail

base_ref=${1:?usage: perf_gate.sh <base-ref> [pairs=10] [seconds=20]}
pairs=${2:-10}
seconds=${3:-20}

root=$(git rev-parse --show-toplevel)
cd "$root"
gate=$root/target/perf-gate
mkdir -p "$gate"
rm -f "$gate/base.jsonl" "$gate/head.jsonl"

drop_worktree() {
    git worktree remove --force "$gate/base" 2>/dev/null || true
    git worktree prune
}
drop_worktree # one a killed run left behind
trap drop_worktree EXIT
git worktree add --quiet --detach "$gate/base" "$base_ref"

# run_side <side> <checkout> <workload> <seed>
run_side() {
    CARGO_TARGET_DIR=$gate/build-$1 bash "$2/benchmark/run.sh" \
        --workload "$3" --seed "$4" --seconds "$seconds" --trace 0 \
        --append "$gate/$1.jsonl"
}

for workload in $(jq -r '.workloads[].name' BENCHMARK.json); do
    for ((i = 1; i <= pairs; i++)); do
        if ((i % 2)); then
            run_side base "$gate/base" "$workload" "$i"
            run_side head "$root" "$workload" "$i"
        else
            run_side head "$root" "$workload" "$i"
            run_side base "$gate/base" "$workload" "$i"
        fi
    done
done

"$gate/build-head/release/sfqbench" compare "$gate/base.jsonl" "$gate/head.jsonl"

#!/usr/bin/env bash
# The benchmark's command (see BENCHMARK.json): build this package from
# source, then hand the arguments to the binary of the mode asked for —
# `sfqbench` for the end-to-end run, `sfqtrace` for `--trace 1`.
#
#   bash benchmark/run.sh --workload sched_hot --seed 1 --seconds 15 --trace 0
#
# Run from the root of a checkout. Everything is read and written below
# it: the build goes to $CARGO_TARGET_DIR (default benchmark/target),
# trace files to benchmark/out/. Exits non-zero, printing no result, when
# the program's sources are not there to build against.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

bin=sfqbench
prev=
for arg in "$@"; do
    if [[ $prev == --trace && $arg == 1 ]]; then
        bin=sfqtrace
    fi
    prev=$arg
done

exec "$target/release/$bin" "$@" --out "$here/out"

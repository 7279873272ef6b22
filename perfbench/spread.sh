#!/usr/bin/env bash
# Run one workload on several seeds and print each metric's median,
# quartiles and spread (interquartile distance over the median).
#
# usage: perfbench/spread.sh <workload> [runs=10] [first-seed=1] [trace=0]
# Run from the repository root; results land in .bench_out/.
set -euo pipefail
workload=$1
runs=${2:-10}
first=${3:-1}
trace=${4:-0}
bench=(cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml --)
mkdir -p .bench_out
out=.bench_out/spread-$workload-trace$trace-seed$first.jsonl
: > "$out"
for seed in $(seq "$first" $((first + runs - 1))); do
    "${bench[@]}" --workload "$workload" --seed "$seed" --trace "$trace" | tail -n 1 >> "$out"
done
"${bench[@]}" --summarize "$out"

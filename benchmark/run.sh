#!/usr/bin/env bash
# Build tcdm_bench (Release, into .bench_build/ at the checkout root) and run
# it. Build output goes to stderr, so the last line of stdout is always the
# benchmark's JSON result line.
#
#   bash benchmark/run.sh --workload NAME [--seed S] [--seconds T] [--trace 0|1]
#       one run of one workload; results land in .bench_build/benchmark/results/
#   bash benchmark/run.sh
#       every workload, one process each, with the traced pass, then one
#       table of every metric with its unit
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build/benchmark"
mkdir -p "$build/tmp"
export TMPDIR="$build/tmp"  # keep compiler scratch files inside the checkout

jobs="$(nproc 2>/dev/null || echo 2)"
if [ "$jobs" -gt 8 ]; then jobs=8; fi
if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -S "$root/benchmark" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target tcdm_bench -j "$jobs" >&2

bench="$build/tcdm_bench"
results="$build/results"
if [ "$#" -gt 0 ]; then
  exec "$bench" --results-dir "$results" "$@"
fi

status=0
files=()
for workload in paper_kernels traffic_mix dse_random system_halo; do
  "$bench" --results-dir "$results" --workload "$workload" --trace 1 || status=1
  files+=("$results/$workload.json")
done
echo
"$bench" --table "${files[@]}"
exit "$status"

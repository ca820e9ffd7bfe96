#!/usr/bin/env bash
# Build the pipeline benchmark from source and run it (see README.md).
#
#   bench/pipeline/run.sh                      all four workloads, seed 1
#   bench/pipeline/run.sh --trace              per-layer metrics instead
#   bench/pipeline/run.sh --workload gpm_warm --seed 2 --seconds 20 --trace 0
#   bench/pipeline/run.sh --repeat 5           median/quartiles per metric
#   bench/pipeline/run.sh --smoke --trace      the quick CI check
#   bench/pipeline/run.sh --bless --seed 1     commit-worthy full run
#
# The build goes to $CARGO_TARGET_DIR when set, else
# build/bench_pipeline/build; results go to build/bench_pipeline/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-build/bench_pipeline/build}"
mkdir -p "$build/tmp"
# Compiler temporaries stay inside the build directory.
export TMPDIR="$(cd "$build/tmp" && pwd)"

log="$build/build.log"
if ! { cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release &&
        cmake --build "$build" -j "$(nproc)"; } > "$log" 2>&1; then
    tail -n 30 "$log" >&2
    echo "run.sh: building the benchmark failed (log: $log)" >&2
    exit 1
fi

exec python3 "$here/run.py" --bin "$build/pipeline_bench" "$@"

#!/usr/bin/env bash
# Full local check: regular build + complete test suite (including
# the absolute cycle golden and the pipeline benchmark's smoke gate),
# then the same suite with the runtime verifier hooks forced on,
# then the scverify static-verifier leg over the example programs
# and the golden bytecode program, a scverify v2 leg diffing
# --json --summary output (diagnostics, pressure profiles, cost
# bounds) against the blessed golden, a clang-tidy leg (skipped when
# the tool is absent),
# then a ThreadSanitizer build running the concurrency-sensitive
# suites (thread pool, host-parallel mining, machine comparisons,
# artifact-store/LRU-cache races, the shared execution pipeline),
# then an ASan+UBSan build running the trace capture/replay/
# serialization + SCBC rejection + artifact-store + pipeline suites
# and the cycle golden (arena ownership, encoding and image-loading
# bugs show up here), then a
# forced-scalar kernel build (the AVX2 TU omitted, so scalar is the
# only kernel level) with the full suite, kernel and replay microbench
# smoke runs (their BENCH_*.json stay under the build directory; this
# script never writes the tracked bench/results/ snapshots), an
# artifact-store cold/warm sweep leg: fig12 with
# SC_ARTIFACT_CACHE=off and =on must emit bit-identical cycles while
# the warm run captures each (app, dataset) exactly once, and a job
# server smoke leg: a 12-job mixed batch through the jsonl front end
# must be byte-identical queued vs sequential with deterministic
# artifact-store hit counts (the TSan leg also soaks JobQueue under
# concurrent submitters), then a scheduler leg: the same batch under
# --sched fifo vs --sched affinity must stay byte-identical while
# affinity reports zero in-store waits (parked siblings instead of
# blocked workers) and the throughput bench self-gates the >= 1.3x
# affinity-vs-fifo claim on hosts with >= 4 cores.
#
# Usage: scripts/check.sh [build-dir-prefix]
set -euo pipefail
cd "$(dirname "$0")/.."

prefix="${1:-build}"

echo "=== regular build + full ctest ==="
cmake -B "${prefix}" -S . >/dev/null
cmake --build "${prefix}" -j"$(nproc)"
ctest --test-dir "${prefix}" --output-on-failure -j"$(nproc)"

echo
echo "=== full ctest, verifier hooks forced on ==="
# SC_VERIFY=1 turns the api::prepare / trace::replayCompiled
# verification on regardless of build type, so every trace the suite
# produces goes through the stream-lifetime checker — including every
# unkeyed Machine::run, which then captures and prepares its trace
# instead of executing directly.
SC_VERIFY=1 ctest --test-dir "${prefix}" \
    --output-on-failure -j"$(nproc)"


echo
echo "=== scverify: example programs + golden bytecode ==="
"${prefix}/tools/scverify" examples/asm/*.s tests/data/golden_trace.scbc

echo
echo "=== scverify v2: quantitative summaries vs blessed goldens ==="
# --json --summary over every emitted kernel program, the rule
# fixtures and the golden SCBC image must be byte-identical to the
# blessed output (pins diagnostic ordering, the pressure profiles and
# the cost bounds). The rule fixtures
# carry error diagnostics by design, so the expected exit is 1.
sv_tmp="$(mktemp -d)"
sv_rc=0
"${prefix}/tools/scverify" --json --summary \
    examples/asm/*.s \
    tests/data/scverify/*.s \
    tests/data/golden_trace.scbc \
    > "${sv_tmp}/scverify.json" || sv_rc=$?
test "${sv_rc}" -eq 1
diff tests/data/scverify_golden.json "${sv_tmp}/scverify.json"
rm -rf "${sv_tmp}"
echo "scverify --json --summary output matches the blessed golden"

echo
echo "=== clang-tidy ==="
if command -v clang-tidy >/dev/null 2>&1; then
    # compile_commands.json is exported by the top-level CMakeLists;
    # the profile lives in .clang-tidy at the repo root.
    clang-tidy -p "${prefix}/compile_commands.json" --quiet \
        src/*/*.cc tools/*.cc
else
    echo "clang-tidy not installed; skipping (profile: .clang-tidy)"
fi

echo
echo "=== TSan build + parallel suites ==="
cmake -B "${prefix}-tsan" -S . -DSPARSECORE_SANITIZE=thread >/dev/null
cmake --build "${prefix}-tsan" -j"$(nproc)" --target sparsecore_tests
"${prefix}-tsan/tests/sparsecore_tests" \
    --gtest_filter='ThreadPool.*:HostParallel.*:Parallel.*:Machine*.*:LruCache.*:ArtifactStore.*:JobQueue.*:Scheduler.*:Pipeline.*:CyclesGolden.*'

echo
echo "=== ASan+UBSan build + trace/replay suites ==="
cmake -B "${prefix}-asan" -S . \
    -DSPARSECORE_SANITIZE=address,undefined >/dev/null
cmake --build "${prefix}-asan" -j"$(nproc)" --target sparsecore_tests
"${prefix}-asan/tests/sparsecore_tests" \
    --gtest_filter='Trace*:Seeds/TraceReplay*:Bytecode*:ScbcRejection.*:ArtifactStore.*:LruCache.*:Pipeline.*:CyclesGolden.*'

echo
echo "=== forced-scalar kernel build + full ctest ==="
cmake -B "${prefix}-scalar" -S . \
    -DSPARSECORE_FORCE_SCALAR_KERNELS=ON >/dev/null
cmake --build "${prefix}-scalar" -j"$(nproc)"
ctest --test-dir "${prefix}-scalar" --output-on-failure -j"$(nproc)"

echo
echo "=== kernel microbench smoke ==="
(cd "${prefix}" && bench/kernel_microbench --smoke)

echo
echo "=== replay microbench smoke ==="
# Gates the compiled-replay perf claim (>=5x on the functional
# substrate) and the cross-engine cycle checksums.
(cd "${prefix}" && bench/replay_microbench --smoke)

echo
echo "=== artifact store: cold vs warm sweep bit-identity ==="
# fig12 replays each of its 36 (app, graph) points across a 5-SU
# ladder. With the store on, every point must capture exactly once
# (36 trace misses; each point holds its prepared program across the
# ladder, so nothing re-fetches it) — and the emitted cycle numbers
# must match the store-off run bit for bit.
fig12_bin="$(cd "${prefix}" && pwd)/bench/fig12_su_sweep"
store_tmp="$(mktemp -d)"
(cd "${store_tmp}" && SC_BENCH_SMOKE=1 SC_ARTIFACT_CACHE=off \
    "${fig12_bin}" > off.txt)
(cd "${store_tmp}" && SC_BENCH_SMOKE=1 SC_ARTIFACT_CACHE=on \
    "${fig12_bin}" > on.txt)
sed -n '/-- csv --/,/^$/p' "${store_tmp}/off.txt" > "${store_tmp}/off.csv"
sed -n '/-- csv --/,/^$/p' "${store_tmp}/on.txt" > "${store_tmp}/on.csv"
diff "${store_tmp}/off.csv" "${store_tmp}/on.csv"
grep -q 'traces 0 hits / 36 misses' "${store_tmp}/on.txt"
grep -q 'traces 0 hits / 0 misses' "${store_tmp}/off.txt"
# The bench self-gates the scverify-v2 claim at every ladder point:
# the static [lower, upper] cycle interval must bracket the
# dynamically simulated cycles (it exits nonzero and names the
# offending point otherwise).
grep -q 'static cost bounds bracket dynamic cycles at all' \
    "${store_tmp}/on.txt"
grep -q 'static cost bounds bracket dynamic cycles at all' \
    "${store_tmp}/off.txt"
rm -rf "${store_tmp}"
echo "cold/warm cycles bit-identical; warm run captured 36/36 once"

echo
echo "=== job server: queued vs sequential bit-identity ==="
# A 12-job mixed multi-tenant batch (every workload class, both
# modes, shared datasets) through the jsonl server front end. The
# queued run — any width, warm or cold store — must emit reports
# byte-identical to sequential Machine execution; with a single
# worker the artifact-store hit counts are deterministic: g1/g2
# share the (T, W) program, f1/f2 share the FSM key, g3 and g4 are
# distinct misses, tensor jobs are not store-keyed.
server_bin="$(cd "${prefix}" && pwd)/examples/example_sparsecore_server"
server_tmp="$(mktemp -d)"
cat > "${server_tmp}/batch12.jsonl" <<'EOF'
{"version":1,"id":"g1","workload":"gpm","app":"T","dataset":"W"}
{"version":1,"id":"g2","workload":"gpm","app":"T","dataset":"W","mode":"run","substrate":"sparsecore"}
{"version":1,"id":"g3","workload":"gpm","app":"TC","dataset":"W","mode":"run","substrate":"cpu"}
{"version":1,"id":"g4","workload":"gpm","app":"T","dataset":"C"}
{"version":1,"id":"f1","workload":"fsm","dataset":"C","min_support":500}
{"version":1,"id":"f2","workload":"fsm","dataset":"C","min_support":500,"mode":"run","substrate":"sparsecore"}
{"version":1,"id":"s1","workload":"spmspm","dataset":"C"}
{"version":1,"id":"s2","workload":"spmspm","dataset":"C","algorithm":"inner","mode":"run","substrate":"cpu"}
{"version":1,"id":"s3","workload":"spmspm","dataset":"E","options":{"stride":4}}
{"version":1,"id":"t1","workload":"ttv","dataset":"Ch","options":{"stride":8}}
{"version":1,"id":"t2","workload":"ttv","dataset":"Ch","options":{"stride":8},"mode":"run","substrate":"cpu"}
{"version":1,"id":"t3","workload":"ttm","dataset":"U","options":{"stride":16}}
EOF
"${server_bin}" --sequential --no-timing \
    < "${server_tmp}/batch12.jsonl" > "${server_tmp}/seq.jsonl"
"${server_bin}" --no-timing \
    < "${server_tmp}/batch12.jsonl" > "${server_tmp}/queued.jsonl"
diff "${server_tmp}/seq.jsonl" "${server_tmp}/queued.jsonl"
"${server_bin}" --jobs-threads 1 --stats \
    < "${server_tmp}/batch12.jsonl" > "${server_tmp}/ordered.jsonl"
grep -q '"trace_hits":2' "${server_tmp}/ordered.jsonl"
grep -q '"trace_misses":4' "${server_tmp}/ordered.jsonl"
echo "12-job batch: queued == sequential; store hits deterministic"

echo
echo "=== job scheduler: fifo vs affinity bit-identity + convoy counters ==="
# The same 12-job batch under both scheduling policies at 2 workers.
# Reports must stay byte-identical to the sequential reference for
# any policy — the scheduler only reorders dispatch, never results.
# With >= 2 workers, fifo sends same-dataset neighbours (g1/g2,
# f1/f2) into the pool together, so one blocks on the other's
# in-flight capture (store waits > 0); affinity parks the sibling
# until its warmer lands, so it must report zero store waits, one
# warmer per keyed lane, and convoys avoided.
"${server_bin}" --sched fifo --jobs-threads 2 --no-timing \
    < "${server_tmp}/batch12.jsonl" > "${server_tmp}/fifo.jsonl"
"${server_bin}" --sched affinity --jobs-threads 2 --no-timing \
    < "${server_tmp}/batch12.jsonl" > "${server_tmp}/affinity.jsonl"
diff "${server_tmp}/seq.jsonl" "${server_tmp}/fifo.jsonl"
diff "${server_tmp}/seq.jsonl" "${server_tmp}/affinity.jsonl"
"${server_bin}" --sched fifo --jobs-threads 2 --stats \
    < "${server_tmp}/batch12.jsonl" | tail -1 \
    > "${server_tmp}/fifo_stats.json"
"${server_bin}" --sched affinity --jobs-threads 2 --stats \
    < "${server_tmp}/batch12.jsonl" | tail -1 \
    > "${server_tmp}/affinity_stats.json"
grep -q '"policy":"affinity"' "${server_tmp}/affinity_stats.json"
grep -q '"trace_waits":0' "${server_tmp}/affinity_stats.json"
grep -q '"warmers":4' "${server_tmp}/affinity_stats.json"
fifo_waits="$(grep -o '"trace_waits":[0-9]*' \
    "${server_tmp}/fifo_stats.json" | grep -o '[0-9]*$')"
aff_convoys="$(grep -o '"convoy_avoided":[0-9]*' \
    "${server_tmp}/affinity_stats.json" | grep -o '[0-9]*$')"
test "${fifo_waits}" -gt 0
test "${aff_convoys}" -gt 0
rm -rf "${server_tmp}"
echo "policies bit-identical; fifo blocked in-store ${fifo_waits}x," \
    "affinity parked instead (${aff_convoys} convoys avoided)"

echo
echo "=== server throughput bench smoke (scheduler gate) ==="
# Gates the affinity-vs-fifo jobs/sec claim (>= 1.3x at >= 4
# workers) on hosts wide enough to overlap captures — the binary
# arms the gate itself when hardware_concurrency >= 4; narrower
# hosts still assert per-job cycle bit-identity across every
# policy x width cell.
(cd "${prefix}" && SC_BENCH_SMOKE=1 bench/server_throughput)

echo
echo "All checks passed."

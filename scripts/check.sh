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
# serialization + SCBC rejection + artifact-store + pipeline suites,
# the cycle and counter goldens and the timing-model suites (arena
# ownership, encoding and image-loading bugs show up here, and so do
# out-of-range indexes into the cache tag/LRU arrays, the CPU merge
# loop's remembered L1 slots and the SU cost columns), then a
# forced-scalar kernel build (the AVX2 TU omitted, so scalar is the
# only kernel level) with the full suite, kernel and replay microbench
# smoke runs (their BENCH_*.json stay under the build directory; this
# script never writes the tracked bench/results/ snapshots), an
# artifact-store sweep leg: a fig12 smoke run must capture each
# (app, dataset) exactly once and bracket every point's cycles with
# its static cost bounds, and a job server smoke leg: a 12-job mixed batch through the jsonl front end
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
# verification on regardless of build type, so every program the
# suite captures goes through the stream-lifetime checker (every
# Machine::run and compare prepares one through the store's cached
# verdict).
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
    --gtest_filter='Trace*:Seeds/TraceReplay*:Bytecode*:ScbcRejection.*:ArtifactStore.*:LruCache.*:Pipeline.*:CyclesGolden.*:Cache.*:MemHierarchy.*:BranchPredictor.*:CoreModel.*:CpuMergeLoop.*:Engine*.*:SuCostColumn.*:Smt.*:SCache.*:Scratchpad.*:Svpu.*:NestTranslator.*:CounterGolden.*:ColdBegin.*'

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
# Gates the cross-engine cycle checksums: every generic and
# devirtualized replay of each GPM and FSM cell (on sparsecore, reading
# the program's SU cost column) must equal direct execution
# (api::execute) on its backend. The timings it prints are medians of
# a few samples per cell and gate nothing.
(cd "${prefix}" && bench/replay_microbench --smoke)

echo
echo "=== artifact store: fig12 sweep captures once ==="
# fig12 replays each of its 36 (app, graph) points across a 5-SU
# ladder. Every point must capture exactly once (36 trace misses;
# each point holds its prepared program across the ladder, so
# nothing re-fetches it). That a cold capture and a warm hit replay
# to the cycles of direct execution is pinned by the
# ArtifactStore.*ColdWarmBitIdentical tests and the cycle golden.
fig12_bin="$(cd "${prefix}" && pwd)/bench/fig12_su_sweep"
store_tmp="$(mktemp -d)"
(cd "${store_tmp}" && SC_BENCH_SMOKE=1 "${fig12_bin}" > fig12.txt)
grep -q 'traces 0 hits / 36 misses' "${store_tmp}/fig12.txt"
# The bench self-gates the scverify-v2 claim at every ladder point:
# the static [lower, upper] cycle interval must bracket the
# dynamically simulated cycles (it exits nonzero and names the
# offending point otherwise).
grep -q 'static cost bounds bracket dynamic cycles at all' \
    "${store_tmp}/fig12.txt"
rm -rf "${store_tmp}"
echo "fig12 captured 36/36 points once; bounds bracket every cycle"

echo
echo "=== job server: queued vs sequential bit-identity ==="
# A 12-job mixed multi-tenant batch (every workload class, both
# modes, shared datasets) through the jsonl server front end. The
# queued run — any width, warm or cold store — must emit reports
# byte-identical to sequential Machine execution; with a single
# worker the artifact-store hit counts are deterministic: g1/g2
# share the (T, W) program, f1/f2 share the FSM key and t1/t2 the
# (TTV, Ch, stride 8) key, so 3 hits; g1, g3, g4, f1, s1, s2, s3, t1
# and t3 each capture a distinct key, so 9 misses.
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
grep -q '"trace_hits":3' "${server_tmp}/ordered.jsonl"
grep -q '"trace_misses":9' "${server_tmp}/ordered.jsonl"
echo "12-job batch: queued == sequential; store hits deterministic"

echo
echo "=== job scheduler: fifo vs affinity bit-identity + convoy counters ==="
# The same 12-job batch under both scheduling policies at 2 workers.
# Reports must stay byte-identical to the sequential reference for
# any policy — the scheduler only reorders dispatch, never results.
# With >= 2 workers, fifo sends same-dataset neighbours (g1/g2,
# f1/f2, t1/t2) into the pool together, so one blocks on the other's
# in-flight capture (store waits > 0); affinity parks the sibling
# until its warmer lands, so it must report zero store waits, one
# warmer per keyed lane (9: every job is keyed, and the 12 jobs name
# 9 keys), and convoys avoided.
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
grep -q '"warmers":9' "${server_tmp}/affinity_stats.json"
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

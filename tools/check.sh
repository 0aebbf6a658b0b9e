#!/usr/bin/env bash
# Full verification gate: Release build + ASan + TSan, ctest on each, plus
# a disassembly check that the nn kernels contain no fused multiply-add and
# start on 64-byte boundaries, an explicit run of the checkpoint corruption
# fault-injection suite under ASan (truncations and bit flips must fail
# loads cleanly — no crash, no OOM, no half-trained model), the GBT loader
# suite under an address-space cap, the pinned golden routing replay, a
# structural check of the stage_sim stats Prometheus exposition, and short
# runs of the serving benchmark (perfbench/) whose output checks must pass.
# Run from anywhere; builds live next to the source tree as
# build-check-{release,asan,tsan,perfbench}.
#
# Usage: tools/check.sh [--fast]
#   --fast  Release build + tests + benchmark runs only (skip the sanitizer
#           builds).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

build_and_test() {
  local name="$1" sanitize="$2"
  local build_dir="${repo_root}/build-check-${name}"
  echo "=== [${name}] configure (STAGE_SANITIZE='${sanitize}') ==="
  cmake -B "${build_dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=Release -DSTAGE_SANITIZE="${sanitize}" > /dev/null
  echo "=== [${name}] build ==="
  cmake --build "${build_dir}" -j "${jobs}"
  echo "=== [${name}] ctest ==="
  (cd "${build_dir}" && ctest --output-on-failure -j "${jobs}")
}

build_and_test release ""

# The GBT loader suite again under a ~2 GB address-space cap, so a loader
# that sizes an allocation from an unchecked count fails fast instead of
# paging. The ASan lane cannot take the cap: ASan reserves far more address
# space than that for its shadow memory.
echo "=== [release] GBT loader suite under a 2 GB address-space cap ==="
(ulimit -v 2000000; "${repo_root}/build-check-release/tests/gbt_test" \
  --gtest_filter='SerializationTest.*')

# The nn kernels' bit-exactness contract (src/stage/nn/gemm.h) needs every
# multiply and add rounded on its own; stage_nn is built with
# -ffp-contract=off so its AVX-512 kernel stays unfused. Fail if a fused
# multiply-add reaches the library anyway (a flag lost, a new target set).
echo "=== [release] no fused multiply-add in stage_nn ==="
nn_archive="${repo_root}/build-check-release/src/stage/nn/libstage_nn.a"
disassembly="$(objdump -d "${nn_archive}")"
fused="$(grep -E '\svfn?m(add|sub)' <<< "${disassembly}" || true)"
if [[ -n "${fused}" ]]; then
  echo "fused multiply-add instructions in ${nn_archive}:" >&2
  echo "${fused}" | head -20 >&2
  exit 1
fi
echo "=== stage_nn is FMA-free ==="

# stage_nn is built with -falign-functions=64 so unrelated code size cannot
# shift the kernels' placement (and speed). Fail unless every object's .text
# is aligned to exactly 64 bytes (2**6): a lost flag shows as 2**4.
echo "=== [release] stage_nn functions are 64-byte aligned ==="
text_sections="$(objdump -h "${nn_archive}" | awk '$2 == ".text" {print $NF}')"
if [[ -z "${text_sections}" ]] || grep -qv '^2\*\*6$' <<< "${text_sections}"; then
  echo "stage_nn .text alignments (want 2**6 each):" >&2
  objdump -h "${nn_archive}" | awk '$2 == ".text"' >&2
  exit 1
fi
echo "=== stage_nn .text is 64-byte aligned ==="

echo "=== [release] GBT hot-path bench smoke (STAGE_BENCH_FAST=1) ==="
(cd "${repo_root}/build-check-release/bench" && \
  STAGE_BENCH_FAST=1 ./bench_gbt_hot_path)
bench_json="${repo_root}/build-check-release/bench/BENCH_gbt_hot_path.json"
if command -v python3 > /dev/null 2>&1; then
  python3 -m json.tool "${bench_json}" > /dev/null
else
  # No python3: at least require the single-row speedup field.
  grep -q '"speedup_p50"' "${bench_json}"
fi
echo "=== bench JSON OK: ${bench_json} ==="

echo "=== [release] global-model hot-path bench smoke (STAGE_BENCH_FAST=1) ==="
(cd "${repo_root}/build-check-release/bench" && \
  STAGE_BENCH_FAST=1 ./bench_global_hot_path)
global_bench_json="${repo_root}/build-check-release/bench/BENCH_global_hot_path.json"
if command -v python3 > /dev/null 2>&1; then
  python3 -m json.tool "${global_bench_json}" > /dev/null
else
  grep -q '"speedup"' "${global_bench_json}"
fi
echo "=== bench JSON OK: ${global_bench_json} ==="

echo "=== [release] fleet serving bench smoke (STAGE_BENCH_FAST=1) ==="
(cd "${repo_root}/build-check-release/bench" && \
  STAGE_BENCH_FAST=1 ./bench_fleet_serve)
fleet_bench_json="${repo_root}/build-check-release/bench/BENCH_fleet_serve.json"
if command -v python3 > /dev/null 2>&1; then
  python3 -m json.tool "${fleet_bench_json}" > /dev/null
else
  grep -q '"predictions_per_sec"' "${fleet_bench_json}"
fi
echo "=== bench JSON OK: ${fleet_bench_json} ==="

echo "=== [release] closed-loop WLM bench smoke (STAGE_BENCH_FAST=1) ==="
(cd "${repo_root}/build-check-release/bench" && \
  STAGE_BENCH_FAST=1 ./bench_wlm_closed_loop)
wlm_bench_json="${repo_root}/build-check-release/bench/BENCH_wlm_closed_loop.json"
if command -v python3 > /dev/null 2>&1; then
  python3 -m json.tool "${wlm_bench_json}" > /dev/null
else
  grep -q '"p99_queueing_s"' "${wlm_bench_json}"
fi
echo "=== bench JSON OK: ${wlm_bench_json} ==="

echo "=== [release] calibration bench smoke (STAGE_BENCH_FAST=1) ==="
(cd "${repo_root}/build-check-release/bench" && \
  STAGE_BENCH_FAST=1 ./bench_calibration)
calib_bench_json="${repo_root}/build-check-release/bench/BENCH_calibration.json"
if command -v python3 > /dev/null 2>&1; then
  python3 -m json.tool "${calib_bench_json}" > /dev/null
else
  grep -q '"calibrated_coverage_better"' "${calib_bench_json}"
fi
# The coverage gate is the §4.8 acceptance bar: post-recalibration 90%
# coverage error must beat pre. The overhead gate: the median per-round
# flag-on / flag-off warm-predict p50 ratio is at most 1.03, each round on
# a freshly built stack pair.
grep -q '"calibrated_coverage_better": true' "${calib_bench_json}"
grep -q '"p50_overhead_within_budget": true' "${calib_bench_json}"
echo "=== bench JSON OK: ${calib_bench_json} ==="

# The server's qps, p50 and p99 with 16 pipelined connections, every
# predict escalating to the global model. The bench itself exits non-zero
# on a lossy run or a non-global answer; the figures carry no bound.
echo "=== [release] network serving bench smoke (STAGE_BENCH_FAST=1) ==="
(cd "${repo_root}/build-check-release/bench" && \
  STAGE_BENCH_FAST=1 ./bench_net_serve)
net_bench_json="${repo_root}/build-check-release/bench/BENCH_net_serve.json"
if command -v python3 > /dev/null 2>&1; then
  python3 -m json.tool "${net_bench_json}" > /dev/null
else
  grep -q '"p99_ms"' "${net_bench_json}"
fi
echo "=== bench JSON OK: ${net_bench_json} ==="

# Observability gate (also in --fast): the pinned golden routing replay
# must match, and the CLI's Prometheus exposition must actually look like
# one (obs_test validates the renderer structurally; this catches the CLI
# wiring).
echo "=== [release] golden routing replay ==="
"${repo_root}/build-check-release/tests/golden_routing_test"
echo "=== [release] stage_sim stats exposition smoke ==="
stats_out="$("${repo_root}/build-check-release/tools/stage_sim" stats \
  --instances=1 --queries=300 --rounds=20 --members=2 --sync 2>/dev/null)"
grep -q '^# TYPE stage_predictions_total counter$' <<< "${stats_out}"
grep -q '^stage_cache_hits_total ' <<< "${stats_out}"
grep -q '^stage_predict_latency_ns_bucket{stage="cache",le="250"} ' \
  <<< "${stats_out}"
echo "=== stats exposition OK ==="

# The serving benchmark, built from this tree (also in --fast). Each
# workload's output checks — finite, non-negative predictions, request
# accounting, and net_escalate's bit-equality with an in-process twin fleet
# — fail the run with a non-zero exit. Two-second runs: timings are not
# compared here.
for workload in net_escalate inproc_prequential net_churn; do
  echo "=== [perfbench] ${workload} output checks ==="
  (cd "${repo_root}" && CARGO_TARGET_DIR=build-check-perfbench \
    python3 perfbench/run.py --workload "${workload}" --seed 1 --seconds 2 \
    --trace 0)
done

if [[ "${fast}" -eq 0 ]]; then
  build_and_test asan address
  echo "=== [asan] checkpoint corruption fault-injection suite ==="
  "${repo_root}/build-check-asan/tests/ckpt_test" \
    --gtest_filter='CorruptionSuite*'
  echo "=== [asan] calibration suite + snapshot fuzz (new ckpt kind) ==="
  "${repo_root}/build-check-asan/tests/calib_test"
  "${repo_root}/build-check-asan/tests/snapshot_fuzz_test" \
    --gtest_filter='SnapshotFuzzTest.Recalibrator*'
  echo "=== [asan] fleet serving suite ==="
  "${repo_root}/build-check-asan/tests/fleet_serve_test"
  echo "=== [asan] wire-protocol fuzz suite (truncation/bit-flip/length lies) ==="
  "${repo_root}/build-check-asan/tests/net_fuzz_test"
  echo "=== [asan] closed-loop WLM suite ==="
  "${repo_root}/build-check-asan/tests/wlm_test"
  "${repo_root}/build-check-asan/tests/wlm_closed_loop_test"
  build_and_test tsan thread
  # The registry-churn stress test is the fleet's TSan acceptance gate:
  # tenant threads predicting/observing while an evictor parks and
  # reactivates their stacks.
  echo "=== [tsan] fleet serving concurrency gate ==="
  "${repo_root}/build-check-tsan/tests/fleet_serve_test" \
    --gtest_filter='FleetServiceTest.ConcurrentDisjointTenantsWithEvictorChurn'
  # Readers predicting (lock-free scale loads) while the recalibrator
  # observes completions: the §4.8 concurrency acceptance gate.
  echo "=== [tsan] calibration concurrency gate ==="
  "${repo_root}/build-check-tsan/tests/calib_test" \
    --gtest_filter='CalibConcurrencyTest.ReadersPredictWhileRecalibratorObserves'
  # Multi-connection blast + graceful shutdown over real sockets: the
  # network edge's TSan acceptance gate (two workers predicting at once,
  # the listener and client threads all racing).
  echo "=== [tsan] network serving concurrency gate ==="
  "${repo_root}/build-check-tsan/tests/net_test" \
    --gtest_filter='NetStressTest.*'
fi

echo "=== all checks passed ==="

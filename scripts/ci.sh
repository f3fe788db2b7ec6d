#!/usr/bin/env sh
# Single CI entry point: chains every verification lane in cost order.
#
#   1. tier-1        fresh build + full ctest + sanitizer re-run of the
#                    transport suites            (scripts/check.sh)
#   2. pxbench       the benchmark's Python unit tests
#                                                (scripts/check.sh --pxbench)
#   3. resilience    kill/restart + checkpoint/rollback suites under a
#                    16-seed torture sweep       (scripts/check.sh --resilience)
#   4. agas          migration edge cases + rebalancer planner/solver/
#                    cluster-model suites under a
#                    16-seed torture sweep       (scripts/check.sh --agas)
#   5. partition     partition schedules + quorum membership/fencing +
#                    gray-failure probing suites under a
#                    16-seed torture sweep       (scripts/check.sh --partition)
#   6. simd          explicit-vectorization suites: VNS padded segments,
#                    seam orientation, ABI-preset kernels, blocked 3D
#                    seed sweep                  (scripts/check.sh --simd)
#   7. serve         scheduling-policy conformance + px::serve isolation
#                    sweeps, then the ws_policy vs BENCH_pr5.json
#                    regression gate             (scripts/check.sh --serve)
#   8. torture       all torture-labeled seed sweeps with a big budget
#                    (64 seeds per property)     (scripts/check.sh --torture)
#   9. stress        the full suite three times over, at -j$(nproc) and
#                    at -j1, to surface load-dependent flakes
#                                                (scripts/check.sh --stress)
#  10. bench         px::bench smoke run vs the committed BENCH_seed.json
#                    baseline, gross-regression threshold for timings, the
#                    in-binary coalescing, rebalance, and explicit-pack
#                    vs auto-vectorized gates exact
#                                                (scripts/check.sh --bench)
#
# Knobs pass straight through: PX_SKIP_SAN=1 skips the sanitizer lane,
# PX_TORTURE_SEEDS overrides both sweep budgets, PX_BENCH_THRESHOLD the
# bench lane's regression threshold. Any lane failing fails the run
# immediately (set -e); later lanes reuse the build tree the first lane
# produced, so the whole chain configures/builds once.
set -eu

scripts=$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)

echo "== ci.sh: lane 1/10 tier-1 (build + full suite + sanitizers) =="
"$scripts/check.sh"

echo "== ci.sh: lane 2/10 pxbench (Python unit tests) =="
"$scripts/check.sh" --pxbench

echo "== ci.sh: lane 3/10 resilience (ctest -L resilience) =="
"$scripts/check.sh" --resilience

echo "== ci.sh: lane 4/10 agas (ctest -L agas) =="
"$scripts/check.sh" --agas

echo "== ci.sh: lane 5/10 partition (ctest -L partition) =="
"$scripts/check.sh" --partition

echo "== ci.sh: lane 6/10 simd (ctest -L simd) =="
"$scripts/check.sh" --simd

echo "== ci.sh: lane 7/10 serve (ctest -L serve + ws_policy perf gate) =="
"$scripts/check.sh" --serve

echo "== ci.sh: lane 8/10 torture (ctest -L torture) =="
"$scripts/check.sh" --torture

echo "== ci.sh: lane 9/10 stress (full suite, repeat until-fail:3) =="
"$scripts/check.sh" --stress

echo "== ci.sh: lane 10/10 bench smoke (px::bench vs BENCH_seed.json) =="
"$scripts/check.sh" --bench

echo "== ci.sh: all lanes passed =="

#!/usr/bin/env sh
# Tier-1 verification: fresh configure, full build, full test suite.
# Run from anywhere; builds into <repo>/build.
#
# A second, sanitizer lane (ASan + UBSan, build-san/) then re-runs the
# transport-heavy suites — fault injection exercises timer/ack races that
# only a sanitizer can vouch for, coalescing the buffer deadline timers and
# domain teardown with timers still armed — the timer service's
# cancel/cancel_and_wait edges (test_scheduler), and the distributed
# stencil suites, whose partition components carry confirm hooks and
# migrate. Skip it with PX_SKIP_SAN=1.
#
# --torture: instead of the tiers above, build and run only the
# ctest-labeled torture suites (px::torture seed sweeps) with a big seed
# budget — 64 seeds per property unless PX_TORTURE_SEEDS overrides it.
#
# --resilience: build and run only the ctest-labeled resilience suites
# (locality kill/restart, failure detector, checkpoint/rollback recovery)
# with a 16-seed sweep per property unless PX_TORTURE_SEEDS overrides it.
#
# --agas: build and run only the ctest-labeled agas suites (migration edge
# cases, rebalancer planner/solver/cluster-model, and the 16-seed
# migration torture sweep; test_torture_migration carries both labels) with
# a 16-seed budget unless PX_TORTURE_SEEDS overrides it.
#
# --partition: build and run only the ctest-labeled partition suites
# (fault-plane partition schedules, quorum membership + split-brain
# fencing, gray-failure indirect probing, and the split-brain torture
# sweep; test_torture_partition carries both labels) with a 16-seed
# budget unless PX_TORTURE_SEEDS overrides it.
#
# --simd: build and run only the ctest-labeled simd suites (pack library,
# VNS layout + padded segments, field2d, the 2D Jacobi ABI-preset kernels,
# and the blocked 3D kernel's seed sweep) with a 16-seed budget unless
# PX_TORTURE_SEEDS overrides it.
#
# --serve: build and run the ctest-labeled serve suites (scheduling-policy
# conformance + px::serve multi-tenant isolation, including the co-tenant
# fail-stop sweep) with a 16-seed budget unless PX_TORTURE_SEEDS overrides
# it, then gate the default ws_policy against the committed PR 5 baseline:
# the policy-interface extraction must keep the spawn/yield/steal hot
# paths within threshold of BENCH_pr5.json (75% smoke threshold unless
# PX_BENCH_THRESHOLD overrides it — same noise rationale as --bench).
#
# --stress: build, then run the full suite three times over
# (ctest --repeat until-fail:3), first at -j$(nproc) and then at -j1, so a
# test that only passes under one load pattern — timing-sensitive waits,
# thresholds near a scheduling delay — fails here instead of as a flake
# in tier-1.
#
# --pxbench: run the benchmark's Python unit tests (pxbench/
# test_*.py: metric arithmetic, BENCHMARK.json vs spec.json agreement)
# with the stock unittest runner (no bytecode is written into the source
# tree), then configure and build the benchmark's C++ workload program
# into build/pxbench without running it, so a library header change that
# breaks pxbench/workloads.cpp fails here rather than in the benchmark.
# The configure disables find_package for GTest and Google Benchmark, so
# the lane also proves the benchmark build needs neither.
#
# --bench: smoke-run the px::bench regression suite (scripts/bench.sh
# --smoke) against the committed baseline BENCH_seed.json when present.
# Smoke timings on a shared CI host are noisy, so the lane only fails on
# gross regressions (threshold 75% unless PX_BENCH_THRESHOLD overrides
# it); the real gate is a full scripts/bench.sh run on a quiet machine.
# Counter-based gates are exempt from the noise carve-out: the suite
# binary exits 1 when parcel coalescing loses its >= 5x frames-on-wire
# reduction (net.many_small_parcels), which fails this lane regardless of
# timing thresholds.
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)

if [ "${1:-}" = "--torture" ]; then
  cmake -B "$repo/build" -S "$repo"
  cmake --build "$repo/build" -j
  (cd "$repo/build" && \
   PX_TORTURE_SEEDS="${PX_TORTURE_SEEDS:-64}" \
   ctest -L torture --output-on-failure)
  exit 0
fi

if [ "${1:-}" = "--resilience" ]; then
  cmake -B "$repo/build" -S "$repo"
  cmake --build "$repo/build" -j
  (cd "$repo/build" && \
   PX_TORTURE_SEEDS="${PX_TORTURE_SEEDS:-16}" \
   ctest -L resilience --output-on-failure)
  exit 0
fi

if [ "${1:-}" = "--agas" ]; then
  cmake -B "$repo/build" -S "$repo"
  cmake --build "$repo/build" -j
  (cd "$repo/build" && \
   PX_TORTURE_SEEDS="${PX_TORTURE_SEEDS:-16}" \
   ctest -L agas --output-on-failure)
  exit 0
fi

if [ "${1:-}" = "--partition" ]; then
  cmake -B "$repo/build" -S "$repo"
  cmake --build "$repo/build" -j
  (cd "$repo/build" && \
   PX_TORTURE_SEEDS="${PX_TORTURE_SEEDS:-16}" \
   ctest -L partition --output-on-failure)
  exit 0
fi

if [ "${1:-}" = "--simd" ]; then
  cmake -B "$repo/build" -S "$repo"
  cmake --build "$repo/build" -j
  (cd "$repo/build" && \
   PX_TORTURE_SEEDS="${PX_TORTURE_SEEDS:-16}" \
   ctest -L simd --output-on-failure)
  exit 0
fi

if [ "${1:-}" = "--serve" ]; then
  cmake -B "$repo/build" -S "$repo"
  cmake --build "$repo/build" -j
  (cd "$repo/build" && \
   PX_TORTURE_SEEDS="${PX_TORTURE_SEEDS:-16}" \
   ctest -L serve --output-on-failure)
  "$repo/scripts/bench.sh" --smoke \
    --out "$repo/build/BENCH_serve_smoke.json" \
    --compare "$repo/BENCH_pr5.json" \
    --threshold "${PX_BENCH_THRESHOLD:-75}"
  exit 0
fi

if [ "${1:-}" = "--stress" ]; then
  cmake -B "$repo/build" -S "$repo"
  cmake --build "$repo/build" -j
  jobs=$(nproc 2>/dev/null || echo 1)
  (cd "$repo/build" && \
   ctest --repeat until-fail:3 -j"$jobs" --output-on-failure && \
   ctest --repeat until-fail:3 -j1 --output-on-failure)
  exit 0
fi

if [ "${1:-}" = "--pxbench" ]; then
  (cd "$repo" && PYTHONDONTWRITEBYTECODE=1 \
   python3 -m unittest discover -s pxbench -p 'test_*.py')
  cmake -B "$repo/build/pxbench" -S "$repo/pxbench" \
    -DCMAKE_DISABLE_FIND_PACKAGE_GTest=ON \
    -DCMAKE_DISABLE_FIND_PACKAGE_benchmark=ON
  cmake --build "$repo/build/pxbench" -j --target pxbench_workloads
  exit 0
fi

if [ "${1:-}" = "--bench" ]; then
  baseline=""
  if [ -f "$repo/BENCH_seed.json" ]; then
    baseline="--compare $repo/BENCH_seed.json \
              --threshold ${PX_BENCH_THRESHOLD:-75}"
  fi
  # shellcheck disable=SC2086  # baseline is intentionally word-split
  "$repo/scripts/bench.sh" --smoke \
    --out "$repo/build/BENCH_smoke.json" $baseline
  exit 0
fi

cmake -B "$repo/build" -S "$repo"
cmake --build "$repo/build" -j
(cd "$repo/build" && ctest --output-on-failure -j)

if [ "${PX_SKIP_SAN:-0}" = "1" ]; then
  echo "check.sh: PX_SKIP_SAN=1, skipping sanitizer lane"
  exit 0
fi

cmake -B "$repo/build-san" -S "$repo" \
  -DPX_SANITIZE=ON -DPX_BUILD_BENCH=OFF -DPX_BUILD_EXAMPLES=OFF
cmake --build "$repo/build-san" -j \
  --target test_fault_injection --target test_parcel \
  --target test_coalesce --target test_scheduler \
  --target test_dist_heat --target test_dist_jacobi --target test_rebalance
(cd "$repo/build-san" && ctest --output-on-failure \
  -R 'test_fault_injection|test_parcel|test_coalesce|test_scheduler|test_dist_heat|test_dist_jacobi|test_rebalance')

#!/usr/bin/env bash
# Full pre-land check: tier-1 build + tests, the DST chaos sweep, ASan/UBSan
# build + tests, a TSan build + concurrency-sensitive tests, and clang-tidy.
# This is what CI runs; run it before pushing.
#
#   scripts/check.sh              # everything (chaos sweep included)
#   scripts/check.sh --fast       # tier-1 only (skip chaos, sanitizers, tidy)
#   scripts/check.sh --tsan       # tier-1 + the TSan concurrency battery only
#   scripts/check.sh --label L    # tier-1 build, then one lane:
#                                 #   ctest -C L -L L
#
# Lanes (ctest labels; tests/CMakeLists.txt and bench/CMakeLists.txt say
# which suites and bench smokes carry each):
#   chaos         the wide 40-seed DST fault-injection sweep
#   differential  every two-implementation differential suite
#   scale         1k/10k-server determinism sweeps, scheduler battery,
#                 10k-server Fig 14 smoke
#   semdiff       semantic-diff batteries + throughput smoke
#   invariants    invariant-checker batteries, DST inconsistent-commit
#                 scenarios + throughput smoke
#   vm            bytecode-VM batteries + cache-ablation smoke
#
# Any other argument is a usage error (exit 2).
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  echo "usage: scripts/check.sh [--fast | --tsan | --label LABEL]" >&2
  exit 2
}

MODE=full
LABEL=""
case "$#:${1:-}" in
  0:) ;;
  1:--fast) MODE=fast ;;
  1:--tsan) MODE=tsan ;;
  2:--label) MODE=label; LABEL="$2" ;;
  *) usage ;;
esac
if [[ "$MODE" == "label" && -z "$LABEL" ]]; then
  usage
fi

JOBS="$(nproc 2>/dev/null || echo 4)"

# ThreadSanitizer over the concurrency-sensitive surface: the shared-snapshot
# Gatekeeper runtime (differential + stress tests), the distribution stack,
# and the DST harness that hot-swaps gatekeeper snapshots from proxy
# callbacks. TSan must be built alone (it is incompatible with ASan).
run_tsan() {
  echo "==> tsan: configure + build (thread)"
  cmake -B build-tsan -S . -DCONFIGERATOR_SANITIZE="thread" >/dev/null
  cmake --build build-tsan -j "$JOBS"

  echo "==> tsan: gatekeeper + distribution + dst tests"
  ctest --test-dir build-tsan --output-on-failure -R \
    '^(gatekeeper_test|gatekeeper_differential_test|gatekeeper_concurrency_test|distribution_test|dst_test)$'

  echo "==> tsan: fig15 2-thread churn smoke"
  (cd build-tsan/bench && ./fig15_gatekeeper_throughput --mt_smoke)
}

echo "==> tier-1: configure + build"
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"

if [[ "$MODE" == "label" ]]; then
  echo "==> lane: ctest -C $LABEL -L $LABEL"
  ctest --test-dir build -C "$LABEL" -L "$LABEL" --no-tests=error \
    --output-on-failure
  echo "==> done (lane $LABEL: full tier-1, sanitizers and clang-tidy skipped)"
  exit 0
fi

echo "==> tier-1: ctest"
ctest --test-dir build --output-on-failure

echo "==> bench smoke: propagation trace (span-derived per-hop latencies)"
(cd build/bench && ./propagation_trace --commits=25 >/dev/null)

echo "==> bench smoke: fig15 2-thread shared-snapshot churn"
(cd build/bench && ./fig15_gatekeeper_throughput --mt_smoke)

if [[ "$MODE" == "tsan" ]]; then
  run_tsan
  echo "==> done (tsan mode: chaos, asan and clang-tidy skipped)"
  exit 0
fi

if [[ "$MODE" == "fast" ]]; then
  echo "==> done (fast mode: chaos, sanitizers and clang-tidy skipped)"
  exit 0
fi

echo "==> chaos: DST wide-seed fault-injection sweep"
ctest --test-dir build -C chaos -L chaos --output-on-failure

echo "==> sanitized: configure + build (address;undefined)"
cmake -B build-asan -S . -DCONFIGERATOR_SANITIZE="address;undefined" >/dev/null
cmake --build build-asan -j "$JOBS"

echo "==> sanitized: ctest"
ctest --test-dir build-asan --output-on-failure

echo "==> sanitized: invariant throughput (ddmin shrink under ASan/UBSan)"
(cd build-asan/bench && ./invariant_throughput >/dev/null)

run_tsan

echo "==> clang-tidy"
cmake --build build --target lint

echo "==> all checks passed"

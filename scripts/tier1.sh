#!/usr/bin/env bash
# Tier-1 gate: full build + tests, then a build-only Release stage, the
# core/info/estimate/util/sched tests under UBSan and the concurrency suite
# under TSan.
#
#   ./scripts/tier1.sh            # standard, Release, UBSan and TSan stages
#   CCAP_SKIP_TSAN=1 ./scripts/tier1.sh   # standard stage only
#   CCAP_RUN_ASAN=1 ./scripts/tier1.sh    # additionally run the
#                                         # info/util/estimate/sched tests under
#                                         # -fsanitize=address (opt-in: ~3x
#                                         # slower, catches the arena
#                                         # over/under-reads the SoA lattice
#                                         # layouts, the counted lane kernels,
#                                         # the banded alignment columns and
#                                         # the contention tick ring are
#                                         # prone to)
#
# The UBSan stage runs -fsanitize=undefined plus float-cast-overflow; it
# catches the overflow/shift bugs the backoff, fault-schedule, banded
# alignment, geometric sampling and tick-ring arithmetic could hide.
#
# Timing is not gated here: the bench harnesses' identity gates run as
# ctest smokes in the standard stage, and end-to-end timings are gated by
# perfbench/ (BENCHMARK.json; see perfbench/README.md).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier1: standard build + full test suite =="
cmake -B build -S . >/dev/null
cmake --build build -j"$(nproc)"
(cd build && ctest --output-on-failure -j"$(nproc)")

if [[ "${CCAP_RUN_ASAN:-0}" == "1" ]]; then
    echo "== tier1: info/util/estimate/sched tests under -fsanitize=address (opt-in) =="
    cmake -B build-asan -S . \
        -DCCAP_SANITIZE=address \
        -DCCAP_BUILD_BENCH=OFF \
        -DCCAP_BUILD_EXAMPLES=OFF >/dev/null
    cmake --build build-asan -j"$(nproc)" --target ccap_util_tests ccap_info_tests ccap_estimate_tests \
        ccap_sched_tests
    # Run the binaries directly: every test they hold runs under ASan,
    # including the SimdDispatch kernel tests whose counted kernels read
    # across rows (a ctest -R filter would only match a subset of the
    # discovered names).
    (cd build-asan && ./tests/ccap_util_tests --gtest_brief=1 \
        && ./tests/ccap_info_tests --gtest_brief=1 \
        && ./tests/ccap_estimate_tests --gtest_brief=1 \
        && ./tests/ccap_sched_tests --gtest_brief=1)
fi

if [[ "${CCAP_SKIP_TSAN:-0}" == "1" ]]; then
    echo "== tier1: Release, UBSan and TSan stages skipped (CCAP_SKIP_TSAN=1) =="
    exit 0
fi

# Every build type must compile under -Werror: optimization levels raise
# warnings (-Wrestrict, -Wmaybe-uninitialized) the default build does not.
echo "== tier1: Release build (build only) =="
cmake -B build-rel -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-rel -j"$(nproc)"

echo "== tier1: core/info/estimate/util/sched tests under -fsanitize=undefined =="
cmake -B build-ubsan -S . \
    -DCCAP_SANITIZE=undefined \
    -DCCAP_BUILD_BENCH=OFF \
    -DCCAP_BUILD_EXAMPLES=OFF >/dev/null
cmake --build build-ubsan -j"$(nproc)" --target ccap_core_tests ccap_info_tests \
    ccap_estimate_tests ccap_util_tests ccap_sched_tests
# Run the binaries directly: every test they hold runs under UBSan
# (a ctest -R filter would only match a subset of the discovered names).
(cd build-ubsan && ./tests/ccap_core_tests --gtest_brief=1 \
    && ./tests/ccap_info_tests --gtest_brief=1 \
    && ./tests/ccap_estimate_tests --gtest_brief=1 \
    && ./tests/ccap_util_tests --gtest_brief=1 \
    && ./tests/ccap_sched_tests --gtest_brief=1)

echo "== tier1: thread-pool + parallel-MC tests under -fsanitize=thread =="
cmake -B build-tsan -S . \
    -DCCAP_SANITIZE=thread \
    -DCCAP_BUILD_BENCH=OFF \
    -DCCAP_BUILD_EXAMPLES=OFF >/dev/null
cmake --build build-tsan -j"$(nproc)" --target ccap_util_tests ccap_info_tests ccap_core_tests ccap_sched_tests ccap_estimate_tests
(cd build-tsan && ctest --output-on-failure -R 'ThreadPool|ParallelFor|ParallelReduce|ParallelMc|FaultInjectionParallel|ContentionParallel|ShardCache|TrackerParallel')
echo "== tier1: OK =="

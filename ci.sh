#!/usr/bin/env bash
# Tier-1 verify: configure, build everything (library, tests, bench,
# examples) and run the full CTest suite. This is the exact line every
# PR must keep green.
#
# Modes / knobs (all optional):
#   ./ci.sh                              # tier-1: configure+build+ctest
#   SANITIZE=address,undefined ./ci.sh   # instrumented build+suite,
#                                        # in its own build dir
#   SANITIZE=thread CTEST_REGEX='batch|queue|service|fabric' ./ci.sh
#                                        # TSan over the threaded
#                                        # suites only
#   BUILD_TYPE=Debug ./ci.sh             # CI matrix entry
#   CXX=clang++ ./ci.sh                  # compiler matrix entry
#   WERROR=OFF ./ci.sh                   # drop -Werror (default ON)
#   HEROSIGN_AVX512=OFF ./ci.sh          # AVX2-only build (no AVX-512
#                                        # backend compiled), own dir
#   HEROSIGN_AVX2=OFF ./ci.sh            # portable-only build (no SIMD
#                                        # backend compiled), own dir;
#                                        # CMake drops AVX-512 too (it
#                                        # is built only over AVX2)
#   HEROSIGN_DISABLE_AVX512=1 ./ci.sh    # runtime fallback: AVX-512
#                                        # built but dispatch pinned to
#                                        # the 8-lane path
#   HEROSIGN_DISABLE_AVX2=1 ./ci.sh      # runtime fallback: fully
#                                        # portable lanes (disabling the
#                                        # narrower ISA implies AVX-512
#                                        # off too)
#   CTEST_REGEX='batch|service' ./ci.sh  # run a CTest subset (-R)
#   FAULT_MATRIX=1 ./ci.sh               # build once, then run the
#                                        # fault/robustness/chaos
#                                        # suites once per canned
#                                        # HEROSIGN_FAULT_PLAN entry
#                                        # (composes with SANITIZE)
#   METRICS_SOAK=1 ./ci.sh               # build, then run a duration-
#                                        # bounded mixed workload with
#                                        # a live MetricsReporter and
#                                        # validate the JSONL snapshot
#                                        # stream (SOAK_SECONDS=N)
#   ./ci.sh --format-check               # clang-format gate only
set -euo pipefail

cd "$(dirname "$0")"

if [[ "${1:-}" == "--format-check" ]]; then
    if ! command -v clang-format >/dev/null 2>&1; then
        # Local convenience skip only: on CI a missing clang-format
        # must fail loudly, not silently green-light the format job.
        if [[ -n "${CI:-}" ]]; then
            echo "ci.sh: clang-format not found (CI set): failing" >&2
            exit 1
        fi
        echo "ci.sh: clang-format not found; skipping format check" >&2
        exit 0
    fi
    mapfile -t files < <(git ls-files \
        'src/*.cc' 'src/*.hh' \
        'tests/*.cc' 'tests/*.hh' \
        'bench/*.cc' 'bench/*.hh' \
        'examples/*.cpp')
    clang-format --dry-run -Werror "${files[@]}"
    echo "ci.sh: clang-format check passed (${#files[@]} files)"
    exit 0
fi

JOBS=${JOBS:-$(nproc 2>/dev/null || echo 4)}
BUILD_TYPE=${BUILD_TYPE:-Release}
WERROR=${WERROR:-ON}
SANITIZE=${SANITIZE:-}
HEROSIGN_AVX2=${HEROSIGN_AVX2:-ON}
HEROSIGN_AVX512=${HEROSIGN_AVX512:-ON}
CTEST_REGEX=${CTEST_REGEX:-}
FAULT_MATRIX=${FAULT_MATRIX:-}
METRICS_SOAK=${METRICS_SOAK:-}

# Sanitized and portable-only builds get their own trees so neither
# cache clobbers (or masquerades as) the plain tier-1 build.
if [[ -n "$SANITIZE" ]]; then
    # One tree per sanitizer set: thread and address instrumentation
    # cannot share objects.
    BUILD_DIR=${BUILD_DIR:-build-sanitize-${SANITIZE//,/-}}
elif [[ "$HEROSIGN_AVX2" != "ON" ]]; then
    BUILD_DIR=${BUILD_DIR:-build-noavx2}
elif [[ "$HEROSIGN_AVX512" != "ON" ]]; then
    BUILD_DIR=${BUILD_DIR:-build-noavx512}
else
    BUILD_DIR=${BUILD_DIR:-build}
fi

CMAKE_ARGS=(
    -DCMAKE_BUILD_TYPE="$BUILD_TYPE"
    -DHEROSIGN_WERROR="$WERROR"
    -DHEROSIGN_ENABLE_AVX2="$HEROSIGN_AVX2"
    -DHEROSIGN_ENABLE_AVX512="$HEROSIGN_AVX512"
)
if [[ -n "$SANITIZE" ]]; then
    CMAKE_ARGS+=(-DHEROSIGN_SANITIZE="$SANITIZE")
    export UBSAN_OPTIONS=${UBSAN_OPTIONS:-print_stacktrace=1}
fi
if command -v ccache >/dev/null 2>&1; then
    CMAKE_ARGS+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

CTEST_ARGS=(--output-on-failure -j "$JOBS")
if [[ -n "$CTEST_REGEX" ]]; then
    CTEST_ARGS+=(-R "$CTEST_REGEX")
fi

cmake -B "$BUILD_DIR" -S . "${CMAKE_ARGS[@]}"
cmake --build "$BUILD_DIR" -j "$JOBS"

if [[ -n "$FAULT_MATRIX" ]]; then
    # One canned plan per injection point, plus the all-points storm.
    # Each entry runs the fault-aware suites in a fresh process with
    # the plan armed from the environment; the chaos fabric keeps the
    # env plan live while the unit suites disarm it and drive their
    # own deterministic schedules on top.
    FAULT_PLANS=(
        'seed=101;hash-compress:every=701:max=8'
        'seed=102;simd-lane:every=5'
        'seed=103;worker-throw:every=11:max=8'
        'seed=104;queue-stall:every=7:ms=1'
        'seed=105;callback-throw:every=2'
        'seed=106;simd-lane:every=9;worker-throw:every=29:max=4;queue-stall:every=13:ms=1;callback-throw:every=5;hash-compress:every=997:max=4'
    )
    for plan in "${FAULT_PLANS[@]}"; do
        echo "ci.sh: fault matrix plan: $plan"
        HEROSIGN_FAULT_PLAN="$plan" ctest --test-dir "$BUILD_DIR" \
            --output-on-failure -j "$JOBS" \
            -R "${CTEST_REGEX:-fault|robustness|chaos}"
    done
    echo "ci.sh: fault matrix passed (${#FAULT_PLANS[@]} plans)"
    exit 0
fi

if [[ -n "$METRICS_SOAK" ]]; then
    # Duration-bounded mixed workload with the telemetry plane armed:
    # the metrics_soak example drives a shared-registry fabric while
    # a MetricsReporter appends one JSON snapshot per period, then
    # self-validates the Prometheus exposition. The python step
    # re-parses the JSONL stream independently.
    SOAK_SECONDS=${SOAK_SECONDS:-5}
    SOAK_OUT="$BUILD_DIR/metrics_soak.jsonl"
    rm -f "$SOAK_OUT"
    "$BUILD_DIR/examples/metrics_soak" \
        --seconds "$SOAK_SECONDS" --out "$SOAK_OUT" --period-ms 500
    python3 - "$SOAK_OUT" <<'EOF'
import json, sys
path = sys.argv[1]
with open(path, encoding="utf-8") as f:
    lines = [l for l in f if l.strip()]
assert len(lines) >= 2, f"expected >= 2 JSONL lines, got {len(lines)}"
prev_signs = -1
for i, line in enumerate(lines, 1):
    doc = json.loads(line)
    for section in ("counters", "gauges", "rates", "cache", "tenants"):
        assert section in doc, f"line {i}: missing {section!r}"
    signs = doc["counters"]["signs_completed"]
    assert signs >= prev_signs, f"line {i}: counter went backwards"
    prev_signs = signs
assert prev_signs > 0, "no signs completed during the soak"
print(f"ci.sh: metrics soak OK ({len(lines)} snapshot lines, "
      f"{prev_signs} signs)")
EOF
    exit 0
fi

ctest --test-dir "$BUILD_DIR" "${CTEST_ARGS[@]}"

#!/usr/bin/env bash
# One-command CI matrix:
#   1. tier-1: default configure + build + ctest (the ROADMAP verify step)
#   2. chaos: the fault-injection suite (`ctest -L chaos`) over 10 fixed
#      FANSTORE_FAULT_SEED values, plus the membership-churn suite
#      (`ctest -L churn`) over 5 fixed FANSTORE_CHURN_SEED values; both
#      repeated under TSan in pass 4; then the bench smokes, including a
#      2 s perfbench run of each BENCHMARK.json workload
#   3. ASan/UBSan: FANSTORE_SANITIZE=address;undefined configure + ctest
#   4. TSan: FANSTORE_SANITIZE=thread + FANSTORE_DEBUG_LOCKORDER=ON + ctest
#      + the chaos seed sweep again under TSan
#   5. clang-tidy over src/ (skipped when clang-tidy is not installed)
#
# Usage: tools/ci.sh [--tier1-only | --flake-hunt N]
#
# --flake-hunt N builds tier-1 and only hunts flaky tests: every test runs
# up to N times (`ctest --repeat until-fail:N`), over tier-1 and then over
# each chaos and churn seed, and each failing test is printed with its seed.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"
jobs="$(nproc 2> /dev/null || echo 4)"

run_pass() {
  local name="$1" dir="$2"
  shift 2
  echo "==== [$name] configure ($dir) ===="
  cmake -B "$dir" -S . "$@"
  echo "==== [$name] build ===="
  cmake --build "$dir" -j "$jobs"
  echo "==== [$name] ctest ===="
  ctest --test-dir "$dir" --output-on-failure -j "$jobs"
}

# Chaos suite over a fixed seed list: every seed yields a different (but
# deterministic) fault schedule, so the sweep covers 10 distinct adversity
# mixes. On failure the offending seed is printed — replay it locally with
#   FANSTORE_FAULT_SEED=<seed> ctest --test-dir <dir> -L chaos
chaos_seeds=(1 2 3 5 8 13 21 34 55 89)
run_chaos_seeds() {
  local name="$1" dir="$2"
  for seed in "${chaos_seeds[@]}"; do
    echo "==== [$name] ctest -L chaos (FANSTORE_FAULT_SEED=$seed) ===="
    if ! FANSTORE_FAULT_SEED="$seed" \
        ctest --test-dir "$dir" --output-on-failure -j "$jobs" -L chaos; then
      echo "ci.sh: chaos suite FAILED under FANSTORE_FAULT_SEED=$seed ($name)" >&2
      echo "ci.sh: replay with: FANSTORE_FAULT_SEED=$seed ctest --test-dir $dir -L chaos" >&2
      exit 1
    fi
  done
}

# Membership-churn suite over fixed seeds: each seed drives a different
# (deterministic) join/leave/kill schedule plus fault-plan adversity in the
# churn sweep test. On failure the seed is printed — replay it with
#   FANSTORE_CHURN_SEED=<seed> ctest --test-dir <dir> -L churn
churn_seeds=(1 7 42 1999 31337)
run_churn_seeds() {
  local name="$1" dir="$2"
  for seed in "${churn_seeds[@]}"; do
    echo "==== [$name] ctest -L churn (FANSTORE_CHURN_SEED=$seed) ===="
    if ! FANSTORE_CHURN_SEED="$seed" \
        ctest --test-dir "$dir" --output-on-failure -j "$jobs" -L churn; then
      echo "ci.sh: churn suite FAILED under FANSTORE_CHURN_SEED=$seed ($name)" >&2
      echo "ci.sh: replay with: FANSTORE_CHURN_SEED=$seed ctest --test-dir $dir -L churn" >&2
      exit 1
    fi
  done
}

# One flake-hunt pass: `ctest --repeat until-fail:N` plus `$@`, run under
# whatever seed variable the caller exported. Prints the failing tests and
# keeps the full log on failure.
hunt_failed=0
hunt_pass() {
  local label="$1" n="$2"
  shift 2
  local log
  log="$(mktemp /tmp/fanstore-flake-hunt.XXXXXX)"
  echo "==== [flake-hunt] $label: ctest --repeat until-fail:$n ===="
  if ctest --test-dir build --output-on-failure -j "$jobs" \
      --repeat "until-fail:$n" "$@" > "$log" 2>&1; then
    grep -E "tests passed" "$log" || true
    rm -f "$log"
  else
    echo "ci.sh: flake hunt FAILED ($label):" >&2
    sed -n '/The following tests FAILED/,$p' "$log" >&2
    echo "ci.sh: full log kept at $log" >&2
    hunt_failed=1
  fi
}

if [ "${1:-}" = "--flake-hunt" ]; then
  rounds="${2:?usage: tools/ci.sh --flake-hunt N}"
  cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  cmake --build build -j "$jobs"
  hunt_pass "tier-1" "$rounds"
  for seed in "${chaos_seeds[@]}"; do
    FANSTORE_FAULT_SEED="$seed" \
      hunt_pass "chaos FANSTORE_FAULT_SEED=$seed" "$rounds" -L chaos
  done
  for seed in "${churn_seeds[@]}"; do
    FANSTORE_CHURN_SEED="$seed" \
      hunt_pass "churn FANSTORE_CHURN_SEED=$seed" "$rounds" -L churn
  done
  if [ "$hunt_failed" -ne 0 ]; then
    echo "ci.sh: flake hunt found failures (see above)" >&2
    exit 1
  fi
  echo "ci.sh: flake hunt green ($rounds runs per test)"
  exit 0
fi

run_pass "tier-1" build -DCMAKE_EXPORT_COMPILE_COMMANDS=ON

run_chaos_seeds "chaos" build

run_churn_seeds "churn" build

# Labeled quick passes: the observability + stress subset (`ctest -L obs` /
# `-L stress`) and the chunked-container subset (`ctest -L chunked`) on their
# own, as the fast signals to rerun while iterating on obs/ or compress/.
echo "==== [labels] ctest -L 'obs|stress' ===="
ctest --test-dir build --output-on-failure -j "$jobs" -L 'obs|stress'
echo "==== [labels] ctest -L chunked ===="
ctest --test-dir build --output-on-failure -j "$jobs" -L chunked
echo "==== [labels] ctest -L plan ===="
ctest --test-dir build --output-on-failure -j "$jobs" -L plan
echo "==== [labels] ctest -L ipc ===="
ctest --test-dir build --output-on-failure -j "$jobs" -L ipc
echo "==== [labels] ctest -L tiered ===="
ctest --test-dir build --output-on-failure -j "$jobs" -L tiered
echo "==== [labels] ctest -L cluster ===="
ctest --test-dir build --output-on-failure -j "$jobs" -L cluster
echo "==== [labels] ctest -L lint ===="
ctest --test-dir build --output-on-failure -j "$jobs" -L lint

# fanstore-lint over all of src/ (DESIGN.md §9): fails on any finding that
# is neither inline-suppressed nor baselined with a justification in
# tools/lint/baseline.txt. (Also runs as the `fanstore_lint_src` ctest, but
# an explicit invocation keeps the findings readable in the CI log.)
echo "==== [lint] fanstore-lint src/ ===="
build/tools/lint/fanstore-lint \
  --inventory src/obs/metric_names.inc \
  --design DESIGN.md \
  --baseline tools/lint/baseline.txt \
  src

# Hot-path perf smoke: quick sharded-vs-legacy cache sweep. Catches gross
# concurrency regressions and refreshes BENCH_hotpath.json at the repo root
# (run `build/bench/bench_hotpath` without --quick for the recorded numbers).
# Since the observability PR it also cross-checks the metrics registry
# against the bench's own op/loader bookkeeping and exits non-zero on any
# disagreement.
echo "==== [bench] bench_hotpath --quick ===="
build/bench/bench_hotpath --quick --json "$repo_root/BENCH_hotpath.json"

# Chunked-container smoke: parallel whole-file decode + the partial-pread
# acceptance check (a 64 KiB pread must decode <= 2 chunks, verified via the
# "chunked.*" counters; non-zero exit on violation). Run without --quick for
# the recorded BENCH_chunked.json numbers.
echo "==== [bench] bench_chunked --quick ===="
build/bench/bench_chunked --quick --json "$repo_root/BENCH_chunked.json"

# Clairvoyant-planner smoke (DESIGN.md §10): reactive prefetch vs
# plan-driven prefetch + Belady eviction at 8 and 64 ranks in virtual time.
# Exits non-zero if clairvoyant is ever slower than reactive or the Belady
# hit rate fails to beat FIFO's. Run without --quick (adds 512 ranks) for
# the recorded BENCH_clairvoyant.json numbers.
echo "==== [bench] bench_clairvoyant --quick ===="
build/bench/bench_clairvoyant --quick --json /tmp/BENCH_clairvoyant_quick.json

# Socket front-door smoke (DESIGN.md §11): event-driven server vs the
# thread-per-connection baseline at a few client counts over UDS. The >=2x
# requests/s acceptance bar at 64+ clients is enforced only on hardware
# with enough cores for the shard/blocker threads to actually run in
# parallel. Run without --quick for the recorded BENCH_ipc.json numbers.
echo "==== [bench] bench_ipc --quick ===="
build/bench/bench_ipc --quick --json /tmp/BENCH_ipc_quick.json

# Tiered-cache smoke (DESIGN.md §12): plain-RAM-only vs the four-tier stack
# across RAM-budget fractions in virtual time. The tier accounting identity
# is enforced on every run; the "tiered beats plain at cache = 1/8 dataset"
# epoch-time gate is enforced only on hardware with >= 8 cores (recorded in
# the JSON either way, like BENCH_ipc.json). Run without --quick for the
# recorded BENCH_tiered.json numbers.
echo "==== [bench] bench_tiered --quick ===="
build/bench/bench_tiered --quick --json /tmp/BENCH_tiered_quick.json

# Sharded-metadata smoke (DESIGN.md §13): classic allgather vs the
# consistent-hash-sharded exchange at 8 and 64 ranks in-process (512 ranks
# modeled analytically), plus the mailbox ping-pong with idle receivers.
# The per-rank exchange-bytes gate is enforced on every run, the ping-pong
# idle-waiter gate on hardware with >= 2 cores, and the build wall-clock
# gate only with >= 8. Run without --quick for the recorded
# BENCH_cluster.json numbers.
echo "==== [bench] bench_cluster --quick ===="
build/bench/bench_cluster --quick --json /tmp/BENCH_cluster_quick.json

# Repository-benchmark smoke (BENCHMARK.json): perfbench builds the FanStore
# libraries from src/ in its own tree (.bench_build/), which neither tier-1
# nor the benches above compile, so a src/ API change that breaks the
# benchmark fails here. run.py exits non-zero on a build failure, a failed
# byte verification, or a failed counter cross-check.
for workload in train_hot train_cold serve_ipc; do
  echo "==== [bench] perfbench $workload (2 s smoke) ===="
  python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 2 --trace 0
done

if [ "${1:-}" = "--tier1-only" ]; then
  echo "ci.sh: tier-1 pass complete (sanitizer matrix skipped)"
  exit 0
fi

# Dense-interleaving stress tests give the sanitizers something to bite on;
# the whole suite runs under each sanitizer regardless.
ASAN_OPTIONS="detect_leaks=0" UBSAN_OPTIONS="halt_on_error=1" \
  run_pass "asan+ubsan" build-asan "-DFANSTORE_SANITIZE=address;undefined"

TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  run_pass "tsan" build-tsan "-DFANSTORE_SANITIZE=thread" \
  -DFANSTORE_DEBUG_LOCKORDER=ON

# The chaos sweep again with every race under TSan's eye (the injector's
# kill/restart and delayed-delivery paths are the interesting interleavings).
TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  run_chaos_seeds "tsan-chaos" build-tsan

# And the membership-churn sweep with TSan watching the cluster service
# threads, rebalance pushes, and client-side resolves interleave.
TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  run_churn_seeds "tsan-churn" build-tsan

tools/run-clang-tidy.sh build

echo "ci.sh: all passes green"

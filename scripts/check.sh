#!/usr/bin/env bash
# Repo verification cycles, keyed off the ctest labels (tests/CMakeLists.txt):
#   tier1  — the correctness gate (every test carries it)
#   slow   — multi-second property/recovery suites
#   stress — seed-scalable torture sweeps (DRTMR_TORTURE_SEEDS widens them)
#   rep    — the replication battery (`ctest --test-dir build -L rep`)
#
# Usage: scripts/check.sh [fast|full|tsan] [--no-tsan] [--no-asan] [--no-ubsan]
#        scripts/check.sh profile [workload]
#        scripts/check.sh kills [N]
#        scripts/check.sh sweeps [N]
#        scripts/check.sh migrations [N]
#
#   fast (default) — build + `ctest -L tier1 -LE slow`: the inner-loop cycle,
#                    a couple of minutes.
#   full           — build + the whole tier-1 gate (slow suites included) +
#                    the lint wall (scripts/lint.sh) + the smoke bench suite
#                    gated against the committed BENCH_*.smoke.json baselines +
#                    a widened torture sweep (protocol analyzer on) +
#                    ThreadSanitizer, AddressSanitizer and UBSanitizer passes
#                    over the stress-labeled targets with a small seed budget.
#   tsan           — only the ThreadSanitizer pass of `full` (its own
#                    build-tsan tree); CI's tsan job runs exactly this.
#   profile        — where the simulator's host time goes: builds perfbench
#                    with -pg (its own build-profile tree), runs one 10 s
#                    untraced run of `workload` (default tpcc_mix) and prints
#                    the top of gprof's flat profile. Host timings, so run it
#                    on a quiet machine.
#   kills          — the no-oracle kill flake/hang count: runs
#                    `torture_test --gtest_filter='NoOracle/*kill*'` N times
#                    (default 1000) in nproc parallel loops, each invocation
#                    under `timeout 60`, and prints failures, hangs and the
#                    method line a flake count must state. Logs of failing
#                    and hung invocations stay in build/kills/; export
#                    DRTMR_TORTURE_DEBUG=1 to capture the harness's stage
#                    monitor in them.
#   sweeps         — the same count for the oracle-mode fault sweep:
#                    `torture_test --gtest_filter='Plans/TortureSweep.*'`,
#                    logs in build/sweeps/.
#   migrations     — the same count for the live-migration suites, where the
#                    pump is a gate actor beside the load:
#                    `migration_test --gtest_filter='MigrationTest.*:MigrationTortureTest.*'`,
#                    logs in build/migrations/.
#
# A failing randomized test prints its DRTMR_TEST_SEED; reproduce with
#   DRTMR_TEST_SEED=<seed> ctest --test-dir build -R <test> --output-on-failure
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=$(nproc 2>/dev/null || echo 4)
CYCLE=fast
RUN_TSAN=1
RUN_ASAN=1
RUN_UBSAN=1
WORKLOAD=tpcc_mix
COUNT=1000
for arg in "$@"; do
  case "$arg" in
    fast|full|tsan|profile|kills|sweeps|migrations) CYCLE="$arg" ;;
    [0-9]*) COUNT="$arg" ;;
    smallbank_local|smallbank_rep_dist|tpcc_mix) WORKLOAD="$arg" ;;
    --no-tsan) RUN_TSAN=0 ;;
    --no-asan) RUN_ASAN=0 ;;
    --no-ubsan) RUN_UBSAN=0 ;;
    *) echo "usage: scripts/check.sh [fast|full|tsan] [--no-tsan] [--no-asan] [--no-ubsan]" >&2
       echo "       scripts/check.sh profile [smallbank_local|smallbank_rep_dist|tpcc_mix]" >&2
       echo "       scripts/check.sh kills|sweeps|migrations [N]" >&2
       exit 2 ;;
  esac
done

if [[ "$CYCLE" == profile ]]; then
  echo "== profile: perfbench $WORKLOAD under gprof (build-profile) =="
  cmake -S perfbench -B build-profile -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-pg" -DCMAKE_EXE_LINKER_FLAGS="-pg"
  cmake --build build-profile -j "$JOBS" --target drtmr_perfbench
  # gmon.out lands in the working directory when the process exits.
  rm -f build-profile/gmon.out
  (cd build-profile && ./drtmr_perfbench --workload "$WORKLOAD" --seed 1 --seconds 10 --trace 0)
  gprof -b -p build-profile/drtmr_perfbench build-profile/gmon.out > build-profile/flat.txt
  head -n 30 build-profile/flat.txt
  exit 0
fi

# Runs test binary `$2 --gtest_filter=$3` COUNT times in JOBS parallel loops,
# each invocation under `timeout 60`, and prints failures, hangs and the
# method line a flake count must state. Logs of failing and hung invocations
# stay in build/$1/.
count_flakes() {
  local name=$1 binary=$2 filter=$3
  cmake -B build -S . > /dev/null
  cmake --build build -j "$JOBS" --target "$binary"
  local logs=build/$name
  rm -rf "$logs"
  mkdir -p "$logs"
  local pinned=no
  if [[ "$(nproc)" -lt "$(nproc --all)" ]]; then
    pinned="yes ($(nproc) of $(nproc --all) cpus)"
  fi
  echo "== $name: $binary '$filter' x$COUNT in $JOBS parallel loops =="
  for ((loop = 0; loop < JOBS; ++loop)); do
    (
      for ((i = loop; i < COUNT; i += JOBS)); do
        rc=0
        timeout 60 "./build/tests/$binary" --gtest_filter="$filter" \
          > "$logs/$i.log" 2>&1 || rc=$?
        echo "$i $rc" >> "$logs/rc.$loop"
        if [[ "$rc" == 0 ]]; then
          rm -f "$logs/$i.log"
        fi
      done
    ) &
  done
  wait
  local failed=0 hung=0
  while read -r i rc; do
    if [[ "$rc" == 124 ]]; then
      hung=$((hung + 1))
      echo "hang: invocation $i ($logs/$i.log)"
    else
      failed=$((failed + 1))
      echo "failure: invocation $i (exit $rc, $logs/$i.log)"
      grep -hE '^\[  FAILED  \]|Failure|lost update|failed to settle' "$logs/$i.log" | head -n 5
    fi
  done < <(cat "$logs"/rc.* | awk '$2 != 0')
  echo "$name: $failed failures, $hung hangs in $COUNT invocations"
  echo "method: $JOBS parallel loops, $COUNT invocations of $binary '$filter'," \
    "timeout 60 s each, pinned: $pinned," \
    "build type $(sed -n 's/^CMAKE_BUILD_TYPE:STRING=//p' build/CMakeCache.txt)"
  [[ "$failed" == 0 && "$hung" == 0 ]]
}

if [[ "$CYCLE" == kills ]]; then
  count_flakes kills torture_test 'NoOracle/*kill*'
  exit
fi

if [[ "$CYCLE" == sweeps ]]; then
  count_flakes sweeps torture_test 'Plans/TortureSweep.*'
  exit
fi

if [[ "$CYCLE" == migrations ]]; then
  count_flakes migrations migration_test 'MigrationTest.*:MigrationTortureTest.*'
  exit
fi

run_tsan() {
  echo "== tsan: stress + concurrency tests under ThreadSanitizer =="
  cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -g" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
  # The obs, virtual-time (SimResourceBackfill, TimeGate, PostedVerb) and
  # workload suites cover the shared registry and clocks; cluster_test
  # (Node.*) and rep_batching_test the service threads' doorbell sleep/wake
  # handshake; fallback_test, fused_lock_test and txn_protocol_test the
  # commit pipeline's lock guard and its shared fallback on both lock
  # strategies; fabric_test and fault_test the verb admission path every
  # thread shares; torture_test and protocol_analyzer_test the
  # analyzer-enabled torture seeds; failover_test, migration_test and
  # GroupCommitNoOracle the epoch install's threaded stamp and drain, and
  # MigrationTorture the migration actor in torture's gate;
  # memory_bus_test and htm_test the bus's per-stripe conflict directory and
  # the per-slot HTM counters that stats() sums while regions run.
  cmake --build build-tsan -j "$JOBS" --target \
    obs_test obs_harness_test virtual_time_test workload_test torture_test \
    protocol_analyzer_test cluster_test rep_batching_test fallback_test fused_lock_test \
    txn_protocol_test fabric_test fault_test failover_test migration_test \
    memory_bus_test htm_test
  ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
    -R 'Histogram|ObsRegistry|ObsHarness|SimResourceBackfill|TimeGate|Workload|ProtocolAnalyzer|Node\.|RepBatching|Fallback|FusedLock|FusedInterleave|^TxnTest|LockedReadSet|Fabric|FaultPlan|PostedVerb|FailoverTest|MigrationTest|MigrationTorture|GroupCommitNoOracle|MemoryBus|LineSet|HtmTest'
  # Sanitized runs are ~10x slower: keep the sweep to one seed per shape.
  DRTMR_TORTURE_SEEDS=1 ctest --test-dir build-tsan --output-on-failure -j "$JOBS" -L stress
}

if [[ "$CYCLE" == tsan ]]; then
  run_tsan
  echo "== tsan cycle passed =="
  exit 0
fi

echo "== build =="
cmake -B build -S .
cmake --build build -j "$JOBS"

if [[ "$CYCLE" == fast ]]; then
  echo "== fast cycle: tier1 minus slow =="
  ctest --test-dir build --output-on-failure -j "$JOBS" -L tier1 -LE slow
  echo "== fast cycle passed =="
  exit 0
fi

echo "== full cycle: complete tier-1 gate =="
ctest --test-dir build --output-on-failure -j "$JOBS" -L tier1

echo "== full cycle: lint wall (scripts/lint.sh) =="
./scripts/lint.sh

echo "== full cycle: widened torture sweep (DRTMR_TORTURE_SEEDS=8) =="
DRTMR_TORTURE_SEEDS=8 ctest --test-dir build --output-on-failure -j "$JOBS" -L stress

echo "== full cycle: bench suite (smoke) against committed baselines =="
# The perf trajectory gate (DESIGN.md §12): runs the standard suite in its
# smoke profile and diffs the result against the committed
# BENCH_*.smoke.json baselines. A >5% virtual-time regression on a gated key
# fails the cycle; scripts/bench_suite.sh smoke --regen refreshes baselines
# when a perf change is intentional.
./scripts/bench_suite.sh smoke

echo "== full cycle: bench suite (smoke-noglob: classic two-verb commit path) =="
# Same smoke workload with the GLOB-fused lock+validate disabled, gated
# against the BENCH_*.smoke.noglob.json baselines: a regression hiding
# behind either flag value turns the cycle red.
./scripts/bench_suite.sh smoke-noglob

echo "== full cycle: no-oracle failover acceptance sweep (32 seeds, analyzer on) =="
# Nobody announces the faults: detection, fencing, re-hosting, and rejoin are
# the membership layer's job (DESIGN.md §10). --analyze layers the protocol
# conformance analyzer (DESIGN.md §11) on top; any typed violation fails the
# sweep. Exits non-zero on any violation.
./build/bench/torture --seeds=32 --plans=freeze,partition,kill \
  --shapes=3x2x3,4x2x3 --no-oracle --no-shrink --analyze

echo "== full cycle: mid-migration kill sweep (32 seeds, no oracle) =="
# A live shard migration is in flight on every seed (--migrate implies
# --no-oracle) when the kill lands: the migration must commit or roll back
# cleanly on its own, and the quiescence oracles judge whichever placement
# the commit-or-rollback machinery produced (DESIGN.md §14).
./build/bench/torture --seeds=32 --plans=kill --shapes=3x2x3 \
  --migrate --no-shrink

echo "== full cycle: group-commit torture sweep (32 seeds, window=8) =="
# Kills land inside an open group-commit window: every decided slot must
# survive through the per-lane watermark (zero lost updates) and every
# speculative slot must be truncated at promotion.
./build/bench/torture --seeds=32 --window=8 --plans=clean,delay,kill \
  --shapes=3x2x3 --no-shrink

if [[ "$RUN_TSAN" == 1 ]]; then
  run_tsan
fi

if [[ "$RUN_ASAN" == 1 ]]; then
  echo "== asan: stress targets under AddressSanitizer =="
  cmake -B build-asan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address -fno-omit-frame-pointer -g" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address"
  cmake --build build-asan -j "$JOBS" --target torture_test recovery_fault_test fault_test
  DRTMR_TORTURE_SEEDS=1 ctest --test-dir build-asan --output-on-failure -j "$JOBS" \
    -L stress
  ctest --test-dir build-asan --output-on-failure -j "$JOBS" \
    -R 'RecoveryFault|FaultPlan'
fi

if [[ "$RUN_UBSAN" == 1 ]]; then
  echo "== ubsan: stress + protocol tests under UndefinedBehaviorSanitizer =="
  cmake -B build-ubsan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=undefined -fno-sanitize-recover=all -g" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=undefined"
  cmake --build build-ubsan -j "$JOBS" --target \
    torture_test protocol_analyzer_test txn_protocol_test record_test
  DRTMR_TORTURE_SEEDS=1 ctest --test-dir build-ubsan --output-on-failure -j "$JOBS" \
    -L stress
  ctest --test-dir build-ubsan --output-on-failure -j "$JOBS" \
    -R 'ProtocolAnalyzer|TxnProtocol|Record'
fi

echo "== all checks passed =="

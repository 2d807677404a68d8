#!/usr/bin/env bash
# CI entry point: tier-1 build + tests, chaos schedules and the crash/
# replay drill, then the same suites under ASan+UBSan
# (-DKANON_SANITIZE=address) and the concurrency tests under TSan
# (-DKANON_SANITIZE=thread).
#
# Usage: ./ci.sh [--skip-sanitizers]
set -euo pipefail
cd "$(dirname "$0")"

JOBS="$(nproc 2>/dev/null || echo 4)"

# Chaos sweep (examples/chaos.cpp): seeded schedules, each running the
# service, net and overload legs and checking invariants 1-13. Each
# invocation also proves seed-reproducibility by running its first seed
# twice. $1 = binary, $2 = base seed, $3 = schedule count.
run_chaos() {
  local scratch
  scratch="$(mktemp -d)"
  "$1" --chaos-seed="$2" --schedules="$3" --jobs=16 --scratch="${scratch}" \
    | tail -5
  rm -rf "${scratch}"
}

# Graceful-drain drill: SIGTERM a TCP kanond while kanon_load is
# hammering it. The daemon must exit 0 with every admitted job
# accounted for, and a journal restart must find *zero* pending jobs
# (drain lost nothing). $1 = kanond binary, $2 = kanon_load binary.
run_tcp_drain_drill() {
  local dir
  dir="$(mktemp -d)"
  "$1" --tcp-port=0 --workers=2 --journal="${dir}/kanond.journal" \
    2>"${dir}/kanond.err" &
  local pid=$!
  for _ in $(seq 1 100); do
    grep -q 'tcp listening' "${dir}/kanond.err" 2>/dev/null && break
    sleep 0.05
  done
  local port
  port="$(grep -o '127.0.0.1:[0-9]*' "${dir}/kanond.err" | cut -d: -f2)"
  [ -n "${port}" ] \
    || { echo "drain drill FAIL: no listening port" >&2; exit 1; }
  "$2" --connections=8 --requests=4000 --port="${port}" \
    --out="${dir}/load.json" >/dev/null 2>&1 &
  local load_pid=$!
  sleep 1
  kill -TERM "${pid}"
  wait "${pid}" \
    || { echo "drain drill FAIL: kanond exited nonzero on SIGTERM" >&2
         exit 1; }
  grep -q 'kanond: drained' "${dir}/kanond.err" \
    || { echo "drain drill FAIL: no drain confirmation" >&2; exit 1; }
  wait "${load_pid}" 2>/dev/null || true
  # Restart on the same journal: a clean drain leaves no pending jobs,
  # so the replay must not resubmit or interrupt anything.
  local replay
  replay="$(printf 'stats\nshutdown\n' \
    | "$1" --once --workers=1 --journal="${dir}/kanond.journal")"
  echo "${replay}" | grep -q 'verb=replay' \
    && { echo "drain drill FAIL: drain left pending jobs in journal" >&2
         exit 1; }
  echo "drain drill: daemon drained under load, journal replay empty"
  rm -rf "${dir}"
}

# TCP crash drill: SIGKILL a TCP kanond mid-load, restart on the same
# journal, and demand the admitted-but-unanswered jobs are *recovered*
# (replayed to an outcome and counted). $1 = kanond, $2 = kanon_load.
run_tcp_crash_drill() {
  local dir
  dir="$(mktemp -d)"
  "$1" --tcp-port=0 --workers=1 --queue-capacity=128 \
    --journal="${dir}/kanond.journal" 2>"${dir}/kanond.err" &
  local pid=$!
  for _ in $(seq 1 100); do
    grep -q 'tcp listening' "${dir}/kanond.err" 2>/dev/null && break
    sleep 0.05
  done
  local port
  port="$(grep -o '127.0.0.1:[0-9]*' "${dir}/kanond.err" | cut -d: -f2)"
  [ -n "${port}" ] \
    || { echo "tcp crash drill FAIL: no listening port" >&2; exit 1; }
  "$2" --connections=8 --requests=4000 --port="${port}" \
    --out="${dir}/load.json" >/dev/null 2>&1 &
  local load_pid=$!
  # Wait until the journal proves jobs were admitted, then pull the rug.
  for _ in $(seq 1 200); do
    grep -q ' admit ' "${dir}/kanond.journal" 2>/dev/null && break
    sleep 0.05
  done
  grep -q ' admit ' "${dir}/kanond.journal" \
    || { echo "tcp crash drill FAIL: no job journaled before kill" >&2
         exit 1; }
  kill -9 "${pid}"
  wait "${pid}" 2>/dev/null || true
  wait "${load_pid}" 2>/dev/null || true
  local replay
  replay="$(printf 'stats\nshutdown\n' \
    | "$1" --once --workers=1 --journal="${dir}/kanond.journal")"
  echo "${replay}" | grep -q 'verb=replay' \
    || { echo "tcp crash drill FAIL: admitted jobs not replayed" >&2
         exit 1; }
  echo "${replay}" | grep -Eq ' journal_replays=[1-9]' \
    || { echo "tcp crash drill FAIL: replays not counted in stats" >&2
         exit 1; }
  echo "tcp crash drill: killed under load, journal recovered admitted jobs"
  rm -rf "${dir}"
}

# A branch_bound instance hard enough to run for seconds: the SIGKILL
# drills kill the daemon mid-solve and must find checkpoints on disk.
HARD_BB_CSV="$(python3 - <<'EOF'
import random
random.seed(11)
rows = [",".join(str(random.randrange(3)) for _ in range(5))
        for _ in range(18)]
print(",".join(f"c{i}" for i in range(5)) + ";" + ";".join(rows))
EOF
)"

# Checkpointed crash drill: start the hard branch_bound job with
# --checkpoint-dir armed, SIGKILL the daemon once the journal records a
# `ckpt` line, restart on the same journal + store, and demand the job
# is *continued* from its snapshot (`resumed=1`) to a valid completion —
# not degraded to the interrupted error. $1 = kanond binary.
run_ckpt_drill() {
  local dir
  dir="$(mktemp -d)"
  ( printf 'anonymize algo=branch_bound k=3 wait=0 csv=%s\n' \
      "${HARD_BB_CSV}"; sleep 60 ) \
    | "$1" --once --workers=1 --journal="${dir}/kanond.journal" \
        --checkpoint-dir="${dir}/ckpt" --checkpoint-every=64 \
        >"${dir}/first.out" 2>"${dir}/first.err" &
  local pid=$!
  for _ in $(seq 1 400); do
    grep -q ' ckpt ' "${dir}/kanond.journal" 2>/dev/null && break
    sleep 0.05
  done
  grep -q ' ckpt ' "${dir}/kanond.journal" \
    || { echo "ckpt drill FAIL: no checkpoint journaled before kill" >&2
         exit 1; }
  kill -9 "${pid}"
  wait "${pid}" 2>/dev/null || true
  local out
  out="$(printf 'stats\nshutdown\n' \
    | "$1" --once --workers=1 --journal="${dir}/kanond.journal" \
        --checkpoint-dir="${dir}/ckpt" --checkpoint-every=64)"
  echo "${out}" | head -2
  echo "${out}" \
    | grep -q 'ok verb=replay old_id=1 resumed=1 .*termination=completed' \
    || { echo "ckpt drill FAIL: killed job not resumed to completion" >&2
         exit 1; }
  echo "${out}" | grep -q ' resumed=1 .*resume_degraded=0 ' \
    || { echo "ckpt drill FAIL: resume not counted in stats" >&2; exit 1; }
  rm -rf "${dir}"
}

# A/B perf gates: each gated micro benchmark at HEAD against the parent
# commit, both built and timed on this host (a baseline file recorded on
# another machine measures the machine, not the change). Exports HEAD~1
# into a temporary tree and builds its gated targets there once, with the
# same configuration. Then, per gate, runs the parent's binary and
# HEAD's (from build/) alternately for AB_PAIRS pairs, alternating
# which goes first, and fails when HEAD's median exceeds 1.25x the
# parent's. A benchmark HEAD~1 lacks (new in HEAD) is reported, and only
# its gate is skipped.
AB_PAIRS=7
AB_GATES=(
  "bench_micro_distance BM_DistanceMatrixBuildTiled/2048"
  "bench_micro_distance BM_DistanceMatrixBuildWide/2048"
  "bench_micro_anonymizers BM_BranchBoundPool"
  "bench_micro_anonymizers BM_MdavCensus"
  "bench_micro_anonymizers BM_ResilientChain/22"
  "bench_micro_anonymizers BM_ResilientChain/40"
  "bench_micro_anonymizers BM_ResilientCensus"
)
run_ab() {
  local tree gate target bench
  tree="$(mktemp -d)"
  git archive HEAD~1 | tar -x -C "${tree}" \
    || { echo "A/B FAIL: cannot export HEAD~1" >&2; exit 1; }
  cmake -B "${tree}/build" -S "${tree}" >/dev/null
  for gate in "${AB_GATES[@]}"; do
    read -r target bench <<<"${gate}"
    cmake --build "${tree}/build" -j"${JOBS}" --target "${target}" \
      >/dev/null 2>&1 || true
  done
  local verdict=0 i side bin order
  for gate in "${AB_GATES[@]}"; do
    read -r target bench <<<"${gate}"
    if ! "${tree}/build/bench/${target}" --benchmark_list_tests \
        --benchmark_filter="^${bench}\$" 2>/dev/null \
        | grep -x "${bench}" >/dev/null
    then
      echo "A/B ${bench}: HEAD~1 has no such benchmark; gate skipped"
      continue
    fi
    for i in $(seq 1 "${AB_PAIRS}"); do
      order="head parent"
      (( i % 2 )) || order="parent head"
      for side in ${order}; do
        bin="./build/bench/${target}"
        [ "${side}" = parent ] && bin="${tree}/build/bench/${target}"
        "${bin}" --benchmark_filter="^${bench}\$" \
          --benchmark_out="${tree}/${target}_${side}_${i}.json" \
          --benchmark_out_format=json >/dev/null
      done
    done
    AB_DIR="${tree}" AB_TARGET="${target}" AB_BENCH="${bench}" \
      AB_NPROC="$(nproc)" \
      AB_CPU="$(grep -m1 'model name' /proc/cpuinfo | cut -d: -f2- | xargs)" \
      AB_BUILD="$(./build/examples/kanond --version | grep -o 'build=[^ ]*')" \
      python3 - <<'PY' || verdict=1
import glob
import json
import os
import statistics

bench = os.environ["AB_BENCH"]

def median(side):
    times, unit = [], ""
    pattern = os.environ["AB_TARGET"] + "_" + side + "_*.json"
    for path in glob.glob(os.path.join(os.environ["AB_DIR"], pattern)):
        with open(path) as f:
            for b in json.load(f)["benchmarks"]:
                if b["name"] == bench:
                    times.append(b["real_time"])
                    unit = b["time_unit"]
    return statistics.median(times), len(times), unit

head, pairs, unit = median("head")
parent, _, _ = median("parent")
print(f"A/B {bench}, median of {pairs} alternating pairs: parent "
      f"{parent:.1f} {unit}, HEAD {head:.1f} {unit} ({head / parent:.2f}x) "
      f"[nproc={os.environ['AB_NPROC']} cpu={os.environ['AB_CPU']} "
      f"{os.environ['AB_BUILD']}]")
assert head <= 1.25 * parent, (
    f"{bench} regressed: HEAD {head:.1f} {unit} vs parent "
    f"{parent:.1f} {unit} (>1.25x)")
PY
  done
  rm -rf "${tree}"
  [ "${verdict}" = 0 ] || exit 1
}

echo "=== tier-1: default build ==="
# Warnings are errors here, so the default build stays warning-free.
cmake -B build -S . -DCMAKE_CXX_FLAGS=-Werror >/dev/null
cmake --build build -j"${JOBS}"
ctest --test-dir build --output-on-failure -j"${JOBS}"

echo "=== tier-1 on one core: taskset -c 0 ==="
# Ordering bugs that only show at some core counts (a drain racing the
# event loop, a counter read before it moves) surface here, not at the
# next re-anchor.
taskset -c 0 ctest --test-dir build --output-on-failure -j"${JOBS}"

echo "=== service smoke: kanond --once ==="
# A scripted session through the daemon binary itself: a cold solve, an
# identical repeat that must be served from the cache, and a malformed
# request that must produce a typed error without killing the loop.
SMOKE_OUT="$(printf '%s\n' \
  'anonymize algo=resilient k=2 csv=age;30;30;31;31' \
  'anonymize algo=resilient k=2 csv=age;30;30;31;31' \
  'anonymize algo=nope k=2 csv=a;1;2' \
  'stats' \
  | ./build/examples/kanond --once)"
echo "${SMOKE_OUT}"
echo "${SMOKE_OUT}" | sed -n 1p | grep -q 'ok verb=anonymize .*cache=miss' \
  || { echo "smoke FAIL: cold request not served" >&2; exit 1; }
echo "${SMOKE_OUT}" | sed -n 2p | grep -q 'ok verb=anonymize .*cache=hit' \
  || { echo "smoke FAIL: repeat not served from cache" >&2; exit 1; }
echo "${SMOKE_OUT}" | sed -n 3p | grep -q 'error .*error=unknown_algorithm' \
  || { echo "smoke FAIL: malformed request not a typed error" >&2; exit 1; }
echo "${SMOKE_OUT}" | sed -n 4p | grep -q 'ok verb=stats .*cache_hits=1' \
  || { echo "smoke FAIL: daemon stopped serving after the error" >&2; exit 1; }

echo "=== cli smoke: unknown flag is a usage error ==="
# A typo'd flag must exit nonzero with a usage message, not run a
# daemon silently misconfigured.
if ./build/examples/kanond --workres=4 >/dev/null 2>"${TMPDIR:-/tmp}/kanond_flag.err"; then
  echo "smoke FAIL: kanond accepted an unknown flag" >&2; exit 1
fi
grep -q 'unknown flag --workres' "${TMPDIR:-/tmp}/kanond_flag.err" \
  || { echo "smoke FAIL: no unknown-flag diagnostic" >&2; exit 1; }
grep -q 'usage: kanond' "${TMPDIR:-/tmp}/kanond_flag.err" \
  || { echo "smoke FAIL: no usage message on unknown flag" >&2; exit 1; }
rm -f "${TMPDIR:-/tmp}/kanond_flag.err"
# A malformed value must not silently become the default (here: no
# watchdog at all).
if ./build/examples/kanond --once --watchdog-ms=5OO </dev/null >/dev/null 2>"${TMPDIR:-/tmp}/kanond_flag.err"; then
  echo "smoke FAIL: kanond accepted --watchdog-ms=5OO" >&2; exit 1
fi
grep -q 'watchdog-ms=5OO is not a finite number' "${TMPDIR:-/tmp}/kanond_flag.err" \
  || { echo "smoke FAIL: no diagnostic for --watchdog-ms=5OO" >&2; exit 1; }
rm -f "${TMPDIR:-/tmp}/kanond_flag.err"

echo "=== robustness smoke: injected worker fault + stats counters ==="
# A deterministic first:1 dispatch fault kills the worker on its first
# attempt; the retry must answer the request anyway, and the stats line
# must surface every robustness counter.
FAULT_OUT="$(printf '%s\n' \
  'anonymize algo=resilient k=2 csv=age;30;30;31;31' \
  'stats' \
  | ./build/examples/kanond --once --workers=1 \
      --faults='seed=7 worker.dispatch=first:1')"
echo "${FAULT_OUT}"
echo "${FAULT_OUT}" | sed -n 1p | grep -q 'ok verb=anonymize' \
  || { echo "smoke FAIL: faulted request not answered" >&2; exit 1; }
echo "${FAULT_OUT}" | sed -n 2p | grep -q ' retries=1 ' \
  || { echo "smoke FAIL: retry not counted in stats" >&2; exit 1; }
for key in shed= retries_exhausted= journal_replays= breakers= \
           cache_rejected=; do
  echo "${FAULT_OUT}" | sed -n 2p | grep -q " ${key}" \
    || { echo "smoke FAIL: stats missing ${key}" >&2; exit 1; }
done

echo "=== crash drill: SIGKILL mid-job, replay from --journal ==="
# Two fire-and-forget jobs on a single worker: a hard exact_dp instance
# (22 distinct rows — minutes of DP) that the worker starts, and an easy
# one that stays queued. SIGKILL the daemon once the journal shows the
# hard job started; the restarted daemon must answer the queued job from
# the journal and mark the started one with the typed interrupted error.
CRASH_DIR="$(mktemp -d)"
CRASH_JOURNAL="${CRASH_DIR}/kanond.journal"
HARD_CSV="a$(for i in $(seq 0 21); do printf ';r%d' "${i}"; done)"
( printf '%s\n' \
    "anonymize algo=exact_dp k=2 wait=0 csv=${HARD_CSV}" \
    'anonymize algo=resilient k=2 wait=0 csv=b;1;1;2;2'; \
  sleep 15 ) \
  | ./build/examples/kanond --once --workers=1 \
      --journal="${CRASH_JOURNAL}" \
      >"${CRASH_DIR}/first.out" 2>"${CRASH_DIR}/first.err" &
KANOND_PID=$!
for _ in $(seq 1 200); do
  grep -q ' start ' "${CRASH_JOURNAL}" 2>/dev/null && break
  sleep 0.05
done
grep -q ' start ' "${CRASH_JOURNAL}" \
  || { echo "crash drill FAIL: hard job never started" >&2; exit 1; }
kill -9 "${KANOND_PID}"
wait "${KANOND_PID}" 2>/dev/null || true
REPLAY_OUT="$(printf 'stats\nshutdown\n' \
  | ./build/examples/kanond --once --workers=1 \
      --journal="${CRASH_JOURNAL}")"
echo "${REPLAY_OUT}"
echo "${REPLAY_OUT}" | grep -q 'error verb=replay .*error=interrupted' \
  || { echo "crash drill FAIL: started job not marked interrupted" >&2
       exit 1; }
echo "${REPLAY_OUT}" | grep -q 'ok verb=replay old_id=' \
  || { echo "crash drill FAIL: queued job not replayed" >&2; exit 1; }
echo "${REPLAY_OUT}" | grep -q ' journal_replays=2 ' \
  || { echo "crash drill FAIL: replays not counted in stats" >&2; exit 1; }
rm -rf "${CRASH_DIR}"

echo "=== crash drill: SIGKILL with checkpointing armed, resume ==="
run_ckpt_drill ./build/examples/kanond

echo "=== chaos: 100 seeded schedules (default build) ==="
run_chaos ./build/examples/chaos 1000 100

echo "=== tcp drain drill: SIGTERM under load loses nothing ==="
run_tcp_drain_drill ./build/examples/kanond ./build/examples/kanon_load

echo "=== tcp crash drill: SIGKILL under load, journal recovers ==="
run_tcp_crash_drill ./build/examples/kanond ./build/examples/kanon_load

echo "=== perf smoke: TCP serving throughput vs committed baseline ==="
# The closed-loop load harness against the in-process stack. The gate
# is deliberately loose (4x) — shared-runner noise — but catches a
# serializing regression in the event loop, and requires a clean
# protocol ledger: every request answered, zero protocol errors.
./build/examples/kanon_load --connections=16 --requests=400 \
  --out=BENCH_service.json >/dev/null
python3 - <<'EOF'
import json

with open("BENCH_service.json") as f:
    run = json.load(f)
with open("bench/BENCH_service_baseline.json") as f:
    baseline = json.load(f)

print(f"throughput {run['throughput_rps']:.1f} rps "
      f"(baseline {baseline['throughput_rps']:.1f}), "
      f"p50 {run['latency_ms']['p50']:.1f} ms, "
      f"p99 {run['latency_ms']['p99']:.1f} ms, "
      f"shed {run['shed']}")
assert run["protocol_errors"] == 0, "protocol errors under load"
assert run["transport_errors"] == 0, "transport errors under load"
assert run["ok"] + run["typed_errors"] + run["shed"] == run["requests"], (
    "request ledger does not reconcile")
assert run["throughput_rps"] >= baseline["throughput_rps"] / 4, (
    f"TCP throughput regressed: {run['throughput_rps']:.1f} rps vs "
    f"baseline {baseline['throughput_rps']:.1f} (>4x)")
EOF

echo "=== overload goodput gate: open-loop brownout vs committed baseline ==="
# Open-loop Poisson arrivals push the in-process service past
# saturation while the overload plane (CoDel admission + brownout
# ladder) defends goodput: answers delivered inside the deadline. The
# tables have 2048 rows, so cluster_greedy+local_search answers every
# request (branch_bound declines above 28 rows), and the offered rate is
# 100 rps per worker (hermetic kanon_load runs max(2, nproc) workers),
# about three times what the service answers (512-row tables stopped
# shedding once local search's probes went to column masks). The run
# must shed or brown out something, or the stage is not overloading
# anything. The goodput gate is loose (4x, shared-runner noise) but
# catches the plane silently stopping to degrade — goodput under
# overload collapses without it. The ledger must stay clean: every
# launched request is answered ok or typed, zero protocol errors.
OVERLOAD_WORKERS="$(nproc)"
(( OVERLOAD_WORKERS >= 2 )) || OVERLOAD_WORKERS=2
./build/examples/kanon_load --connections=16 --requests=300 --rows=2048 \
  --target-rps="$(( 100 * OVERLOAD_WORKERS ))" --deadline-ms=500 \
  --overload-target-ms=25 --brownout=auto --out=BENCH_overload.json \
  >/dev/null
python3 - <<'EOF'
import json

with open("BENCH_overload.json") as f:
    run = json.load(f)
with open("bench/BENCH_overload_baseline.json") as f:
    baseline = json.load(f)

print(f"offered {run['offered_rps']:.0f} rps: "
      f"goodput {run['goodput_rps']:.1f} rps "
      f"(baseline {baseline['goodput_rps']:.1f}), "
      f"good {run['good']}/{run['requests']}, shed {run['shed']}, "
      f"browned_out {run['browned_out']}, "
      f"p99 {run['latency_ms']['p99']:.1f} ms")
assert run["mode"] == "open_loop", "expected an open-loop run"
assert run["protocol_errors"] == 0, "protocol errors under overload"
assert run["transport_errors"] == 0, "transport errors under overload"
answered = (run["ok"] + run["typed_errors"] + run["shed"]
            + run["deadline_infeasible"])
assert answered == run["requests"], (
    "overload request ledger does not reconcile")
assert run["good"] > 0, "no request finished inside its deadline"
assert run["shed"] + run["browned_out"] > 0, (
    "nothing shed or browned out: the offered load no longer overloads")
assert run["goodput_rps"] >= baseline["goodput_rps"] / 4, (
    f"goodput under overload regressed: {run['goodput_rps']:.1f} rps vs "
    f"baseline {baseline['goodput_rps']:.1f} (>4x)")
EOF

echo "=== perf gate: dense distance build vs scalar seed ==="
# The dense oracle's fill (a byte-cell strip fill over the columnar
# mirror, parallel over rows; the "Tiled" benchmark name is historical,
# kept because the A/B gate keys on it) must beat the seed's serial
# row-major double loop at n = 2048 in the same run. The raw
# google-benchmark numbers land in BENCH_distance.json.
./build/bench/bench_micro_distance \
  --benchmark_filter='DistanceMatrixBuild' \
  --benchmark_out=BENCH_distance.json --benchmark_out_format=json \
  >/dev/null
python3 - <<'EOF'
import json

with open("BENCH_distance.json") as f:
    runs = {b["name"]: b for b in json.load(f)["benchmarks"]
            if b.get("run_type") == "iteration"}
scalar = runs["BM_DistanceMatrixBuildScalarSeed/2048"]["real_time"]
tiled = runs["BM_DistanceMatrixBuildTiled/2048"]["real_time"]
print(f"n=2048: scalar seed {scalar:.1f} ms, dense build {tiled:.1f} ms "
      f"({scalar / tiled:.2f}x)")
assert tiled < scalar, "dense distance build no faster than scalar seed"
EOF

echo "=== A/B gates vs HEAD~1: distance build, branch & bound pool, mdav, chain ==="
# None may regress against the parent commit on this host (see run_ab):
# the n = 2048 dense distance build on the byte plane and on 4-byte
# codes (a table with a code of 255 or more), branch_bound on kanon_load's
# 256-table pool at the 2000-node budget, mdav on a 2048-row census
# table at k=5 (oracle build included), and the default resilient chain
# on 32 tables of 22 rows (branch_bound answers), on 32 of 40 rows and
# on one 2048-row census table at k=5 without a node budget (both
# answered by cluster_greedy+local_search).
run_ab

echo "=== terminal-path guard: the suppress_all answer grows linearly ==="
# The path a request falls back to once its retry budget is spent
# (suppress_all, the suppressed relation as CSV, the answer parsed back
# and checked k-anonymous) is O(nm). At 10x the rows, linear growth is
# about 10x the time and quadratic growth 100x; the gate allows 30x.
TERMINAL_JSON="$(mktemp)"
./build/bench/bench_micro_service --benchmark_filter='TerminalPath' \
  --benchmark_repetitions=5 --benchmark_out="${TERMINAL_JSON}" \
  --benchmark_out_format=json >/dev/null
TERMINAL_JSON="${TERMINAL_JSON}" python3 - <<'EOF'
import json
import os

with open(os.environ["TERMINAL_JSON"]) as f:
    medians = {b["run_name"]: b["real_time"]
               for b in json.load(f)["benchmarks"]
               if b.get("aggregate_name") == "median"}

small = medians["BM_TerminalPathSuppressAll/100000"]
large = medians["BM_TerminalPathSuppressAll/1000000"]
print(f"terminal path: 1e5 rows {small:.1f} ms, 1e6 rows {large:.1f} ms "
      f"({large / small:.1f}x)")
assert large <= 30 * small, (
    f"terminal path grew superlinearly: {large / small:.1f}x for 10x "
    "the rows (gate 30x)")
EOF
rm -f "${TERMINAL_JSON}"

echo "=== coreset quality gate: sample-solve-assign gap vs direct ==="
# E16 at n = 2048: the coreset pipeline (sample at the default rate,
# solve the weighted coreset, assign the full table) must stay within
# 1.5x of the direct solver's cost, and every partition in the rate
# sweep must be a valid k-anonymous partition of the FULL table. The
# run is seeded end to end, so the gap is deterministic, not noise.
./build/bench/exp_e16_coreset --n=2048 --k=5 --out=BENCH_coreset.json \
  >/dev/null
python3 - <<'EOF'
import json

with open("BENCH_coreset.json") as f:
    run = json.load(f)

print(f"n={run['n']} k={run['k']} inner={run['inner']}: "
      f"direct cost {run['direct_cost']}, "
      f"default-rate gap {run['default_gap']:.3f}x")
for point in run["sweep"]:
    print(f"  rate {point['rate']:.3f}: cost {point['cost']}, "
          f"gap {point['gap']:.3f}x")
assert run["all_valid"], "coreset sweep emitted an invalid partition"
assert run["default_gap"] <= 1.5, (
    f"coreset cost gap regressed: {run['default_gap']:.3f}x vs "
    "direct (gate 1.5x)")
for shape in run["shapes"]:
    print(f"  shape {shape['shape']}: rows {shape['rows']}, "
          f"gap {shape['gap']:.3f}x, "
          f"valid {shape['valid']}")
assert run["shapes_valid"], (
    "coreset shape sweep emitted an invalid partition")
EOF

echo "=== shard speedup gate: plan/solve/merge vs direct solve ==="
# E17 at n = 65536: the shard pipeline (median-cut plan, per-shard inner
# solve, merge-repair) must beat the unsharded inner on wall-clock —
# MDAV is superlinear, so S solves of n/S rows win even run serially —
# and stay within 1.5x of its suppression cost. Seeded end to end.
./build/bench/exp_e17_shard --n=65536 --k=5 --shards=8 \
  --out=BENCH_shard.json >/dev/null
python3 - <<'EOF'
import json

with open("BENCH_shard.json") as f:
    run = json.load(f)

print(f"n={run['n']} k={run['k']} inner={run['inner']} "
      f"shards={run['shards']}: direct {run['direct_seconds']:.2f}s "
      f"cost {run['direct_cost']}, sharded {run['sharded_seconds']:.2f}s "
      f"cost {run['sharded_cost']} -> speedup {run['speedup']:.2f}x, "
      f"gap {run['gap']:.3f}x")
assert run["valid"], "sharded pipeline emitted an invalid partition"
assert run["sharded_seconds"] < run["direct_seconds"], (
    f"sharded solve ({run['sharded_seconds']:.2f}s) did not beat the "
    f"direct solve ({run['direct_seconds']:.2f}s)")
assert run["gap"] <= 1.5, (
    f"shard cost gap regressed: {run['gap']:.3f}x vs direct (gate 1.5x)")
EOF

if [[ "${1:-}" == "--skip-sanitizers" ]]; then
  echo "=== sanitizer pass skipped ==="
  exit 0
fi

echo "=== tier-1 under ASan+UBSan ==="
cmake -B build-asan -S . -DKANON_SANITIZE=address >/dev/null
cmake --build build-asan -j"${JOBS}"
# abort_on_error makes sanitizer findings fail the death tests' parent
# process visibly instead of being swallowed by the fork.
ASAN_OPTIONS="abort_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
  ctest --test-dir build-asan --output-on-failure -j"${JOBS}"

echo "=== service smoke under ASan ==="
printf '%s\n' \
  'anonymize algo=resilient k=2 csv=age;30;30;31;31' \
  'anonymize algo=resilient k=2 csv=age;30;30;31;31' \
  | ASAN_OPTIONS="abort_on_error=1" ./build-asan/examples/kanond --once \
  | grep -q 'cache=hit' \
  || { echo "smoke FAIL: ASan kanond session" >&2; exit 1; }

echo "=== crash drill under ASan: SIGKILL with checkpointing armed ==="
ASAN_OPTIONS="abort_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
  run_ckpt_drill ./build-asan/examples/kanond

echo "=== chaos: 100 seeded schedules under ASan ==="
ASAN_OPTIONS="abort_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
  run_chaos ./build-asan/examples/chaos 2000 100

echo "=== concurrency tests under TSan ==="
# The service stack is where threads actually interleave (queue, worker
# pool, breakers, journal, cancellation) — run those suites plus the
# parallel-utility tests under -fsanitize=thread.
cmake -B build-tsan -S . -DKANON_SANITIZE=thread >/dev/null
cmake --build build-tsan -j"${JOBS}"
TSAN_OPTIONS="halt_on_error=1" \
  ctest --test-dir build-tsan --output-on-failure -j"${JOBS}" \
    -R 'MetricsRegistryTest|QueueTest|WorkerPoolTest|CancelRaceTest|ServerTest|ServerFuzzTest|BreakerTest|StageBreakerTest|JournalTest|JournalCheckpoint|WatchdogTest|WatchdogPoolTest|CheckpointStoreTest|FaultRegistryTest|ChaosTest|Parallel|DataPlaneEquivalenceTest|DistanceOracleTest|GroupStatsTest|PackedTableTest|TcpServerTest|FrameEnvelope|NetCodec|FrameFuzz|CoresetSamplerTest|CoresetAssignTest|CoresetAnonymizerTest|WeightedGroupStatsTest|ShardPlanTest|ShardMergeTest|ShardedAnonymizerTest|SolveTimeEstimatorTest|CoDelAdmissionTest|RetryBudgetTest|HealthGovernorTest|OverloadControlTest|OverloadIntegrationTest'

echo "=== chaos: 100 seeded schedules under TSan ==="
TSAN_OPTIONS="halt_on_error=1" \
  run_chaos ./build-tsan/examples/chaos 3000 100

echo "=== ci.sh: all green ==="

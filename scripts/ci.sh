#!/usr/bin/env sh
# The tier-1 gate, in order: release build, test suite, static analysis.
# This is exactly what a PR must keep green (ROADMAP.md "tier-1").
#
# Usage: scripts/ci.sh [workspace-root]
#
# Exit codes (distinct per stage, for CI triage):
#   0  everything green
#   20 workspace build failed
#   21 test suite failed
#   22 benchmark harness failed to compile
#   23 chaos soak failed (fault-injection resilience regression)
#   24 interprocedural findings (MOCHI012/013/014: deadline loss,
#      retry soundness, relaxed atomics) not covered by lint-allow.json
#   25 lint runtime budget blown (call-graph construction must stay
#      under 30s or the pre-PR gate stops being run)
#   26 write-scaling gate failed (a04_contention: striped LSM puts must
#      scale >= 2x at 4 threads without regressing single-thread p50)
#   27 a04_contention ran but emitted no target/BENCH_a04.json
#   28 findings not in lint-baseline.sarif (new lint debt; fix it or
#      regenerate the baseline deliberately with --write-baseline)
#   29 baseline lint runtime budget blown (>= 30s)
#   33 routing gate failed (a09_routing: 4-provider mixed throughput
#      must be >= 2x the single-provider baseline)
#   34 a09_routing ran but emitted no target/BENCH_a09.json
#   35 live-rebalance soak failed (zero-acked-write-loss or
#      erase-resurrection regression while a keyspace member
#      joins/retires mid-traffic, at rf=1 or rf=3)
#   36 provider-kill chaos failed (replicated keyspace lost an acked
#      write, stopped serving quorum reads, or failed to re-converge
#      after a member was crashed mid-traffic at rf=3)
#   37 benchmark smoke failed (mochi-perf's own tests, or a 2 s
#      point_rf3_map run that read back a wrong value or got an error)
#   38 leg concurrency failed (posted forwards, or the legs of one
#      routed operation, ran one after another instead of overlapping;
#      or a posted forward left its books unbalanced)
#   10+ static-analysis failures (see scripts/lint.sh)
set -u

root="${1:-$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)}"
cd "$root"

# Shared by every gate that only manifests with real parallelism (the
# bench gates).
cpus=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)

echo "==> cargo build --release"
cargo build --release || exit 20

# The seeded chaos soak (tests/chaos_soak.rs) runs first and on its own
# so a resilience regression triages as 23 before the full suite's 21
# swallows it. The full suite still includes it — the re-run is cheap
# and keeps `cargo test -q` self-contained.
echo "==> cargo test --test chaos_soak"
cargo test -q --test chaos_soak || exit 23

# The routed-keyspace soak (crates/core/tests/routed_rebalance.rs) also
# runs on its own first: a zero-acked-write-loss regression during a
# live rebalance triages as 35 instead of disappearing into 21. The
# suite covers both replication factors (rf=1 over three seeds, rf=3
# over one): they share one data path.
echo "==> cargo test -p mochi-core --test routed_rebalance"
cargo test -q -p mochi-core --test routed_rebalance || exit 35

# Provider-kill chaos (crates/core/tests/replicated_kill.rs, DESIGN.md
# §18): at replication_factor 3 a member process is crashed abruptly
# mid-traffic under a seeded fault plane; the replicated keyspace must
# lose zero acked writes, keep serving quorum reads through the outage,
# and re-converge every surviving replica after fail_member. Runs on
# its own so a replication regression triages as 36 — on every host:
# the test is part of `cargo test -q` anyway and takes ~15 s on 2 CPUs.
echo "==> cargo test -p mochi-core --test replicated_kill"
cargo test -q -p mochi-core --test replicated_kill || exit 36

# Leg concurrency (DESIGN.md §7, §17.2): a routed operation posts every
# leg from the caller's thread and then waits. Nothing but wall time
# tells a fan-out that quietly went back to one leg after another from
# one that overlaps, so the tests that time it — margo's `posted_*` and
# crates/core/tests/leg_concurrency.rs — run on their own and triage as
# 38 rather than as one more failure inside 21.
echo "==> leg concurrency (mochi-margo posted_*, mochi-core leg_concurrency)"
cargo test -q -p mochi-margo --lib posted_ || exit 38
cargo test -q -p mochi-core --test leg_concurrency || exit 38

echo "==> cargo test"
cargo test -q || exit 21

# Benchmark smoke (crates/perf/README.md): the one perf stage that needs no
# cores, so it fires on the 1-2-CPU host too. mochi-perf's tests (stand-in
# behaviour, metric registry vs BENCHMARK.json, a 300 ms run of every
# workload), then two seconds of the replicated point workload, whose
# driver checks every value it reads back and exits non-zero on any
# failed operation. No timing is asserted.
echo "==> mochi-perf smoke"
python3 crates/perf/bench.py cargo test -p mochi-perf || exit 37
python3 crates/perf/bench.py --workload point_rf3_map --seed 2 --seconds 2 --trace 0 || exit 37

# Benches are not run in CI (timing-sensitive), but they must compile:
# they carry the experiment assertions of EXPERIMENTS.md.
echo "==> cargo bench --no-run"
cargo bench -p mochi-bench --no-run || exit 22

# Write-scaling gate (DESIGN.md §15): a04_contention asserts >= 2x
# striped-vs-single-stripe LSM put throughput at 4 threads plus a
# single-thread p50 non-regression, and records the measured numbers in
# target/BENCH_a04.json. The one timing-sensitive exception to the
# "benches don't run in CI" rule — it only gates where contention can
# actually manifest (>= 4 CPUs) and can be skipped outright with
# MOCHI_SKIP_BENCH_GATE=1 (offline/minimal containers, shared runners).
if [ "${MOCHI_SKIP_BENCH_GATE:-0}" = "1" ] || [ "$cpus" -lt 4 ]; then
    echo "==> write-scaling gate skipped (cpus=${cpus}, MOCHI_SKIP_BENCH_GATE=${MOCHI_SKIP_BENCH_GATE:-0})"
else
    echo "==> cargo bench a04_contention (write-scaling gate)"
    rm -f target/BENCH_a04.json
    cargo bench -p mochi-bench --bench a04_contention || exit 26
    if [ ! -f target/BENCH_a04.json ]; then
        echo "ci.sh: a04_contention emitted no target/BENCH_a04.json" >&2
        exit 27
    fi
fi

# Routing gate (DESIGN.md §17): a09_routing asserts >= 2x aggregate
# mixed read/write throughput at 4 providers vs 1 through the routed
# keyspace, and records throughput + batch p50/p99 per provider count
# in BENCH_a09.json (target/ + committed repo-root copy). Same skip
# policy as the a04 gate: the fan-out cannot manifest on < 4 CPUs.
if [ "${MOCHI_SKIP_BENCH_GATE:-0}" = "1" ] || [ "$cpus" -lt 4 ]; then
    echo "==> routing gate skipped (cpus=${cpus}, MOCHI_SKIP_BENCH_GATE=${MOCHI_SKIP_BENCH_GATE:-0})"
else
    echo "==> cargo bench a09_routing (routing gate)"
    rm -f target/BENCH_a09.json
    cargo bench -p mochi-bench --bench a09_routing || exit 33
    if [ ! -f target/BENCH_a09.json ]; then
        echo "ci.sh: a09_routing emitted no target/BENCH_a09.json" >&2
        exit 34
    fi
fi

# Interprocedural gate: the workspace must carry zero unallowlisted
# MOCHI012/013/014 findings, triaged distinctly from the rest of the
# lint (scripts/lint.sh would fold them into exit 10). The run is also
# timed — the call graph is rebuilt on every PR, so a resolution blowup
# that makes the lint slow is itself a CI regression.
echo "==> mochi-lint (interprocedural gate: MOCHI012/013/014)"
mkdir -p target
interproc_start=$(date +%s)
cargo run -q -p mochi-lint -- --root "$root" --format json \
    > target/lint-interproc.json || true # non-interproc findings fall through
interproc_elapsed=$(( $(date +%s) - interproc_start ))
if grep -Eq '"rule": "MOCHI01[234]"' target/lint-interproc.json; then
    echo "ci.sh: unallowlisted interprocedural findings:" >&2
    grep -E '"rule": "MOCHI01[234]"' target/lint-interproc.json >&2
    exit 24
fi
if [ "$interproc_elapsed" -ge 30 ]; then
    echo "ci.sh: mochi-lint took ${interproc_elapsed}s (budget 30s)" >&2
    exit 25
fi
echo "    clean in ${interproc_elapsed}s (budget 30s)"
# Any other finding class falls through to the full lint below, which
# triages it with the finer-grained 10/11 codes.

# Baseline gate (DESIGN.md §16): the delta against the committed SARIF
# baseline must be empty. Unlike the absolute gates above, this one only
# fails on *new* findings — fingerprints are line-drift-proof, so pure
# refactors pass while fresh debt (even of an already-frozen class)
# does not. Timed separately: the baseline run rebuilds the call graph
# a second time and must also stay inside the 30s budget.
echo "==> mochi-lint (baseline gate: lint-baseline.sarif)"
baseline_start=$(date +%s)
cargo run -q -p mochi-lint -- --root "$root" --format sarif \
    --baseline "$root/lint-baseline.sarif" > target/lint-baseline-run.sarif
baseline_status=$?
baseline_elapsed=$(( $(date +%s) - baseline_start ))
case "$baseline_status" in
    0) ;;
    1) echo "ci.sh: findings not in lint-baseline.sarif (see above)" >&2; exit 28 ;;
    3) ;; # stale allowlist entries triage as 11 via lint.sh below
    *) echo "ci.sh: baseline lint failed (exit $baseline_status)" >&2
       exit "$baseline_status" ;;
esac
if [ "$baseline_elapsed" -ge 30 ]; then
    echo "ci.sh: baseline mochi-lint took ${baseline_elapsed}s (budget 30s)" >&2
    exit 29
fi
echo "    no new findings in ${baseline_elapsed}s (budget 30s)"

exec "$root/scripts/lint.sh" "$root"

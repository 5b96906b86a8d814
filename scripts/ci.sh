#!/usr/bin/env sh
# The tier-1 gate, in order: release build, test suite, static analysis.
# This is exactly what a PR must keep green (ROADMAP.md "tier-1").
#
# Usage: scripts/ci.sh [workspace-root]
#
# Every stage fires on every host. The two assertions that need >= 4 CPUs
# to mean anything (a04_contention's write scaling, a09_routing's fan-out)
# are not stages here: scripts/bench-multicore.sh runs them, opt-in.
#
# Exit codes (distinct per stage, for CI triage):
#   0  everything green
#   20 workspace build failed
#   21 test suite failed (the umbrella package's tests, or mochi-lint's
#      own — or mochi-lint is no longer clippy-clean)
#   22 benchmark harness failed to compile
#   23 chaos soak failed (fault-injection resilience regression)
#   35 live-rebalance soak failed (zero-acked-write-loss or
#      erase-resurrection regression while a keyspace member
#      joins/retires mid-traffic, at rf=1 or rf=3), or a mochi-core
#      unit test did (ring, write sets, who copies a moved key where,
#      quorum arithmetic)
#   36 provider-kill chaos failed (replicated keyspace lost an acked
#      write, stopped serving quorum reads, or failed to re-converge
#      after a member was crashed mid-traffic at rf=3)
#   37 benchmark smoke failed (mochi-perf's own tests, or a 2 s
#      point_rf3_map run that read back a wrong value or got an error)
#   38 leg concurrency failed (posted forwards, or the legs of one
#      routed operation, ran one after another instead of overlapping;
#      or a posted forward left its books unbalanced), or the RPC
#      layers' unit tests failed pinned to one CPU (a lost progress
#      arming or a lost unpark)
#   39 LSM backend failed (mochi-util's unit tests — the CRC-32 kernels
#      against each other — mochi-yokan's own suites — unit, concurrent
#      consistency, integration, the seeded model check — or a 2 s
#      ingest_rf1_lsm run that read back a wrong value or got an error)
#   40 allocation budget exceeded (a layer of the data path went back to
#      allocating per key or per monitoring event:
#      crates/core/tests/alloc_budget.rs counts heap allocations per
#      RoutedKv call with a counting global allocator)
#   10-13, 2 static-analysis failures (see scripts/lint.sh)
set -u

root="${1:-$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)}"
cd "$root"

echo "==> cargo build --release"
cargo build --release || exit 20

# The seeded chaos soak (tests/chaos_soak.rs) runs first and on its own
# so a resilience regression triages as 23 before the full suite's 21
# swallows it. The full suite still includes it — the re-run is cheap
# and keeps `cargo test -q` self-contained. (At the workspace root
# `cargo test -q` is the umbrella package: its own tests/ and no other
# crate's. The per-crate stages below are the only runs of their suites.)
echo "==> cargo test --test chaos_soak"
cargo test -q --test chaos_soak || exit 23

# The routed-keyspace soak (crates/core/tests/routed_rebalance.rs): a
# zero-acked-write-loss regression during a live rebalance triages as
# 35. The suite covers both replication factors (rf=1 over three seeds,
# rf=3 over one): they share one data path. mochi-core's unit tests run
# with it (no other stage does): the ring, the write sets, the copier's
# pusher designation and the quorum arithmetic the soak relies on.
echo "==> cargo test -p mochi-core --lib --test routed_rebalance"
cargo test -q -p mochi-core --lib --test routed_rebalance || exit 35

# Provider-kill chaos (crates/core/tests/replicated_kill.rs, DESIGN.md
# §18): at replication_factor 3 a member process is crashed abruptly
# mid-traffic under a seeded fault plane; the replicated keyspace must
# lose zero acked writes, keep serving quorum reads through the outage,
# and re-converge every surviving replica after fail_member. Runs on
# its own so a replication regression triages as 36 — on every host:
# the test takes ~15 s on 2 CPUs.
echo "==> cargo test -p mochi-core --test replicated_kill"
cargo test -q -p mochi-core --test replicated_kill || exit 36

# Leg concurrency (DESIGN.md §7, §17.2): a routed operation posts every
# leg from the caller's thread and then waits. Nothing but wall time
# tells a fan-out that quietly went back to one leg after another from
# one that overlaps, so the tests that time it — margo's `posted_*` and
# crates/core/tests/leg_concurrency.rs — run here and triage as 38.
echo "==> leg concurrency (mochi-margo posted_*, mochi-core leg_concurrency)"
cargo test -q -p mochi-margo --lib posted_ || exit 38
cargo test -q -p mochi-core --test leg_concurrency || exit 38
# The benchmark runs pinned to one CPU, where a wake-up that went missing
# (a progress ULT not armed, an xstream not unparked: DESIGN.md §9.3) is
# not a failure but a 50 ms `IDLE_WAIT` stall, or a message stranded until
# the next one arrives. On two CPUs the same schedule rarely happens, so
# the three RPC layers' unit tests run once more the way the benchmark does.
if command -v taskset >/dev/null 2>&1; then
    echo "==> RPC layers on one CPU (mochi-mercury, mochi-argobots, mochi-margo --lib)"
    taskset -c 0 cargo test -q -p mochi-mercury -p mochi-argobots -p mochi-margo --lib || exit 38
fi

# The LSM backend (DESIGN.md §15). The root `cargo test -q` below is the
# umbrella package only, so mochi-yokan's own suites run here: its unit
# tests (backend conformance, tier arithmetic, Bloom filter), concurrent
# consistency, integration, and the seeded model check (200 histories
# against a BTreeMap through three compaction tiers; a failure prints the
# seed that replays it). Before them mochi-util's unit tests, for the same
# reason and because every file the LSM writes is checked by its CRC-32:
# on a host with `pclmulqdq` they pin the carry-less-multiply kernel to
# the tables bit for bit (DESIGN.md §15.7). Then two seconds of
# ingest_rf1_lsm — the only gate run that drives seal -> tiered merge
# under RoutedKv, with every value read back checked. Triages as 39.
echo "==> LSM backend (mochi-util and mochi-yokan suites, ingest_rf1_lsm smoke)"
cargo test -q -p mochi-util --lib || exit 39
cargo test -q -p mochi-yokan --lib --test concurrent_consistency \
    --test yokan_integration --test lsm_model || exit 39
python3 crates/perf/bench.py --workload ingest_rf1_lsm --seed 2 --seconds 2 --trace 0 || exit 39

# Allocation budget (DESIGN.md §10.2, §12.3, §17.2): a point get at
# rf=1 allocates 18 times (41 before PR 22), a 64-key batch under two
# times per key, and recording an RPC in the statistics allocates nothing.
# No timing is involved, so the stage means the same on every host; its
# own process, because the counting allocator is process-wide.
echo "==> allocation budget (mochi-core alloc_budget)"
cargo test -q -p mochi-core --test alloc_budget || exit 40

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

# Static analysis, last. The linter's own unit and fixture tests first:
# they are the oracle for what the ten rules of its registry catch, and
# no other stage runs them; where clippy exists, the crate also stays
# clippy-clean (it is the one crate that is). Then scripts/lint.sh: one
# mochi-lint run over the workspace.
echo "==> cargo test -p mochi-lint"
cargo test -q -p mochi-lint || exit 21
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy -q -p mochi-lint --lib --bins -- -D warnings || exit 21
fi

exec "$root/scripts/lint.sh" "$root"

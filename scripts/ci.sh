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
#      own), or product code is no longer clippy-clean: the lib and bin
#      targets of every crate but mochi-perf, the workspace's panic-family
#      lints included (a new unwrap/expect/panic!/unreachable!/todo!/
#      unimplemented! site, or an `#[expect]` whose site was fixed)
#   22 benchmark harness failed to compile
#   23 chaos soak failed (fault-injection resilience regression)
#   35 live-rebalance soak failed (zero-acked-write-loss or
#      erase-resurrection regression while a keyspace member
#      joins/retires mid-traffic, at rf=1 or rf=3), or a mochi-core
#      unit test did (ring, write sets, who copies a moved key where,
#      quorum arithmetic)
#   36 provider-kill chaos failed (replicated keyspace lost an acked
#      write, stopped serving quorum reads, or failed to re-converge
#      after a member was crashed mid-traffic at rf=3; or a copy a write
#      owed a replica had not shipped when fail_member returned)
#   37 benchmark smoke failed (mochi-perf's own tests, or a 2 s
#      point_rf3_map run that read back a wrong value or got an error)
#   38 leg concurrency failed (posted forwards, or the legs of one
#      routed operation, ran one after another instead of overlapping;
#      or a posted forward left its books unbalanced), or the quorum
#      contract broke (a write acked on fewer than W real copies, a
#      read asked other than R replicas, its window stopped rotating,
#      or it read a value older than the last acked write), or the
#      owed-copy contract did (a put asked more than W replicas, the
#      copy it owed the others did not ship in one batch per member or
#      park as a hint, or hint replay sent one RPC per hint)
#   39 LSM backend failed (mochi-util's unit tests — the CRC-32 kernels
#      against each other — mochi-yokan's own suites — unit, concurrent
#      consistency, integration, the seeded model check with crashes —
#      the root crash-recovery suite, whose crash-after-seals case builds
#      its unmerged ranges with tiers wider than its seals and whose
#      churn case merges inline on the writers, or a 2 s ingest_rf1_lsm
#      run that read back a wrong value or got an error)
#   40 allocation budget exceeded (a layer of the data path went back to
#      allocating per key or per monitoring event:
#      crates/core/tests/alloc_budget.rs counts heap allocations per
#      RoutedKv call with a counting global allocator)
#   41 concurrency on one CPU failed: the RPC layers' unit tests (a lost
#      progress arming or a lost unpark), the root figure2_topology, or a
#      lock-order panic of the debug-build rank check in any of them; or
#      a planted inversion no longer panics (DESIGN.md §9.2)
#   42 a subsystem suite failed that no stage above runs: the libraries
#      of mochi-bedrock, -raft, -ssg, -warabi, -remi and -pufferscale,
#      their integration suites (bedrock, raft, ssg, warabi), or
#      mochi-core's failover_cache and service_integration
#   43 the API documentation has a warning (`cargo doc` of the
#      workspace: a doc comment links to an item that is gone or
#      private, or its link is broken or redundant)
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
# and re-converge every surviving replica after fail_member. It also
# holds the owed-copy contract (DESIGN.md §18.2): every put acked before
# fail_member is on every survivor when it returns, with no read in
# between, because the copies a write owed the replicas it did not ask
# ship after the write-barrier fence. Runs on its own so a replication
# regression triages as 36 — on every host: the test takes ~15 s on 2
# CPUs.
echo "==> cargo test -p mochi-core --test replicated_kill"
cargo test -q -p mochi-core --test replicated_kill || exit 36

# Leg concurrency (DESIGN.md §7, §17.2): a routed operation posts every
# leg from the caller's thread and then waits. Nothing but wall time
# tells a fan-out that quietly went back to one leg after another from
# one that overlaps, so the tests that time it — margo's `posted_*` and
# crates/core/tests/leg_concurrency.rs — run here and triage as 38.
# leg_concurrency also holds the quorum contract (DESIGN.md §18.2): strict
# W (hints do not count), R-of-N reads with a second round for a key the
# first left short, the rotation that lets read repair reach every
# replica, and the guard against reading older than the last acked write;
# and the owed-copy contract: a put asks W replicas, the copy it owes the
# third ships in one batch per member (or parks as a hint) by the next
# drain, and hints replay in one batch per (holder, owner).
echo "==> leg concurrency (mochi-margo posted_*, mochi-core leg_concurrency)"
cargo test -q -p mochi-margo --lib posted_ || exit 38
cargo test -q -p mochi-core --test leg_concurrency || exit 38

# Concurrency on one CPU (DESIGN.md §9.2, §9.3). The benchmark runs pinned
# to one CPU, where a wake-up that went missing (a progress ULT not armed,
# an xstream not unparked) is not a failure but a 50 ms `IDLE_WAIT` stall,
# or a message stranded until the next one arrives. On two CPUs the same
# schedule rarely happens, so the three RPC layers' unit tests and the
# Figure-2 topology run once more the way the benchmark does. They are
# debug builds, so every lock that nests is rank-checked on the way: a
# lock-order inversion any of them drives panics at its acquisition site.
# The planted inversions (mercury's fabric, bedrock's server) check that
# the check itself still fires.
if command -v taskset >/dev/null 2>&1; then
    echo "==> concurrency on one CPU (RPC layers, figure2_topology, planted inversions)"
    taskset -c 0 cargo test -q -p mochi-mercury -p mochi-argobots -p mochi-margo --lib || exit 41
    taskset -c 0 cargo test -q --test figure2_topology || exit 41
    taskset -c 0 cargo test -q -p mochi-mercury -p mochi-bedrock --lib planted_inversion || exit 41
fi

# The LSM backend (DESIGN.md §15). The root `cargo test -q` below is the
# umbrella package only, so mochi-yokan's own suites run here: its unit
# tests (backend conformance, tier arithmetic, Bloom filter, and the map
# backend's model check `shards_match_an_ordered_model`: 300 seeded
# histories per shard count 1, 16 and 64 against a BTreeMap, each
# failure naming the `run_model(seed, shards)` that replays it), concurrent
# consistency, integration, and the seeded model check (350 histories
# against a BTreeMap, each arming one random LsmFailPoint at a random step
# and treating the failed call as a crash: 200 mixed ones through three
# compaction tiers, 100 overwrite- and erase-heavy ones that copy values
# out of dead logs and hold the directory to a multiple of its live
# bytes, 50 that clear one step in 20 and must find each stripe all or
# nothing after a crash inside a clear; a failure prints the
# run_seed(seed) that replays it). Then the root crash-recovery suite,
# which the umbrella `cargo test -q` also runs but under the exit code of
# the whole tree: a crash after seals that nothing merged (tiers wider
# than the seals), a crash mid-churn while the writers merge inline, a
# torn SEAL marker, a torn log
# append, a torn merged table, a crash after a merged table is durable
# before any input is unlinked (whole-stripe and partial runs), a failed
# unlink, a flipped byte before a log's last SEAL, a table referencing a
# missing log, a log nothing references, a crash inside a clear before and
# after its empty table is durable, a leftover manifest temp file, a
# stripe manifest that is empty, not a number or out of range
# (DESIGN.md §15.3). Before them mochi-util's unit
# tests, for the same reason and because every file the LSM writes is
# checked by its CRC-32: on a host with `pclmulqdq` they pin the
# carry-less-multiply kernel to the tables bit for bit (DESIGN.md §15.7).
# Then two seconds of ingest_rf1_lsm — the only gate run that drives
# seal -> tiered merge under RoutedKv, with every value read back checked.
# Triages as 39.
echo "==> LSM backend (mochi-util and mochi-yokan suites, crash recovery, ingest_rf1_lsm smoke)"
cargo test -q -p mochi-util --lib || exit 39
cargo test -q -p mochi-yokan --lib --test concurrent_consistency \
    --test yokan_integration --test lsm_model || exit 39
cargo test -q --test lsm_crash_recovery || exit 39
python3 crates/perf/bench.py --workload ingest_rf1_lsm --seed 2 --seconds 2 --trace 0 || exit 39

# Allocation budget (DESIGN.md §10.2, §12.3, §17.2): a point get at
# rf=1 allocates 18 times (41 before PR 22), a 64-key batch under two
# times per key, and recording an RPC in the statistics allocates nothing.
# No timing is involved, so the stage means the same on every host; its
# own process, because the counting allocator is process-wide.
echo "==> allocation budget (mochi-core alloc_budget)"
cargo test -q -p mochi-core --test alloc_budget || exit 40

# The subsystem suites (DESIGN.md §8): Bedrock's config, Jx9 and provider
# lifecycle, Raft's election, replication and membership, SWIM, Warabi's
# blob targets, REMI's migration, Pufferscale's planner, and the
# view-driven failover and resilience of the composed service. Each runs
# once: a failure is reported, never retried. Two are known to flake on a
# loaded host (ROADMAP.md, "seed-replayable simulated time"):
# service_integration's resilience_recovers_crashed_member_from_checkpoint
# and failover_cache's follows_a_provider_migrated_inside_an_unchanged_view.
# service_integration's resilience_keeps_checkpointing_after_two_deaths
# (a member rebuilt after one death must not stop the checkpoint sweeper
# when it reports the next) waits on SWIM twice, like the first; it was
# red in 0 of 60 runs of the one test on a 2-CPU host.
# Triages as 42.
echo "==> subsystem suites (bedrock, raft, ssg, warabi, remi, pufferscale, core failover)"
cargo test -q -p mochi-bedrock --lib --test bedrock_integration || exit 42
cargo test -q -p mochi-raft --lib --test raft_integration || exit 42
cargo test -q -p mochi-ssg --lib --test ssg_integration || exit 42
cargo test -q -p mochi-warabi --lib --test warabi_integration || exit 42
cargo test -q -p mochi-remi -p mochi-pufferscale --lib || exit 42
cargo test -q -p mochi-core --test failover_cache --test service_integration || exit 42

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

# The API documentation builds without a warning, so a deleted or
# private item that a doc comment still links to fails here. Triages
# as 43.
echo "==> cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q || exit 43

# Static analysis, last. The linter's own unit and fixture tests first:
# they are the oracle for what the six rules of its registry catch, and
# no other stage runs them. Where clippy exists, product code stays
# clippy-clean: the lib and bin targets of every crate, under the
# workspace's lints (Cargo.toml), warnings denied. That is the one gate on
# panic paths (DESIGN.md §11.1): a site that stays carries an
# `#[expect(clippy::…, reason = "…")]`, which fails here once it no
# longer fires. mochi-perf, the benchmark harness, is left out. Then
# scripts/lint.sh: one mochi-lint run over the workspace.
echo "==> cargo test -p mochi-lint"
cargo test -q -p mochi-lint || exit 21
if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy (product code, warnings are errors)"
    cargo clippy -q --workspace --lib --bins --exclude mochi-perf -- -D warnings || exit 21
fi

exec "$root/scripts/lint.sh" "$root"

#!/usr/bin/env sh
# Opt-in multi-core leg of the experiment suite. The tier-1 CI box has
# one or two CPUs, so the scaling claims of EXPERIMENTS.md §A4 and §A9
# print unasserted there; run this on a host with >= 4 CPUs to
# regenerate the tables with the ratio assertions active. Not part of
# scripts/ci.sh — timing-sensitive by design, and a gate that can never
# fire where the gate runs is not a gate.
#
# Usage: scripts/bench-multicore.sh [workspace-root]
#
# Exit codes:
#   0  tables produced and the scaling assertions held
#   30 host has fewer than 4 CPUs (refusing to pretend: the scaling
#      claims cannot manifest — rerun on a multi-core host)
#   31 write-scaling gate failed (a04_contention: striped LSM puts must
#      scale >= 2x at 4 threads without regressing single-thread p50),
#      or it emitted no target/BENCH_a04.json
#   32 the concurrent-consistency companion tests failed
#   33 routing gate failed (a09_routing: 4-provider mixed throughput must
#      be >= 2x the single-provider baseline), or it emitted no
#      target/BENCH_a09.json
set -u

root="${1:-$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)}"
cd "$root"

cpus="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
if [ "$cpus" -lt 4 ]; then
    echo "bench-multicore.sh: only $cpus CPU(s) — the >= 4-thread scaling" >&2
    echo "assertions cannot manifest here; run on a multi-core host." >&2
    exit 30
fi

echo "==> a04_contention ($cpus CPUs; scaling assertions active)"
rm -f target/BENCH_a04.json
cargo bench -p mochi-bench --bench a04_contention || exit 31
[ -f target/BENCH_a04.json ] || exit 31

# Correctness companion: the striped/snapshot designs must be faster
# *and* indistinguishable from the global locks they replaced.
echo "==> concurrent_consistency tests"
cargo test -q -p mochi-yokan --test concurrent_consistency || exit 32

# Routing gate (DESIGN.md §17.4): aggregate mixed read/write throughput
# through the routed keyspace at 4 providers vs 1.
echo "==> a09_routing ($cpus CPUs; routing assertion active)"
rm -f target/BENCH_a09.json
cargo bench -p mochi-bench --bench a09_routing || exit 33
[ -f target/BENCH_a09.json ] || exit 33

echo "OK"

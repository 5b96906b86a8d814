#!/usr/bin/env sh
# Pre-PR gate: workspace-specific static analysis plus (when available)
# clippy and rustfmt. mochi-lint gates its two rules (`RULES`,
# crates/lint/src/lib.rs; DESIGN.md §11): a violation that is not frozen
# in lint-allow.json fails the build, and so does a frozen entry that no
# longer matches anything. Every other layer contract is clippy's (the
# root Cargo.toml's lints and clippy.toml): `scripts/ci.sh` (exit 21)
# denies them over product code, and the all-targets run below (exit 12)
# covers tests, benches and examples too. It keeps going past a target
# that fails, so what it prints does not depend on build order.
#
# Usage: scripts/lint.sh [workspace-root]
#
# The analysis runs once, as one process, and is timed: it rebuilds the
# workspace call graph on every PR, so a resolution blow-up that makes it
# slow is itself a regression (a gate too slow to run stops being run).
# The budget is 30 s of wall time, the debug build of the dependency-free
# lint crate included when it is not there yet.
#
# Exit codes (distinct per failure class, for CI triage):
#   0  clean
#   10 mochi-lint findings (any rule but MOCHI010), or the run overran
#      its 30 s budget
#   11 stale lint-allow.json entries (MOCHI010: frozen debt paid down but
#      not pruned)
#   12 clippy warnings
#   13 rustfmt drift
#   2  usage / I/O error from mochi-lint itself
set -u

root="${1:-$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)}"
cd "$root"

echo "==> mochi-lint"
lint_start=$(date +%s)
cargo run -q -p mochi-lint -- --root "$root"
status=$?
lint_elapsed=$(( $(date +%s) - lint_start ))
case "$status" in
    0) ;;
    1) echo "lint.sh: mochi-lint findings (see above)" >&2; exit 10 ;;
    3) echo "lint.sh: stale lint-allow.json entries" >&2; exit 11 ;;
    *) echo "lint.sh: mochi-lint failed (exit $status)" >&2; exit "$status" ;;
esac
if [ "$lint_elapsed" -ge 30 ]; then
    echo "lint.sh: mochi-lint took ${lint_elapsed}s (budget 30s)" >&2
    exit 10
fi
echo "    clean in ${lint_elapsed}s (budget 30s)"

# Advisory layers: run when the toolchain pieces exist, but don't fail
# the gate on their absence (offline/minimal containers).
if cargo clippy --version >/dev/null 2>&1; then
    echo "==> clippy"
    cargo clippy --workspace --all-targets --keep-going -- -D warnings || exit 12
else
    echo "==> clippy unavailable; skipped"
fi

if cargo fmt --version >/dev/null 2>&1; then
    echo "==> rustfmt (check)"
    cargo fmt --all --check || exit 13
else
    echo "==> rustfmt unavailable; skipped"
fi

echo "OK"

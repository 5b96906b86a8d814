#!/usr/bin/env sh
# Opt-in undefined-behavior pass: `cargo miri test` over the two
# dependency-light foundation crates, mochi-wire (zero-copy frame
# encoding: the only crate that reinterprets byte buffers) and
# mochi-util (lock-free queues and the striped counters behind the
# stats plane: the only crate with hand-rolled atomics orderings; its
# one `unsafe` module, the PCLMULQDQ CRC-32 kernel, is `cfg(not(miri))`,
# so miri interprets the table kernel the intrinsics are pinned to).
#
# Deliberately NOT tier-1 — see EXPERIMENTS.md ("Why miri is opt-in")
# for the rationale: miri is a rustup component the pinned offline CI
# toolchain does not carry, and interpreting the full workspace under it
# is orders of magnitude slower than the native suite. Run it locally
# after touching unsafe code or an `Ordering::` argument; MOCHI014
# covers the lexical atomics shapes in CI, miri covers the semantics.
#
# Usage: scripts/miri.sh [workspace-root]
#
# Exit codes:
#   0  clean
#   40 miri unavailable on this toolchain (not a failure of the code;
#      install with: rustup +nightly component add miri)
#   41 miri found undefined behavior or a test failed under it
set -u

root="${1:-$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)}"
cd "$root"

if ! cargo miri --version >/dev/null 2>&1; then
    echo "miri.sh: cargo miri unavailable on this toolchain" >&2
    echo "miri.sh: install with: rustup +nightly component add miri" >&2
    exit 40
fi

# Strict provenance makes pointer-integer round-trips (the class of bug
# the wire crate could realistically have) hard errors instead of
# best-effort warnings.
echo "==> cargo miri test -p mochi-wire -p mochi-util"
MIRIFLAGS="${MIRIFLAGS:--Zmiri-strict-provenance}" \
    cargo miri test -p mochi-wire -p mochi-util || exit 41

echo "OK"

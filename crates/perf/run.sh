#!/usr/bin/env bash
# Release build, every workload end to end and traced, one record.
#
#   crates/perf/run.sh            # from the repository root
#
# Writes crates/perf/results/<commit>.json, prints the total wall time and
# fails if that exceeds the time the acceptance driver allows the suite:
# 3420 s for 92 runs, of which this script makes 8.
set -euo pipefail
cd "$(dirname "$0")/../.."

# Wall-time cap for this script's 8 runs and one build.
CAP_SECONDS=$((3420 * 8 / 92 + 900))

commit=$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
if [ -n "$(git status --porcelain 2>/dev/null | head -1)" ]; then
    commit="${commit}-dirty"
fi
out="crates/perf/results/${commit}.json"
mkdir -p crates/perf/results

started=$(date +%s)
MOCHI_PERF_COMMIT="$commit" python3 crates/perf/bench.py exec all --trace --seed "${SEED:-1}" --out "$out"
elapsed=$(( $(date +%s) - started ))

echo "wrote $out in ${elapsed} s (cap ${CAP_SECONDS} s)"
if [ "$elapsed" -gt "$CAP_SECONDS" ]; then
    echo "run.sh: the suite took longer than the acceptance driver allows" >&2
    exit 1
fi

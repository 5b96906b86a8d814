#!/usr/bin/env python3
"""Builds and runs mochi-perf; the `command` of BENCHMARK.json.

    python3 crates/perf/bench.py --workload point_rf1_map --seed 1 --seconds 20 --trace 0
    python3 crates/perf/bench.py cargo test -p mochi-perf      # any cargo command
    python3 crates/perf/bench.py exec all --seed 1             # any mochi-perf command

Run from the repository root. Two things stand between the sources and a
binary, and this script deals with both:

* The host may have no crates.io access. Builds use `offline/config.toml`,
  which replaces every registry dependency by a stand-in under `shims/`.
* At the commit that introduced the benchmark, `crates/yokan` does not
  compile (type errors in `replication.rs`, a borrow error in the
  coalescer) and this benchmark may not touch it. The build therefore runs
  in a mirror of the workspace under the target directory, where the
  FIXUPS below are applied. Each fixup replaces one exact line; once a
  later change repairs the original, the old text is gone, the fixup no
  longer matches and the mirror is the workspace verbatim.

mochi-perf itself runs pinned to one CPU. On the 2-vCPU virtual machines
this repository is measured on, waking a thread on the other, halted vCPU
costs ~18 us, an RPC makes four such hand-offs, and whether they cross
vCPUs flips with scheduler luck between ~16 us and ~80 us per RPC. On one
CPU every hand-off is a plain context switch: runs repeat within a few
percent and the figures are the cost of our software path, which is what
the benchmark is for. Builds are not pinned.

Everything written lands under the cargo target directory
(`$CARGO_TARGET_DIR`, default `target/`), temp dirs included.
"""

import os
import shutil
import subprocess
import sys

# (file, exact old text, new text)
FIXUPS = [
    (
        "crates/yokan/src/replication.rs",
        "Box<dyn Fn(&Inner, &[u8], CallContext) -> Result<Bytes, String> + Send + Sync>;",
        "Box<dyn Fn(&Inner, &Bytes, CallContext) -> Result<Bytes, String> + Send + Sync>;",
    ),
    (
        "crates/yokan/src/replication.rs",
        "match f(&inner, ctx.payload(), ctx.nested_context()) {",
        "match f(&inner, ctx.payload_bytes(), ctx.nested_context()) {",
    ),
    (
        "crates/yokan/src/replication.rs",
        "let (header, body): (KeyHeader, &[u8]) =",
        "let (header, body): (KeyHeader, Bytes) =",
    ),
    (
        "crates/yokan/src/replication.rs",
        "inner.write_all(cx, |h| h.put(&header.key, body))?;",
        "inner.write_all(cx, |h| h.put(&header.key, &body))?;",
    ),
    (
        "crates/yokan/src/replication.rs",
        "let (header, body): (PutMultiHeader, &[u8]) =",
        "let (header, body): (PutMultiHeader, Bytes) =",
    ),
    (
        "crates/yokan/src/replication.rs",
        "let (header, _): (KeyHeader, &[u8]) =",
        "let (header, _): (KeyHeader, Bytes) =",
    ),
    (
        "crates/yokan/src/replication.rs",
        "let (header, _): (GetMultiHeader, &[u8]) =",
        "let (header, _): (GetMultiHeader, Bytes) =",
    ),
    (
        "crates/yokan/src/client.rs",
        "                state.index.insert(key.to_vec(), state.pairs.len());",
        "                let slot = state.pairs.len();\n"
        "                state.index.insert(key.to_vec(), slot);",
    ),
]

# What the mirror holds: the workspace manifest, the umbrella package's
# library and every crate. BENCHMARK.json is there for the test that checks
# it against the metric registry.
MIRRORED = ["Cargo.toml", "BENCHMARK.json", "src", "crates"]
SKIPPED_DIRS = {"target", "results", ".bench_build", "__pycache__"}
OFFLINE_CONFIG = os.path.join("crates", "perf", "offline", "config.toml")


def fail(message):
    print(f"bench.py: {message}", file=sys.stderr)
    sys.exit(2)


def source_files(root):
    for entry in MIRRORED:
        path = os.path.join(root, entry)
        if os.path.isfile(path):
            yield entry
        for folder, dirs, files in os.walk(path):
            dirs[:] = [d for d in dirs if d not in SKIPPED_DIRS]
            for name in files:
                yield os.path.relpath(os.path.join(folder, name), root)


def sync_mirror(root, mirror):
    """Makes `mirror` hold the fixed-up sources; rewrites only what changed,
    so cargo's mtime-based freshness check keeps working."""
    wanted = set()
    for rel in source_files(root):
        wanted.add(rel)
        with open(os.path.join(root, rel), "rb") as handle:
            content = handle.read()
        for path, old, new in FIXUPS:
            if path == rel.replace(os.sep, "/"):
                content = content.replace(old.encode(), new.encode())
        target = os.path.join(mirror, rel)
        try:
            with open(target, "rb") as handle:
                if handle.read() == content:
                    continue
        except FileNotFoundError:
            pass
        os.makedirs(os.path.dirname(target), exist_ok=True)
        with open(target, "wb") as handle:
            handle.write(content)
    for entry in MIRRORED:
        for folder, _, files in os.walk(os.path.join(mirror, entry)):
            for name in files:
                path = os.path.join(folder, name)
                if os.path.relpath(path, mirror) not in wanted:
                    os.remove(path)


def main():
    root = os.getcwd()
    for needed in ("Cargo.toml", "crates", OFFLINE_CONFIG):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"{needed} not found: run from the root of a full checkout")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", "target"))
    mirror = os.path.join(target, "mochi-perf-mirror")
    tmp = os.path.join(target, "mochi-perf-tmp")
    sync_mirror(root, mirror)
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    env = dict(os.environ, CARGO_TARGET_DIR=target, TMPDIR=tmp)

    def cargo(*args):
        return subprocess.run(
            ["cargo", args[0], "--config", OFFLINE_CONFIG, *args[1:]], cwd=mirror, env=env
        ).returncode

    args = sys.argv[1:]
    if args[:1] == ["cargo"]:
        status = cargo(*args[1:]) if len(args) > 1 else 2
    else:
        status = cargo("build", "--release", "--quiet", "-p", "mochi-perf")
        if status == 0:
            binary = os.path.join(target, "release", "mochi-perf")
            command = args[1:] if args[:1] == ["exec"] else ["run", *args]
            if hasattr(os, "sched_setaffinity"):
                os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
            status = subprocess.run([binary, *command], cwd=root, env=env).returncode
    shutil.rmtree(tmp, ignore_errors=True)
    sys.exit(status)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds and runs the paper-scale pipeline benchmark.

Usage (from the repository root):

    python3 paperbench/run.py --workload vgg-characterize|vgg-fleet|mlp-fleet-stream \
        --seed N --seconds S --trace 0|1 [--threads T]

The benchmark crate (paperbench/Cargo.toml) is built from source in release
mode into $CARGO_TARGET_DIR (default: .bench_build), then run with the given
arguments. Its standard output is passed through unchanged; the last line is
the JSON result. The exit code is the benchmark's: 0 when every correctness
check passed, 1 when a check failed, 2 on a usage, build or set-up error.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "paperbench" / "Cargo.toml"


def source_digest():
    """A digest of the sources the benchmark builds, standing in for the
    commit id when the checkout is not a git repository."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                check=True,
            )
            return "git:" + out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    for top in ("crates", "vendor", "paperbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".rs", ".toml", ".lock", ".txt"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def main():
    if not (ROOT / "crates").is_dir() or not MANIFEST.is_file():
        print("paperbench: the repository sources (crates/) are missing", file=sys.stderr)
        return 2
    target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(MANIFEST)],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("paperbench: build failed", file=sys.stderr)
        return 2
    binary = target / "release" / "paperbench"
    args = sys.argv[1:] + [
        "--work-dir",
        str(target / "paperbench-work"),
        "--commit",
        source_digest(),
    ]
    return subprocess.run([str(binary)] + args, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

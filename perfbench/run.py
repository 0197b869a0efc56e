#!/usr/bin/env python3
"""Build and run the bagsched benchmark.

    python3 perfbench/run.py --workload tight-milp|loose-place|serve-mix \\
        --seed N --seconds S --trace 0|1 [--cell-seed N]

Run from the repository root. Builds the `bagsched-server` daemon and the
benchmark package (release, offline) into $CARGO_TARGET_DIR, default
`.bench_build`, then runs the workload. Build output goes to stderr; the
last line of stdout is the result object. Results and traces are written
to `.bench_out/`.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tight-milp", "loose-place", "serve-mix")
# What identifies the program's source when there is no git checkout.
SOURCE_ROOTS = ("Cargo.toml", "Cargo.lock", "src", "crates", "vendor")


def source_id():
    """The git commit, or a digest of the program's source files."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        )
        return "git:" + out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in SOURCE_ROOTS:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
        )
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "sha256:" + digest.hexdigest()[:16]


def cargo_build(args, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    result = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if result.returncode != 0:
        sys.exit(f"error: build failed: {' '.join(cmd)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cell-seed", type=int, default=2)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.exit(f"error: {ROOT} holds no bagsched workspace to build")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    cargo_build(["-p", "bagsched-server", "--bin", "bagsched-server"], target)
    cargo_build(["--manifest-path", os.path.join(HERE, "Cargo.toml")], target)

    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--cell-seed", str(args.cell_seed),
        "--server-bin", os.path.join(release, "bagsched-server"),
        "--out-dir", os.path.join(ROOT, ".bench_out"),
        "--source-id", source_id(),
    ]
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()

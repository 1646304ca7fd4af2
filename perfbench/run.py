#!/usr/bin/env python3
"""Builds the `slicing` CLI and the benchmark from source, then runs one
workload and passes its output through; the last stdout line is the
result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. Build output goes to
$CARGO_TARGET_DIR (default `.bench_build`); streams, checkpoints and
metrics files go to `.bench_build/perfbench-work`.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(target, manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest, *extra]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # Cargo's own output goes to stderr so stdout ends with the result.
    return subprocess.run(cmd, env=env, stdout=sys.stderr).returncode


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    work = os.path.abspath(os.path.join(".bench_build", "perfbench-work"))
    for manifest, extra in ((os.path.join(ROOT, "Cargo.toml"), ("--bin", "slicing")),
                            (os.path.join(HERE, "Cargo.toml"), ())):
        if not os.path.exists(manifest):
            print(f"perfbench: {manifest} is missing", file=sys.stderr)
            return 2
        code = build(target, manifest, *extra)
        if code != 0:
            print(f"perfbench: building {manifest} failed", file=sys.stderr)
            return code
    cmd = [os.path.join(target, "release", "perfbench"), *sys.argv[1:],
           "--slicing", os.path.join(target, "release", "slicing"),
           "--work", work]
    # The benchmark and every process it starts share one CPU, the last
    # one allowed: a closed loop hands each batch to the child and back,
    # and on a small VM a hand-off to an idle second vCPU waits for the
    # host to run it, which adds noise far above the work measured.
    cpu = max(os.sched_getaffinity(0))
    return subprocess.run(cmd, preexec_fn=lambda: os.sched_setaffinity(0, {cpu})).returncode


if __name__ == "__main__":
    sys.exit(main())

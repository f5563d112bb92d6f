#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper128 --seed 1 --seconds 20 --trace 0

Builds the `o4a-perfbench` package (release, offline) into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs it with the same
arguments. The last line of standard output is the benchmark's JSON
result. The exit status is the benchmark's own, or non-zero without a
result when the build fails or a run overruns its time limit.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Longest a run may take before it is stopped and counted as failed.
RUN_TIMEOUT_S = 170


def main():
    env = dict(os.environ)
    target = os.path.join(ROOT, env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    env.setdefault("O4A_LOG", "error")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 2
    binary = os.path.join(target, "release", "o4a-perfbench")
    try:
        run = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

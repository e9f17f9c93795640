#!/usr/bin/env python3
"""Build the benchmark from source and run it from the repository root.

    python3 perfbench/run.py --workload sweep|replay|fleet --seed N --seconds S --trace 0|1

The Go toolchain's cache, temp files and the binary all live under
.bench_build/ in the checkout, so a run reads and writes nothing outside it.
A failed build exits non-zero without printing a result.
"""
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
    )
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    os.chdir(ROOT)
    # setup_s counts from here: the moment the benchmark process starts.
    env["PERFBENCH_START_NS"] = str(time.time_ns())
    # Replace this process so the benchmark is the only process left running.
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())

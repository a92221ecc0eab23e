#!/usr/bin/env python3
"""Build the served-query-path benchmark from source and run one workload.

    python3 perfbench/run.py --workload geo-serve --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The Go build cache, the binary, the
per-run scratch files and the trace files all live under the build
directory ($CARGO_TARGET_DIR, default .bench_build) of the checkout, so
nothing is written outside it. Every argument is passed to the
benchmark binary; its exit code is this script's exit code.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out = os.path.join(ROOT, build_dir, "perfbench")
    os.makedirs(os.path.join(out, "tmp"), exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(out, "gocache"),
        GOMODCACHE=os.path.join(out, "gomodcache"),
        GOPATH=os.path.join(out, "gopath"),
        GOTMPDIR=os.path.join(out, "tmp"),
        # The go command keeps telemetry counters under the user config
        # directory; point it into the build directory too.
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=readonly",
        GOWORK="off",
        GOENV="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    return subprocess.run([binary, "-dir", out] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build fedsched and the fedbench harness from source, then run one workload.

Usage, from the repository root:

    python3 fedbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Both builds are release builds into $CARGO_TARGET_DIR (default
`.bench_build`). Cargo's output goes to standard error, so the last line of
standard output is the harness's JSON result. The exit code is the
harness's: non-zero on a build failure or any correctness failure.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(root, env["CARGO_TARGET_DIR"])
    builds = [
        # The server under test: the repository's own `fedsched` binary.
        ["--manifest-path", os.path.join(root, "Cargo.toml"), "-p", "fedsched-cli"],
        # The harness: a package of its own next to this script.
        ["--manifest-path", os.path.join(here, "Cargo.toml")],
    ]
    for args in builds:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", *args],
            stdout=sys.stderr,
            env=env,
            cwd=root,
        )
        if build.returncode != 0:
            print("fedbench: build failed", file=sys.stderr)
            return 1
    env["FEDSCHED_BIN"] = os.path.join(target, "release", "fedsched")
    bench = os.path.join(target, "release", "fedbench")
    return subprocess.run([bench, *sys.argv[1:]], env=env, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build the e2ebench package from source and run one workload.

    python3 e2ebench/run.py --workload <sweep_cold|sweep_warm|service_mix> \
        --seed <n> --seconds <s> --trace <0|1>

The package builds with cargo, offline, into $CARGO_TARGET_DIR (default
.bench_build at the repository root). The benchmark runs from the
repository root; its output passes through unchanged and its exit code
is this script's. A failed build exits non-zero without a result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main() -> int:
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    manifest = os.path.join(ROOT, "e2ebench", "Cargo.toml")
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"e2ebench: build failed: {e}", file=sys.stderr)
        return 3
    if build.returncode != 0:
        print("e2ebench: build failed", file=sys.stderr)
        return 3
    exe = os.path.join(target, "release", "e2ebench")
    try:
        return subprocess.run([exe, *sys.argv[1:]], cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"e2ebench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

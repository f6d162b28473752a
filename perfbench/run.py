#!/usr/bin/env python3
"""Build and run the ESP benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: shelf-saturate, redwood-paced, home-inproc. The benchmark is a
Cargo package of its own (perfbench/Cargo.toml) built against the
repository's crates by path, offline, into $CARGO_TARGET_DIR (default
.bench_build). Its last line of output is the result object; the line
before it is the run stamp, also kept under <target>/perfbench-results/.
Exits non-zero, without a result, when the build or the run fails.
"""

import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parent
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170


def commit():
    """The commit under test, or "unknown" outside a git checkout."""
    if not (REPO / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or REPO / ".bench_build")
    target = target.resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target), PERFBENCH_COMMIT=commit())
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", str(HERE / "Cargo.toml")],
            stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [str(target / "release" / "perfbench"), *sys.argv[1:],
           "--work", str(target / "perfbench-work"),
           "--results", str(target / "perfbench-results")]
    try:
        proc = subprocess.Popen(cmd, env=env)
    except OSError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

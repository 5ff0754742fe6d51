#!/usr/bin/env python3
"""Builds and runs the host-time benchmark of the bolted workspace.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <fleet-attested|fleet-unattested|reconcile-churn> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. This script builds it in
release mode (into $CARGO_TARGET_DIR when set), runs it with the given
arguments and exits with its exit code. Build output goes to stderr;
the benchmark's last line of stdout is its JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "run", "--release", "--offline", "--quiet",
           "--manifest-path", manifest, "--"] + sys.argv[1:]
    try:
        proc = subprocess.run(cmd)
    except OSError as e:
        print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
        return 1
    return proc.returncode if proc.returncode >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())

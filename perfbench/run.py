#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload oltp-open --seed 1 --seconds 15 --trace 0

The build goes to .bench_build/ with the dune cache off, so a run reads
and writes only inside the checkout. The benchmark's last line of stdout
is its JSON result; with --trace 1 the first traced part's spans are
written to perfbench/out/spans-<workload>.jsonl.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def arg(args, name):
    return args[args.index(name) + 1] if name in args[:-1] else None


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not (os.path.isfile(os.path.join(root, "dune-project"))
            and os.path.isdir(os.path.join(root, "lib"))):
        print("perfbench: no sources to build here (dune-project and lib/ are missing)",
              file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", root, "--build-dir", ".bench_build",
             "--profile", "release", "perfbench/main.exe"],
            cwd=root, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        return 2
    args = sys.argv[1:]
    if arg(args, "--trace") == "1" and arg(args, "--workload"):
        out = os.path.join(root, "perfbench", "out")
        os.makedirs(out, exist_ok=True)
        args += ["--spans", os.path.join(out, f"spans-{arg(args, '--workload')}.jsonl")]
    exe = os.path.join(root, ".bench_build", "default", "perfbench", "main.exe")
    try:
        run = subprocess.run([exe] + args, cwd=root, stdout=subprocess.PIPE,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    if run.returncode != 0:
        return run.returncode
    sys.stdout.write(run.stdout.decode())
    return 0


if __name__ == "__main__":
    sys.exit(main())

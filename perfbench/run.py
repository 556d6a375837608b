#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <locks-wire|service> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout.  The benchmark is a package of its own
(perfbench/Cargo.toml) that builds against the repository's crates by path,
into $CARGO_TARGET_DIR (default: .bench_build).  Its files and journals go
under .bench_build/perfbench-scratch.  The program's output is passed
through; its last line is the result object, whose metric names are checked
against BENCHMARK.json.  The exit code is non-zero when the build fails, an
output or race set is wrong, or the result does not match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(cmd, timeout, **kw):
    """Runs `cmd`, killing it and waiting for it if it outlives `timeout`."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run.py: {cmd[0]} exceeded {timeout} s and was stopped", file=sys.stderr)
        sys.exit(124)
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    code, _ = run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        BUILD_TIMEOUT_S,
        env=env,
        stdout=sys.stderr,
    )
    if code != 0:
        print(f"run.py: build failed (exit {code})", file=sys.stderr)
        sys.exit(code or 1)

    scratch = os.path.join(ROOT, ".bench_build", "perfbench-scratch")
    binary = os.path.join(target, "release", "cvm-perfbench")
    code, out = run(
        [
            binary,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--scratch", scratch,
        ],
        RUN_TIMEOUT_S,
        stdout=subprocess.PIPE,
        text=True,
    )
    sys.stdout.write(out)
    sys.stdout.flush()
    if code != 0:
        sys.exit(code)
    lines = out.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    want = expected_metrics(args.trace)
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != want:
        print(f"run.py: metrics {sorted(got.items())} do not match BENCHMARK.json", file=sys.stderr)
        sys.exit(3)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Loopback benchmark of `cqchase serve`.

Run from the repository root:

    python3 loopbench/run.py --workload check_cold --seed 1 --seconds 20 --trace 0

Builds the release server (`cqchase`) and the load generator
(`loopbench/`, a package of its own) into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs one workload and prints its result
as the last line of standard output:

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
ones (see BENCHMARK.json). Progress and the human-readable report go to
standard error. `--save-dir DIR` also writes the result line to
`DIR/<workload>-seed<seed>-trace<t>.json` for `loopbench/compare.py`.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("check_cold", "check_hot", "eval_update")


def run_timeout_s(seconds):
    """How long the benchmark program may take before it is stopped: twice
    the measured seconds, plus an allowance for set-up, the answers
    computed before timing, a traced run's replays and the checks after.
    At the 30 s of BENCHMARK.json that is 170 s."""
    return 2 * seconds + 110


def fail(msg, code):
    print(f"loopbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(env):
    """Builds the server and the load generator; build output goes to stderr."""
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "cqchase", "--bin", "cqchase"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}", 3)


def run(cmd, env, timeout):
    """Runs the benchmark in its own process group, so that the server it
    starts is stopped too if the run has to be cut short."""
    p = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                         stderr=sys.stderr, text=True, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail(f"run exceeded {timeout:.0f}s", 4)
    finally:
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return p.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--save-dir")
    args = ap.parse_args()

    for need in ("Cargo.toml", os.path.join("crates", "service", "Cargo.toml"),
                 os.path.join("src", "bin", "cqchase.rs")):
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail(f"{need} not found: run from a checkout of the repository", 2)

    env = dict(os.environ)
    target = os.path.abspath(os.path.join(ROOT, env.get("CARGO_TARGET_DIR", ".bench_build")))
    env["CARGO_TARGET_DIR"] = target
    build(env)

    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "loopbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--server-bin", os.path.join(release, "cqchase"),
        "--spec", os.path.join(HERE, "spec.json"),
        "--out-dir", os.path.join(target, "loopbench"),
    ]
    code, out = run(cmd, env, run_timeout_s(args.seconds))
    lines = out.rstrip("\n").split("\n") if out.strip() else []
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if not lines or not lines[-1].startswith("{"):
        fail(f"benchmark exited with code {code} and no result", code or 1)
    if code != 0:
        # A result with answers that differ from the library's.
        print(lines[-1])
        fail(f"benchmark exited with code {code}", code)
    if args.save_dir:
        os.makedirs(args.save_dir, exist_ok=True)
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        with open(os.path.join(args.save_dir, name), "w") as f:
            f.write(lines[-1] + "\n")
    print(lines[-1])


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Benchmark entry point: build, generate the seeded inputs, measure.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  The script builds `sge-perfbench` (this
directory's own Cargo package) and the repository's `sge-serve`, generates
the workload's inputs from the seed under `.bench_work/`, runs the
measurement and passes its report through; the last line of standard output
is the JSON result.  It exits non-zero when the build fails, the inputs
cannot be generated, or any checked output was wrong.

Extra options, for the benchmark's own tests and for experiments:
    --size tiny            tiny inputs that only exercise every code path
    --perturb-reference    make one reference count wrong (the gate must fire)
    --workers N            worker threads and client connections (default nproc)
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ppi_count", "serve_mix")
GEN_TIMEOUT_S = 150
RUN_EXTRA_S = 60


def fail(message, code=2):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def run_group(args, timeout, **kwargs):
    """Runs a command in its own process group and waits for it; on timeout
    the whole group (the server the measurement spawned included) is killed
    and reaped."""
    proc = subprocess.Popen(args, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{os.path.basename(args[0])} timed out after {timeout} s")
    return proc.returncode, out


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for args in (
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "-p", "sge-service",
         "--bin", "sge-serve"],
    ):
        code = subprocess.run(args, cwd=ROOT, env=env, stdout=sys.stderr).returncode
        if code != 0:
            fail(f"build failed: {' '.join(args)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument("--perturb-reference", action="store_true")
    parser.add_argument("--workers", type=int)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    # The program is built from the repository's sources; without them
    # (only the benchmark's own files present) there is nothing to measure.
    for needed in ("Cargo.toml", "Cargo.lock", os.path.join("crates", "service")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from a full checkout of the repository")

    target_dir = os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    build(target_dir)
    bench = os.path.join(target_dir, "release", "sge-perfbench")
    serve = os.path.join(target_dir, "release", "sge-serve")

    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        gen = [bench, "gen", "--workload", args.workload, "--seed", str(args.seed),
               "--dir", work, "--size", args.size]
        if args.perturb_reference:
            gen.append("--perturb-reference")
        code, _ = run_group(gen, GEN_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            fail("input generation failed")

        run = [bench, "run", "--workload", args.workload, "--seed", str(args.seed),
               "--dir", work, "--seconds", str(args.seconds), "--trace", args.trace,
               "--serve-bin", serve]
        if args.workers is not None:
            run += ["--workers", str(args.workers)]
        if args.trace == "1":
            run += ["--spans", os.path.join(ROOT, ".bench_results", f"{args.workload}.spans.jsonl")]
        code, out = run_group(run, args.seconds + RUN_EXTRA_S, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(out)
        sys.stdout.flush()
        sys.exit(code)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()

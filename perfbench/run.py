#!/usr/bin/env python3
"""Build and run the prospector benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--size full|tiny]
    python3 perfbench/run.py --print-spec > BENCHMARK.json

Builds the `perfbench` package (release, offline) against the checkout's
crates, then runs one workload in a process of its own with the program's
worker pool fixed at one thread. Prints the environment the run measured
on (`env {...}`), the metrics by name with their units, and as the last
line the result object `{"correct", "attempted", "failed", "metrics"}`.
`--print-spec` prints `BENCHMARK.json` from the metric table compiled
into the benchmark.
"""

import argparse
import datetime
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
THREADS = "1"
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def target_dir():
    return os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))


def build():
    """Builds the benchmark binary and returns its path."""
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        fail(f"{ROOT} holds no prospector sources (crates/ is missing)")
    cmd = [
        "cargo", "build", "--release", "--offline", "--locked", "--quiet",
        "--manifest-path", MANIFEST, "--target-dir", target_dir(),
    ]
    done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail("cargo build failed", 1)
    return os.path.join(target_dir(), "release", "prospector-perfbench")


def command_output(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts
    without git metadata."""
    h = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
        )
        for f in files:
            rel = os.path.relpath(f, ROOT)
            if rel.endswith((".rs", ".toml", ".lock", ".py")):
                h.update(rel.encode())
                with open(f, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def environment(args):
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "started_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="milliseconds"),
        "prospector_threads": THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": affinity,
        "git_rev": command_output(["git", "rev-parse", "HEAD"]) if os.path.isdir(os.path.join(ROOT, ".git")) else None,
        "source_sha256": source_digest(),
        "rustc": command_output(["rustc", "-V"]),
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "tiny"], default="full")
    p.add_argument("--print-spec", action="store_true")
    args = p.parse_args()

    binary = build()
    if args.print_spec:
        sys.stdout.write(subprocess.run([binary, "--print-spec"], check=True, capture_output=True, text=True).stdout)
        return
    if not args.workload:
        fail("--workload is required")

    cmd = [binary, "--workload", args.workload, "--trace", str(args.trace), "--size", args.size]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.seconds is not None:
        cmd += ["--seconds", str(args.seconds)]
    env = dict(os.environ, PROSPECTOR_THREADS=THREADS)
    record = environment(args)
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        fail(f"benchmark exited with code {done.returncode}", 1)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("benchmark printed no result object", 1)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result object: {sorted(result)}", 1)
    for line in lines[:-1]:
        print(line)
    print("env " + json.dumps(record, sort_keys=True))
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()

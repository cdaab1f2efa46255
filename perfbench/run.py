#!/usr/bin/env python3
"""Run one benchmark workload and print its result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` package (release
profile) into $CARGO_TARGET_DIR (default `.bench_build`), runs one
workload, and prints the binary's notes, a `# meta` line with host
metadata, and as the last line a JSON object with exactly `correct`,
`attempted`, `failed` and `metrics`.

Determinism guard: every run stores its simulated statistics in a ledger
next to the build, keyed by a digest of the sources, the workload and the
seed (no seed for workloads whose simulated statistics do not depend on
it). A later run of the same key that reads any simulated statistic
differently is marked incorrect. Within one traced run the binary itself
compares the traced and untraced passes.

Exits non-zero, without a result line, when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# A seed no tuning of this benchmark used; check performance claims on it.
HELD_OUT_SEED = 7919
RUN_TIMEOUT_S = 170
# Inputs of the build: the sources the benchmark measures and its own.
SOURCE_DIRS = ("crates", "vendor", "perfbench")
SOURCE_FILES = ("Cargo.toml", "Cargo.lock", "BENCHMARK.json")


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def source_digest():
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, f) for f in SOURCE_FILES]
    for d in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, d)):
            dirnames[:] = sorted(n for n in dirnames if n != "target" and not n.startswith("."))
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for p in paths:
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def command_output(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def load_ledger(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def check_ledger(path, key, sim):
    """Compare `sim` with the ledger entry for `key`; store the union.
    Returns the names of statistics that differ."""
    ledger = load_ledger(path)
    entry = ledger.setdefault(key, {})
    differ = sorted(k for k in sim if k in entry and entry[k] != sim[k])
    if not differ:
        entry.update(sim)
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(ledger, f, indent=1, sort_keys=True)
        os.replace(tmp, path)
    return differ


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    expected = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", "perfbench/Cargo.toml"],
        cwd=ROOT,
        env=env,
    )
    if build.returncode != 0:
        fail("build failed")
    binary = os.path.join(ROOT, target, "release", "perfbench")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    start = time.monotonic()
    try:
        run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        sys.stderr.write(run.stderr)
        fail(f"workload exited with code {run.returncode}")
    lines = run.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("workload printed no result line")
    if list(out["metrics"]) != expected:
        fail(f"metrics {list(out['metrics'])} differ from BENCHMARK.json {expected}")

    digest = source_digest()
    differ = check_ledger(
        os.path.join(ROOT, target, "perfbench-ledger.json"),
        f"{digest}/{args.workload}/{'any' if out['seed_invariant'] else args.seed}",
        out["sim"],
    )
    correct = out["correct"]
    for line in lines[:-1]:
        print(line)
    if differ:
        correct = False
        print(f"# determinism guard: {', '.join(differ)} differ from an earlier run of this seed")
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "rustc": command_output(["rustc", "-V"]),
        "profile": "release",
        "commit": command_output(["git", "rev-parse", "HEAD"])
        if os.path.isdir(os.path.join(ROOT, ".git")) else None,
        "source_digest": digest,
        "fail_frac": out["fail_frac"],
        "run_s": round(time.monotonic() - start, 3),
    }
    print("# meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": out["metrics"],
    }))


if __name__ == "__main__":
    main()

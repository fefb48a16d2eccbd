#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload certified_commit --seed 1 \
        --seconds 15 --trace 0
    python3 perfbench/run.py --test
    python3 perfbench/run.py --diff BEFORE AFTER

The first form builds an optimised copy of the library and the perfbench binary
under $CARGO_TARGET_DIR (default .bench_build), runs one workload and
passes the binary's output through; its last line is the JSON result.
--test builds and runs the benchmark's own tests. --diff compares two
traced runs (.trace.json files, or directories of them) layer by layer.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORKLOADS = ["certified_commit", "snapshot_audit", "lock_durable", "multisite_2pc"]
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build(targets):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    jobs = str(min(os.cpu_count() or 1, 4))
    cmd = ["cmake", "--build", str(out), "-j", jobs, "--target", *targets]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return out


def source_id():
    """The git commit when the checkout is a repository, else a digest of
    the library and benchmark sources."""
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, env=env)
        if r.returncode == 0:
            return "git:" + r.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def run_workload(args):
    out = build(["perfbench"])
    cmd = [str(out / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--source", source_id(),
           "--out-dir", str(ROOT / ".bench_out")]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    if r.returncode != 0:
        sys.exit(r.returncode)
    lines = r.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("perfbench printed no JSON result", 1)
    if result.get("correct") is not True:
        sys.exit(1)


def run_tests():
    out = build(["perfbench", "perfbench_test"])
    if subprocess.run([str(out / "perfbench_test")]).returncode:
        sys.exit(1)
    # The digest the binary prints is the one the test checks.
    for w in WORKLOADS:
        digests = {
            subprocess.run([str(out / "perfbench"), "--digest", "--workload", w,
                            "--seed", str(seed)], capture_output=True,
                           text=True, check=True).stdout.strip()
            for seed in (7, 7, 8)}
        if len(digests) != 2:
            fail(f"{w}: digests {sorted(digests)} are not seed-determined", 1)
    print("run.py --test: ok")


def load_traces(path):
    """workload -> list of per-layer metric dicts from .trace.json files."""
    p = Path(path)
    files = sorted(p.glob("*.trace.json")) if p.is_dir() else [p]
    if not files:
        fail(f"no .trace.json files under {path}")
    by_workload = {}
    for f in files:
        doc = json.loads(f.read_text())
        w = doc["provenance"]["workload"]
        by_workload.setdefault(w, []).append(
            {k: v["value"] for k, v in doc["metrics"].items()})
    return by_workload


def diff(before, after):
    a, b = load_traces(before), load_traces(after)
    for w in sorted(set(a) & set(b)):
        print(f"== {w}  ({len(a[w])} vs {len(b[w])} traced runs, medians)")
        print(f"{'metric':44} {'before':>12} {'after':>12} {'delta':>12} {'%':>8}")
        names = sorted(set(a[w][0]) & set(b[w][0]),
                       key=lambda n: (n.split(".")[0], "self_us" not in n, n))
        for name in names:
            x = statistics.median(m[name] for m in a[w])
            y = statistics.median(m[name] for m in b[w])
            if x == 0 and y == 0:
                continue
            pct = f"{100 * (y - x) / x:+.1f}" if x else "new"
            print(f"{name:44} {x:12.4g} {y:12.4g} {y - x:+12.4g} {pct:>8}")
    for w in sorted(set(a) ^ set(b)):
        print(f"== {w}: traced on one side only")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--test", action="store_true")
    ap.add_argument("--diff", nargs=2, metavar=("BEFORE", "AFTER"))
    args = ap.parse_args()
    if args.diff:
        diff(*args.diff)
    elif args.test:
        run_tests()
    elif args.workload:
        run_workload(args)
    else:
        ap.error("give --workload, --test or --diff")


if __name__ == "__main__":
    main()

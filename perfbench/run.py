#!/usr/bin/env python3
"""Fair-ordering benchmark entry point.

Builds the library and the benchmark program (fairbench) from source
(Release, into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench,
relative to the current directory), then runs one workload:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is the JSON result
{"correct", "attempted", "failed", "metrics"}. `--selftest` builds and
runs the benchmark's own tests instead. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("auction_burst", "learned_clocks", "wire_ladder", "merge_topology")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configures (once) and builds; all tool output goes to stderr."""
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(bdir, ignore_errors=True)
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    result = subprocess.run(["cmake", "--build", bdir, "-j", jobs], stdout=sys.stderr)
    if result.returncode != 0:
        fail("build failed")


def commit():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    if not os.path.exists(os.path.join(ROOT, "src", "core", "service.hpp")):
        fail(f"library sources not found under {os.path.join(ROOT, 'src')}")
    bdir = build_dir()
    build(bdir)

    if args.selftest:
        sys.exit(subprocess.run([os.path.join(bdir, "fairbench_selftest")]).returncode)

    workdir = os.path.join(bdir, "run")
    os.makedirs(workdir, exist_ok=True)
    env = dict(os.environ, PB_COMMIT=commit())
    cmd = [os.path.join(bdir, "fairbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir]
    try:
        result = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 4)
    if result.returncode != 0:
        sys.stderr.write(result.stdout)
        fail(f"fairbench exited with {result.returncode}", result.returncode)
    check_against_spec(result.stdout, args.trace)
    sys.stdout.write(result.stdout)


def check_against_spec(stdout, trace):
    """The result line must carry exactly BENCHMARK.json's metrics."""
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        return
    with open(spec_path) as f:
        spec = json.load(f)
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    lines = stdout.strip().splitlines()
    try:
        got = json.loads(lines[-1])["metrics"]
    except (IndexError, ValueError, KeyError):
        fail("no result line", 5)
    printed = {name: m.get("unit") for name, m in got.items()}
    if printed != expected:
        sys.stderr.write(stdout)
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(printed) ^ set(expected))}", 5)


if __name__ == "__main__":
    main()

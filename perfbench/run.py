#!/usr/bin/env python3
"""Build and run the NetLLM benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload vp_steady --seed 1 --seconds 30 --trace 0

Builds the program from ../src together with the benchmark executable into .bench_build
(CMake, incremental), then runs one workload. The engine pool is fixed at
NETLLM_THREADS = available cores - 1, so the open-loop generator thread plus
the pool lanes use every core. Build output goes to stderr; the executable's
last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}, preceded by a host stamp.
`--selftest` runs the executable's generator-purity and allocation-count checks.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "netllm_perfbench")
WORKLOADS = ("vp_steady", "mixed_flash_crowd", "vp_wide_q8", "adapt_vp")


def fail(msg, code=2):
    print(f"[perfbench] {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    src = os.path.join(ROOT, "src", "CMakeLists.txt")
    if not os.path.isfile(src):
        fail(f"program sources not found ({src}); run from a source checkout")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "--target", "netllm_perfbench", "-j", jobs],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
        if proc.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    # Write the build's output back now, not while the run is measured.
    os.sync()


def source_commit():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if not 1 <= args.seconds <= 60:
        ap.error("--seconds must be 1..60")

    build()
    env = dict(os.environ)
    env["NETLLM_THREADS"] = str(max(1, len(os.sched_getaffinity(0)) - 1))
    env["PERFBENCH_COMMIT"] = source_commit()
    env.pop("NETLLM_ISA", None)  # always the best tier the host has
    env.pop("NETLLM_METRICS", None)  # metrics on, as by default: the traced run reads them
    if args.selftest:
        cmd = [BINARY, "--selftest"]
    else:
        cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    for line in lines:
        print(line, flush=True)
    if proc.returncode != 0:
        fail(f"benchmark exited with code {proc.returncode}", proc.returncode)


if __name__ == "__main__":
    main()

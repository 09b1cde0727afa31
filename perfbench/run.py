#!/usr/bin/env python3
"""The repository benchmark: one command, one workload, one JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds perfbench/ (the program's
libraries from src/ plus the benchmark binary, Release) into .bench_build/,
generates the workload's inputs from --seed in a separate process, runs
the workload for --seconds, and relays the binary's report. The last line
of standard output is the JSON result
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The exit code is 0 only
when every output passed its check. Workloads, metrics and bounds are
listed in BENCHMARK.json; perfbench/README.md explains them.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "aida_perfbench")
WORKLOADS = ("annotate-mw", "serve-mw", "kore-nocache", "heavy-tasks",
             "kore-batch")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    build_dir = os.path.join(BUILD, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def source_digest():
    """Digest of the sources the binary is built from (the checkout is not
    necessarily a git repository, so no commit id is assumed)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def commit_id():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: no src/ next to perfbench/; run from a full checkout")
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"run.py: build failed: {error}")
        return 1

    work = os.path.join(BUILD, "work", f"{args.workload}-{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds), "--dir", work]
    try:
        subprocess.run([BINARY, "gen"] + common, check=True,
                       stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
        run = subprocess.run([BINARY, "run"] + common +
                             ["--trace", str(args.trace)],
                             stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as error:
        log(f"run.py: {error}")
        return 1
    finally:
        for name in ("kb.flat", "docs.corpus"):
            path = os.path.join(work, name)
            if os.path.exists(path):
                os.remove(path)

    print(f"# source {source_digest()}  commit {commit_id()}  "
          f"seed {args.seed}  nproc {os.cpu_count()}")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        log(f"run.py: aida_perfbench exited with {run.returncode}")
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

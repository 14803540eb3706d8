#!/usr/bin/env python3
"""Builds and runs the nmcount benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--updates N]

Run from the repository root. The first call configures and builds
perfbench/ (and the library layers it compiles from src/) in Release mode
under $CARGO_TARGET_DIR, or .bench_build/ when that is unset; later calls
rebuild only what changed. Build output goes to stderr. The measuring
program's stdout is passed through, so the last line is the result object
{"correct", "attempted", "failed", "metrics"}. Records and span files land
in .bench_out/.

Exit status: the measuring program's (0 ok, 1 a correctness check failed,
2 usage), 3 when the sources or the build are missing or broken, 4 when
the run overran its time limit.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Time the measuring program may take beyond twice --seconds: the
# verification run, the last repetition's overshoot and the probes.
RUN_ALLOWANCE_S = 60


def fail(message, code=3):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the measuring program; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no nmcount sources under %s/src" % ROOT)
    bdir = build_dir()
    cache = os.path.join(bdir, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            home = [l for l in f if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if not home or home[0].split("=", 1)[1].strip() != HERE:
            shutil.rmtree(bdir)  # configured for another checkout
    if not os.path.isfile(cache):
        step = subprocess.run(
            ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if step.returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    step = subprocess.run(
        ["cmake", "--build", bdir, "--target", "nmc_perfbench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    if step.returncode != 0:
        fail("build failed")
    return os.path.join(bdir, "nmc_perfbench")


def source_digest():
    """sha256 over the measured sources, so a record names its code even in
    a checkout without git metadata."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return digest.hexdigest()[:16]


def git_commit():
    """HEAD's commit from .git in the checkout, without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_path = os.path.join(git, ref)
            if os.path.isfile(ref_path):
                with open(ref_path) as f:
                    return f.read().strip()
            with open(os.path.join(git, "packed-refs")) as f:
                for line in f:
                    if line.strip().endswith(" " + ref):
                        return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--updates", type=int,
                        help="override the workload's stream length "
                             "(smoke runs)")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative", 2)

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out_dir", os.path.join(ROOT, ".bench_out"),
           "--git_commit", git_commit(), "--source_digest", source_digest()]
    if args.updates is not None:
        cmd += ["--updates", str(args.updates)]
    sys.stdout.flush()
    timeout_s = 2 * args.seconds + RUN_ALLOWANCE_S
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        code = proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %g s" % timeout_s, 4)
    sys.exit(code)


if __name__ == "__main__":
    main()

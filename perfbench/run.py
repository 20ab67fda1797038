#!/usr/bin/env python3
"""Build and run the end-to-end OPC benchmark (workloads: see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The first run configures and builds the
library and the perfbench binary under $CARGO_TARGET_DIR (default
.bench_build); later runs only bring that build up to date. The binary's
kernel disk cache lives in the same directory and is filled by a separate
`perfbench --prepare` process before the measured one starts. The last
line of standard output is the binary's JSON result; build output goes to
<build dir>/build.log.
"""
import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("via-camo", "via-worst", "metal-shard")


def source_id():
    """Commit when the tree is a git checkout, plus a digest of the sources."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", os.path.relpath(HERE, ROOT)):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    commit = "none"
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode == 0 and os.path.samefile(top.stdout.strip(), ROOT):
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return f"commit={commit} digest={digest.hexdigest()[:16]}"


def build(build_dir):
    """Configure (once) and build the binary; returns its path or None."""
    bin_dir = os.path.join(build_dir, "perfbench")
    os.makedirs(bin_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(bin_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bin_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bin_dir, "--target", "perfbench", "-j", jobs])
    with open(os.path.join(build_dir, "build.log"), "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                return None
    return os.path.join(bin_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("perfbench: run from the repository root (no CMakeLists.txt and src/ here)",
              file=sys.stderr)
        return 1
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    exe = build(build_dir)
    if exe is None:
        print(f"perfbench: build failed, see {os.path.join(build_dir, 'build.log')}",
              file=sys.stderr)
        return 1
    cache = ["--workload", args.workload, "--cache-dir", os.path.join(build_dir, "kernel_cache")]
    if subprocess.run([exe, *cache, "--prepare", "1"]).returncode != 0:
        print("perfbench: filling the kernel cache failed", file=sys.stderr)
        return 1
    cmd = [exe, *cache, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--source", source_id()]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs one workload.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload iter_disk --seed 1 --seconds 20 --trace 0

The binary is built with CMake into $CARGO_TARGET_DIR/perfbench/<id>
(default .bench_build/perfbench/<id>), where <id> names the checkout.
Build output goes to stderr; the last line of stdout is the binary's
JSON result. The exit code is the
binary's: 0 only when every output passed its correctness check.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
# A run may take this long once the binary is built (setup + measured
# window + slack); the contract allows 180 s.
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    """A build tree of this checkout's own under $CARGO_TARGET_DIR, so
    checkouts that share one target directory never build each other's
    sources."""
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = Path.cwd() / base
    checkout = hashlib.sha256(str(REPO).encode()).hexdigest()[:12]
    return base / "perfbench" / checkout


def build(out: Path) -> Path:
    if not (out / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(out), "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return out / "perfbench"


def source_id() -> str:
    """A digest of the sources the binary is built from, so uncommitted
    changes show; followed by the git commit when the checkout is a
    repository."""
    digest = hashlib.sha256()
    for root in (REPO / "CMakeLists.txt", REPO / "src", HERE):
        files = [root] if root.is_file() else sorted(root.rglob("*"))
        for path in files:
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(REPO)).encode())
                digest.update(path.read_bytes())
    ident = "sha256:" + digest.hexdigest()[:16]
    if (REPO / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO,
                                 capture_output=True, text=True, check=True)
            ident += " git:" + sha.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return ident


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="toy-size instances, for the benchmark's own tests")
    parser.add_argument("--corrupt-cover", action="store_true",
                        help="drop a set from every cover before it is "
                             "checked; the run must then fail")
    args = parser.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--source-id", source_id(),
           "--work-dir", str(out)]
    if args.smoke:
        cmd.append("--smoke")
    if args.corrupt_cover:
        cmd.append("--corrupt-cover")
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

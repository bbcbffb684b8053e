#!/usr/bin/env python3
"""Builds and runs the HARS repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload steady --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench/ (the HARS library from
src/ plus the hars_perfbench program) into $CARGO_TARGET_DIR, or
.bench_build when it is unset; later calls only rebuild what changed.
Build output goes to stderr. The program's standard output is passed
through unchanged; its last line is the JSON result. Any argument after
the four standard ones is handed to the program (see perfbench/README.md).
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 175


def build(build_dir: pathlib.Path) -> pathlib.Path:
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "-S", str(HERE), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "hars_perfbench",
         "-j", jobs],
        check=True, stdout=sys.stderr)
    return build_dir / "hars_perfbench"


def source_digest() -> str:
    """SHA-256 over the library and benchmark sources (path + bytes)."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             check=True)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.CalledProcessError):
        return "none"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = parser.parse_known_args()

    build_dir = pathlib.Path(os.environ.get("CARGO_TARGET_DIR",
                                            ".bench_build"))
    try:
        binary = build(build_dir.resolve())
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--git-sha", git_sha(),
           "--source-digest", source_digest()] + extra
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

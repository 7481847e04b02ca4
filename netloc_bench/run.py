#!/usr/bin/env python3
"""Build netloc_bench from the source tree and run it.

Run from the repository root; every argument is passed to the binary:

    python3 netloc_bench/run.py --workload paper_sweep --seed 1 --seconds 45 --trace 0

The build goes to $CARGO_TARGET_DIR if set, else .bench_build (a
Release CMake build of netloc_bench/ and the library it links). Build
output goes to stderr, so the last stdout line stays the benchmark's
JSON summary. Exits non-zero without running anything when the
netloc sources are not there.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))
            and os.path.isdir(os.path.join(ROOT, "include"))):
        print("netloc_bench: no netloc source tree next to " + HERE,
              file=sys.stderr)
        return 2
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return 2
    jobs = str(os.cpu_count() or 1)
    if subprocess.call(["cmake", "--build", build, "--target", "netloc_bench",
                        "-j", jobs], stdout=sys.stderr) != 0:
        return 2
    sys.stdout.flush()
    return subprocess.call([os.path.join(build, "netloc_bench")] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())

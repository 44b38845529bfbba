#!/usr/bin/env python3
"""Builds and runs the dfcnn end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run it from the root of a checkout. It compiles the checkout's library
sources together with the benchmark (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs the
benchmark program, whose last line of output is the result JSON. Build
output goes to stderr. When the build fails the script exits nonzero
without printing a result.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(root), "perfbench")


def build(out):
    jobs = str(min(os.cpu_count() or 1, 4))
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")) and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = [
        configure,
        ["cmake", "--build", out, "-j", jobs, "--target", "dfcnn_perfbench", "perfbench_selftest"],
    ]
    for cmd in steps:
        # Keep stdout for the benchmark's result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main(argv):
    out = build_dir()
    if not build(out):
        return 1
    if argv == ["--self-test"]:
        return subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode
    trace_out = []
    if "--trace" in argv and argv[argv.index("--trace") + 1:][:1] == ["1"]:
        trace_out = ["--trace-out", os.path.join(out, "spans.json")]
    cmd = [os.path.join(out, "dfcnn_perfbench"), *argv,
           "--anchors", os.path.join(ROOT, "bench", "baselines", "expected.json"), *trace_out]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

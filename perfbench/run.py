#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload packet_scan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Builds perfbench/ (which compiles the library from ../src) in Release
mode under $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
then runs one workload. The last line of standard output is the JSON
result object; build output goes to standard error.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("packet_scan", "conn_archive", "video_sessions")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure (once) and build; returns the benchmark binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found at src/; run from a full checkout")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", out, "--target", "retina_perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(out, "retina_perfbench")


def run(binary, args, capture=False):
    cmd = [binary, "--workdir", os.path.join(build_dir(), "work")] + args
    if capture:
        return subprocess.run(cmd, capture_output=True, text=True)
    return subprocess.run(cmd)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def selftest(binary):
    """Smoke-size checks of the benchmark itself."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    problems = []
    smoke = ["--scale", "0.05", "--seconds", "0.2"]

    # 1. Every named metric prints with its unit, on every workload.
    for workload in WORKLOADS:
        for trace, listed in (("0", manifest["end_to_end"]),
                              ("1", manifest["per_layer"])):
            res = run(binary, ["--workload", workload, "--seed", "7",
                               "--trace", trace] + smoke, capture=True)
            result = last_json(res.stdout) if res.returncode == 0 else None
            if result is None or result.get("correct") is not True:
                problems.append("%s trace=%s: run failed (exit %d): %s" %
                                (workload, trace, res.returncode,
                                 res.stderr.strip()[-300:]))
                continue
            metrics = result["metrics"]
            printed = "\n".join(res.stdout.strip().splitlines()[:-1])
            for m in listed:
                got = metrics.get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append("%s trace=%s: metric %s missing or not "
                                    "in %s" % (workload, trace, m["name"],
                                               m["unit"]))
                elif not math.isfinite(got["value"]):
                    problems.append("%s: %s is not finite" %
                                    (workload, m["name"]))
                elif m["name"] not in printed:
                    problems.append("%s: %s not printed" %
                                    (workload, m["name"]))

    # 2. A perturbed reference digest is caught.
    for workload in WORKLOADS:
        res = run(binary, ["--workload", workload, "--seed", "7", "--trace",
                           "0", "--perturb-digest"] + smoke, capture=True)
        result = last_json(res.stdout)
        if res.returncode == 0 or result is None or result["correct"]:
            problems.append("%s: perturbed digest not caught" % workload)

    # 3. Same seed, same trace bytes; another seed, other bytes.
    def trace_digest(workload, seed):
        res = run(binary, ["--workload", workload, "--seed", str(seed),
                           "--trace-digest"] + smoke, capture=True)
        return res.stdout.strip()
    for workload in WORKLOADS:
        a, b, c = (trace_digest(workload, s) for s in (7, 7, 8))
        if not a or a != b:
            problems.append("%s: seed 7 traces differ (%s vs %s)" %
                            (workload, a, b))
        if a == c:
            problems.append("%s: seeds 7 and 8 give the same trace" %
                            workload)

    for p in problems:
        print("selftest: FAIL " + p)
    print("selftest: %s" % ("ok" if not problems else
                            "%d problem(s)" % len(problems)))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    binary = build()
    if args.selftest:
        return selftest(binary)
    return run(binary, ["--workload", args.workload, "--seed", str(args.seed),
                        "--seconds", str(args.seconds),
                        "--trace", args.trace]).returncode


if __name__ == "__main__":
    sys.exit(main())

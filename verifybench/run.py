#!/usr/bin/env python3
"""Front-door verify benchmark for CUBA.

Builds the verifybench harness (libcuba compiled from ../src) and runs one
workload, printing the harness output; its last line is the JSON result.

    python3 verifybench/run.py --workload bst|stefan|randombp --seed N \
        --seconds S --trace 0|1
    python3 verifybench/run.py --self-check

Run it from the repository root.  The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the current directory, and so does the
Perfetto trace of a --trace 1 run (trace-<workload>.json).
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
RUN_TIMEOUT_S = 170


def log(msg):
    print("verifybench: " + msg, file=sys.stderr, flush=True)


def run_quiet(cmd):
    """Runs a build step, sending its output to stderr."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    return proc.returncode == 0


def build():
    """Configures (once) and builds the harness; returns its path or None."""
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                       "verifybench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", BENCH_DIR, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"]):
            return None
    if not run_quiet(["cmake", "--build", out, "-j", "4"]):
        return None
    return os.path.join(out, "verifybench")


def harness(binary, args):
    """Runs the harness; returns (exit code, stdout lines)."""
    cmd = [binary,
           "--corpus", os.path.join(ROOT, "examples", "corpus"),
           "--golden", os.path.join(BENCH_DIR, "golden_randombp.txt")] + args
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("harness timed out: " + " ".join(args))
        return 1, []
    return proc.returncode, out.splitlines()


def result(lines):
    """The JSON result on the last line, or None."""
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def self_check(binary):
    """Tiny sizes (bst 2+2, stefan 4, five generated programs): every named
    metric appears with its unit, a corrupted known answer fails the run,
    and a forced budget exhaustion is counted instead of crashing."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []

    def expect(cond, msg):
        if not cond:
            problems.append(msg)

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            code, lines = harness(binary, [
                "--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", trace, "--tiny"])
            res = result(lines)
            tag = "%s --trace %s" % (workload, trace)
            expect(code == 0 and res and res["correct"], tag + ": run failed")
            if not res:
                continue
            expect(res["failed"] == 0, tag + ": failures on a clean run")
            for m in spec[section]:
                got = res["metrics"].get(m["name"])
                expect(got is not None and got["unit"] == m["unit"],
                       "%s: metric %s missing or not in %s"
                       % (tag, m["name"], m["unit"]))

        code, lines = harness(binary, [
            "--workload", workload, "--seed", "1", "--seconds", "1",
            "--trace", "0", "--tiny", "--corrupt-answer"])
        res = result(lines)
        expect(code != 0 and res and not res["correct"],
               workload + ": a corrupted known answer was not caught")

        code, lines = harness(binary, [
            "--workload", workload, "--seed", "1", "--seconds", "1",
            "--trace", "0", "--tiny", "--force-exhaust"])
        res = result(lines)
        expect(code == 0 and res and res["correct"] and res["failed"] > 0,
               workload + ": a forced exhaustion was not counted as failed")

    for p in problems:
        log("self-check: " + p)
    print("self-check: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    a = ap.parse_args()
    if not a.self_check and not a.workload:
        ap.error("--workload is required")

    binary = build()
    if binary is None:
        log("build failed")
        return 1
    if a.self_check:
        return self_check(binary)

    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        args += ["--trace-out", os.path.join(
            os.path.dirname(binary), "trace-%s.json" % a.workload)]
    code, lines = harness(binary, args)
    if result(lines) is None:
        # No result line: print the diagnostics only, never a result.
        for line in lines:
            print(line, file=sys.stderr)
        return code or 1
    print("\n".join(lines), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())

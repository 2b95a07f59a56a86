#!/usr/bin/env python3
"""Replay-driven serving benchmark for LDP-IDS.

Run one workload (from the repository root):

    python3 perfbench/run.py --workload bd-grr-wire --seed 1 --seconds 10 --trace 0

builds `ldpids_perfbench` from this checkout's sources (CMake, Release,
into $CARGO_TARGET_DIR or .bench_build), runs it, and passes its output
through: a metric table, then one JSON line
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ledger.

    python3 perfbench/run.py --test        # unit tests, smoke runs, self-test
    python3 perfbench/run.py --self-test   # injected faults must fail a run

Exit code 0 only when the build and every output check succeed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 880


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build(target):
    """Configures (once) and builds `target`; returns the binary path."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            raise SystemExit("perfbench: cmake configure failed")
    cmd = ["cmake", "--build", out, "-j", jobs, "--target", target]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                      timeout=BUILD_TIMEOUT_S).returncode != 0:
        raise SystemExit("perfbench: build of %s failed" % target)
    return os.path.join(out, target)


def serve(binary, workload, seed, seconds, trace, smoke=False,
          inject="none"):
    """Runs one benchmark process; returns (exit code, stdout)."""
    cmd = [binary, "serve", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--smoke", "1" if smoke else "0", "--inject", inject]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout


def last_json(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def self_test(binary):
    """Each injected fault must make a run fail its output checks."""
    ok = True
    for inject in ("drop-frame", "flip-release"):
        rc, out = serve(binary, "bd-grr-wire", 3, 1, 0, smoke=True,
                        inject=inject)
        result = last_json(out)
        caught = rc != 0 and result is not None and not result["correct"]
        log("self-test %-12s exit=%d correct=%s -> %s" %
            (inject, rc, None if result is None else result["correct"],
             "fails as expected" if caught else "NOT CAUGHT"))
        ok &= caught
    return ok


def test():
    ok = True
    unit = build("perfbench_test")
    ok &= subprocess.run([unit], stdout=sys.stderr).returncode == 0
    binary = build("ldpids_perfbench")
    bench = spec()
    want = {0: {m["name"] for m in bench["end_to_end"]},
            1: {m["name"] for m in bench["per_layer"]}}
    for w in bench["workloads"]:
        for trace in (0, 1):
            rc, out = serve(binary, w["name"], 5, 1, trace, smoke=True)
            result = last_json(out)
            good = (rc == 0 and result is not None and result["correct"] and
                    result["failed"] == 0 and
                    set(result["metrics"]) == want[trace])
            log("smoke %-14s trace=%d -> %s" %
                (w["name"], trace, "ok" if good else "FAILED"))
            ok &= good
    ok &= self_test(binary)
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.test:
        return 0 if test() else 1
    if args.self_test:
        return 0 if self_test(build("ldpids_perfbench")) else 1
    if not args.workload:
        parser.error("--workload is required")
    binary = build("ldpids_perfbench")
    rc, out = serve(binary, args.workload, args.seed, args.seconds,
                    args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    return rc


if __name__ == "__main__":
    sys.exit(main())

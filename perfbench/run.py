#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds the program's libraries and the benchmark from source into
.bench_build/ at the root of the checkout (Release), then runs one
workload. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. Exits nonzero if the build
fails or any check of the program's outputs fails.

--selftest runs every workload briefly, clean and with each fault the
benchmark can inject into the inputs of its own checks, and passes only
if the clean runs pass and every faulty run fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["addrcheck-paper", "dataflow-defcheck", "service-loopback"]
RUN_TIMEOUT_S = 170

# Faults each workload's checks must catch (see main.cpp --inject).
FAULTS = {
    "addrcheck-paper": ["drop-flag", "drop-oracle-error", "alter-reference"],
    "dataflow-defcheck": ["drop-flag", "alter-reference"],
    "service-loopback": ["drop-flag", "alter-reference"],
}


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: program sources (src/) not found beside "
                 "perfbench/; nothing to build")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4", "--target",
                    "perfbench", "perfbench_serve"],
                   stdout=sys.stderr, check=True)


def run(args, capture=False):
    """Run the benchmark binary in its own process group; kill the group
    if it overruns. Returns (exit code, captured stdout or None)."""
    proc = subprocess.Popen([BINARY] + args, cwd=ROOT,
                            stdout=subprocess.PIPE if capture else None,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1, None
    return proc.returncode, out.decode() if capture else None


def selftest():
    ok = True
    for workload in WORKLOADS:
        for fault in [None] + FAULTS[workload]:
            args = ["--workload", workload, "--seed", "7", "--seconds", "1",
                    "--trace", "0", "--quick"]
            if fault:
                args += ["--inject", fault]
            code, out = run(args, capture=True)
            lines = out.strip().splitlines() if out else []
            result = json.loads(lines[-1]) if lines else {}
            failed = [l for l in lines if l.startswith("CHECK FAILED")]
            if fault is None:
                good = code == 0 and result.get("correct") is True
            else:
                good = (code != 0 and result.get("correct") is False and
                        bool(failed))
            ok &= good
            print("%-4s %-18s %-18s exit=%d %s" % (
                "ok" if good else "BAD", workload, fault or "clean", code,
                failed[0] if failed else ""))
    print("selftest %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("perfbench: build failed: %s" % err)
    if args.selftest:
        return selftest()
    code, _ = run(["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)])
    return code


if __name__ == "__main__":
    sys.exit(main())

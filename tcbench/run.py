#!/usr/bin/env python3
"""Build and run the tcfill benchmark (see tcbench/README.md).

Run from the repository root:

    python3 tcbench/run.py --workload tc-hot --seed 1 --seconds 10 --trace 0
    python3 tcbench/run.py --workload all          # all four, one process
    python3 tcbench/run.py --make-reference        # regenerate reference.json

The first run configures and compiles the simulator from src/ into
$CARGO_TARGET_DIR (default .bench_build)/tcbench; later runs only
rebuild what changed. Build output goes to stderr; the benchmark's own
report goes to stdout, whose last line is one JSON object with the keys
correct, attempted, failed and metrics. Scratch state (result stores,
the service socket, results documents, trace files) goes to .bench_run.
Exits non-zero, without a result line, when the build fails or a run
does not finish in time.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "tcbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"tcbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to tcbench/")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "tcbench")
    # Keep the compiler's and the benchmark's temporary files in the
    # checkout too.
    tmp = os.path.join(ROOT, target, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", build_dir, "-j", jobs]]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "tcbench")


def commit_id():
    try:
        # Never look past the checkout for an enclosing repository.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10, env=env)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def check_names(result, trace):
    """The printed metrics must be exactly BENCHMARK.json's."""
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        return
    with open(spec_path) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        fail(f"metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}, units "
             f"{sorted(k for k in want if k in got and want[k] != got[k])}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    help="tc-hot, tc-thrash, sampled, svc-mixed or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--make-reference", action="store_true",
                    help="rewrite tcbench/reference.json (full runs)")
    args = ap.parse_args()

    binary = build()
    if args.make_reference:
        cmd = [binary, "--make-reference",
               os.path.join("tcbench", "reference.json")]
        sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--run-dir", ".bench_run",
           "--reference", os.path.join("tcbench", "reference.json"),
           "--commit", commit_id()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(proc.stdout)
        fail("benchmark printed no result line")
    if args.workload != "all":
        check_names(result, args.trace == 1)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()

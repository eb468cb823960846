#!/usr/bin/env python3
"""End-to-end checks of the built command-line tools.

    cli_checks.py CHECK BUILD_DIR

Each CHECK drives tcfill, tcfilld, tcfill_client or a bench driver
from BUILD_DIR inside a fresh temporary directory (so checks can run
in parallel), and compares what they write byte for byte or through
tools/check_stats_json.py. tests/CMakeLists.txt registers one ctest,
`cli.<CHECK>`, per entry of CHECKS. Exits 1 with a FAIL line on the
first broken contract.
"""

import difflib
import json
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")
sys.path.insert(0, os.path.join(ROOT, "tools"))
sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
import check_stats_json as csj  # noqa: E402

BUILD = ""
TMP = ""


def fail(msg):
    sys.exit(f"FAIL: {msg}")


def path(name):
    return os.path.join(TMP, name)


def run(tool, *args, stdout=subprocess.DEVNULL):
    cmd = [os.path.join(BUILD, tool)] + [str(a) for a in args]
    res = subprocess.run(cmd, stdout=stdout, text=True)
    if res.returncode:
        fail(f"exit {res.returncode}: {' '.join(cmd)}")
    return res.stdout


def tcfill(*args):
    run("tools/tcfill", *args)


def client(sock, *args, stdout=subprocess.DEVNULL):
    return run("tools/tcfill_client", "--socket", sock, *args,
               stdout=stdout)


def valid(*files):
    for f in files:
        if not csj.validate(f)[1]:
            fail(f"{f} is not a valid stats document")


def same_bytes(a, b):
    with open(a, "rb") as fa, open(b, "rb") as fb:
        if fa.read() == fb.read():
            return
    with open(a) as fa, open(b) as fb:
        diff = difflib.unified_diff(fa.readlines(), fb.readlines(), a, b)
        sys.stderr.writelines(list(diff)[:60])
    fail(f"{b} differs from {a}")


def same_timing(a, b):
    valid(a, b)
    if not csj.compare_timing(a, csj.load(a), b, csj.load(b)):
        fail(f"{a} and {b} differ in timing")


def same_replay(a, b):
    valid(a, b)
    if not csj.compare_replay(a, csj.load(a), b, csj.load(b)):
        fail(f"{a} and {b} differ in simulated content")


# ---- checks ---------------------------------------------------------


def check_golden():
    """Regenerated fixtures match tests/golden/ byte for byte."""
    subprocess.run(["sh", os.path.join(ROOT, "tools",
                                       "gen_golden_fixtures.sh"),
                    BUILD, TMP], check=True)
    pinned = sorted(os.path.relpath(os.path.join(d, f), GOLDEN)
                    for d, _, fs in os.walk(GOLDEN) for f in fs)
    made = sorted(os.path.relpath(os.path.join(d, f), TMP)
                  for d, _, fs in os.walk(TMP) for f in fs)
    if pinned != made:
        fail(f"fixture sets differ: pinned {pinned}, generated {made}")
    for rel in pinned:
        same_bytes(os.path.join(GOLDEN, rel), path(rel))
    print(f"{len(pinned)} fixtures byte-identical")


def check_stats_jobs():
    """The stats document is identical at every -j width."""
    for j in (1, 4, 8):
        tcfill("-j", j, "--max-insts", 20000,
               "--stats-json", path(f"j{j}.json"), "all")
    valid(path("j1.json"))
    same_bytes(path("j1.json"), path("j4.json"))
    same_bytes(path("j1.json"), path("j8.json"))


def check_bench_session():
    """A bench driver's --stats-json document (host sections on)."""
    run("bench/abl_dynamic_policy", "--smoke",
        "--stats-json=" + path("bench.json"))
    valid(path("bench.json"))


def check_policy_static():
    """An explicit static policy is the pinned pre-policy machine."""
    for name, args in (
            ("compress-all", ["--opts", "all", "compress"]),
            ("li-none", ["--opts", "none", "li"]),
            ("m88ksim-extended-nii",
             ["--opts", "extended", "--no-inactive-issue", "m88ksim"])):
        tcfill("-j", 1, "--max-insts", 20000, "--fill-policy", "static",
               "--stats-json", path(name + ".json"), *args)
        same_bytes(os.path.join(GOLDEN, name + ".json"),
                   path(name + ".json"))


def check_policy_jobs():
    """Adaptive policies decide identically at every -j width."""
    for p in ("phase", "feedback"):
        for j in (1, 8):
            tcfill("-j", j, "--max-insts", 20000, "--opts", "all",
                   "--fill-policy", p, "--policy-window", 2000,
                   "--stats-json", path(f"{p}-j{j}.json"),
                   "compress,li")
        same_timing(path(f"{p}-j1.json"), path(f"{p}-j8.json"))


def check_replay():
    """Replaying a recorded trace reproduces the live run."""
    for w in ("compress", "li", "m88ksim"):
        tcfill("--max-insts", 20000, "--opts", "all",
               "--record", path(w + ".tctrace"),
               "--stats-json", path(w + "-record.json"), w)
        tcfill("--max-insts", 20000, "--opts", "all",
               "--replay", path(w + ".tctrace"),
               "--stats-json", path(w + "-replay.json"))
        same_replay(path(w + "-record.json"), path(w + "-replay.json"))


def check_bbv_sample():
    """BBV profiling and a default-geometry sampled run."""
    tcfill("--max-insts", 100000, "--bbv", path("bbv.json"),
           "--bbv-interval", 10000, "compress")
    with open(path("bbv.json")) as f:
        json.load(f)
    tcfill("--max-insts", 100000, "--opts", "all",
           "--sample", "8:10000", "--sample-warmup", 50000,
           "--stats-json", path("sample.json"), "compress")
    valid(path("sample.json"))


def check_sample_identity():
    """The sampled estimate ignores jobs, checkpoint knobs and engine."""
    def sample(name, *extra):
        tcfill("--max-insts", 200000, "--opts", "all",
               "--sample", "4:10000", "--sample-warmup", 5000, *extra,
               "--stats-json", path(name), "compress")
        return path(name)

    ref = sample("j1.json", "--sample-jobs", 1)
    valid(ref)
    same_bytes(os.path.join(GOLDEN, "compress-sample.json"), ref)
    for name, extra in (("j2.json", ["--sample-jobs", 2]),
                        ("j8.json", ["--sample-jobs", 8]),
                        ("stride4.json", ["--sample-ckpt-stride", 4]),
                        ("nockpt.json", ["--sample-no-checkpoint"]),
                        ("reference.json", ["--sample-reference"])):
        same_bytes(ref, sample(name, *extra))


def check_scheduler_identity():
    """The scan and wakeup schedulers time every run identically."""
    for opts in ("all", "none"):
        for s in ("scan", "wakeup"):
            tcfill("--max-insts", 200000, "--opts", opts,
                   "--scheduler", s,
                   "--stats-json", path(f"{opts}-{s}.json"),
                   "compress,li,m88ksim")
        same_timing(path(f"{opts}-scan.json"),
                    path(f"{opts}-wakeup.json"))


def check_timeline():
    """The timeline ignores -j, the scheduler and record/replay."""
    tl = ["--max-insts", 50000, "--opts", "all",
          "--stats-interval", 5000, "--stats-phases", 3]
    for j in (1, 8):
        tcfill("-j", j, *tl, "--stats-json", path(f"j{j}.json"),
               "compress,li")
    valid(path("j1.json"))
    same_bytes(path("j1.json"), path("j8.json"))
    for s in ("scan", "wakeup"):
        tcfill(*tl, "--scheduler", s, "--stats-json", path(s + ".json"),
               "compress,li")
    same_timing(path("scan.json"), path("wakeup.json"))
    tcfill(*tl, "--record", path("tl.tctrace"),
           "--stats-json", path("record.json"), "compress")
    tcfill(*tl, "--replay", path("tl.tctrace"),
           "--stats-json", path("replay.json"))
    same_replay(path("record.json"), path("replay.json"))


def check_trace_events():
    """Trace-event exports and host-profile sections validate."""
    tcfill("--max-insts", 20000, "--opts", "all",
           "--trace-events", path("run.json"), "compress")
    tcfill("--max-insts", 200000, "--opts", "all",
           "--sample", "4:10000", "--sample-warmup", 5000, "--stats-host",
           "--trace-events", path("sample.json"),
           "--stats-json", path("sample-host.json"), "compress")
    for f in ("run.json", "sample.json"):
        if not csj.validate_trace_events(path(f)):
            fail(f"{f} is not a valid trace-event export")
    tcfill("--max-insts", 20000, "--opts", "all", "--stats-host",
           "--stats-json", path("host.json"), "compress")
    valid(path("sample-host.json"), path("host.json"))


def start_daemon(sock, *args):
    proc = subprocess.Popen(
        [os.path.join(BUILD, "tools/tcfilld"), "--socket", sock,
         "--store-dir", path("store"), *map(str, args)])
    for _ in range(100):
        ping = subprocess.run(
            [os.path.join(BUILD, "tools/tcfill_client"), "--socket",
             sock, "--ping"], capture_output=True)
        if ping.returncode == 0:
            return proc
        if proc.poll() is not None:
            break
        time.sleep(0.1)
    proc.kill()
    proc.wait()
    fail("tcfilld did not answer --ping")


def stop_daemon(proc, sock):
    try:
        client(sock, "--shutdown")
        if proc.wait(timeout=30):
            fail(f"tcfilld exited {proc.returncode}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def check_service():
    """Cold then warm sweeps, restart, compaction: same records."""
    sweep = ["--opts-list", "all;none;extended;moves",
             "--fill-latency-list", "1;5", "--max-insts", 20000]
    sock = path("sock")
    daemon = start_daemon(sock, "--shards", 2, "--shard-threads", 2)
    try:
        client(sock, *sweep, "--stats-json", path("cold.json"),
               "--require", "computed", "compress,li")
        client(sock, *sweep, "--stats-json", path("warm.json"),
               "--require", "store", "compress,li")
        json.loads(client(sock, "--server-stats",
                          stdout=subprocess.PIPE))
    finally:
        stop_daemon(daemon, sock)
    same_replay(path("cold.json"), path("warm.json"))

    # The compacted store still serves every point after a restart.
    run("tools/tcfilld", "--store-dir", path("store"), "--compact")
    sock = path("sock2")
    daemon = start_daemon(sock, "--shards", 1)
    try:
        client(sock, *sweep, "--require", "store", "compress,li")
    finally:
        stop_daemon(daemon, sock)


CHECKS = {name[len("check_"):]: fn for name, fn in globals().items()
          if name.startswith("check_")}


def main():
    global BUILD, TMP
    if len(sys.argv) != 3 or sys.argv[1] not in CHECKS:
        sys.exit(f"usage: cli_checks.py {{{'|'.join(CHECKS)}}} "
                 "BUILD_DIR")
    BUILD = os.path.abspath(sys.argv[2])
    with tempfile.TemporaryDirectory(prefix="tcfill-cli-") as tmp:
        TMP = tmp
        CHECKS[sys.argv[1]]()


if __name__ == "__main__":
    main()

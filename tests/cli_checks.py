#!/usr/bin/env python3
"""End-to-end checks of the built command-line tools.

    cli_checks.py CHECK BUILD_DIR

Each CHECK drives tcfill, tcfilld, tcfill_client, bench/paper or the
examples from BUILD_DIR inside a fresh temporary directory (so checks
can run in parallel), and compares what they write byte for byte or
through tools/check_stats_json.py. tests/CMakeLists.txt registers one
ctest, `cli.<CHECK>`, per entry of CHECKS. Exits 1 with a FAIL line on
the first broken contract.
"""

import difflib
import json
import os
import socket
import struct
import subprocess
import sys
import tempfile
import time
import zlib

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


def same_replay(a, b):
    valid(a, b)
    if not csj.compare_replay(a, csj.load(a), b, csj.load(b)):
        fail(f"{a} and {b} differ in simulated content")


# ---- checks ---------------------------------------------------------


def check_golden():
    """Regenerated fixtures match tests/golden/ byte for byte, and every
    pinned stats document passes check_stats_json.py's rules."""
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
        if rel.endswith(".json"):
            valid(os.path.join(GOLDEN, rel))
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
    """bench/paper's --stats-json document (host sections on); the
    table it prints is still the pinned one."""
    out = run("bench/paper", "--stats-json", path("bench.json"),
              "table2_transform_rates", stdout=subprocess.PIPE)
    valid(path("bench.json"))
    with open(os.path.join(GOLDEN, "paper",
                           "table2_transform_rates.txt")) as f:
        if out != f.read():
            fail("paper --stats-json changed what table2 prints")


def check_examples():
    """Each example runs to completion and prints something."""
    for name in ("quickstart", "trace_inspector", "custom_workload",
                 "design_space"):
        if not run("examples/" + name, stdout=subprocess.PIPE):
            fail(f"examples/{name} printed nothing")


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
    # Retired policy names are refused, not run as something else.
    for p in ("phase", "feedback"):
        res = subprocess.run([os.path.join(BUILD, "tools/tcfill"),
                              "--fill-policy", p, "compress"],
                             stdout=subprocess.DEVNULL,
                             stderr=subprocess.PIPE, text=True)
        if res.returncode == 0 or \
                f"unknown fill policy '{p}'" not in res.stderr:
            fail(f"--fill-policy {p} was not refused: {res.stderr}")


def check_policy_jobs():
    """A switching oracle decides identically at every -j width."""
    for j in (1, 8):
        tcfill("-j", j, "--max-insts", 20000, "--opts", "all",
               "--fill-policy", "oracle", "--policy-window", 2000,
               "--policy-threshold", 0.002, "--policy-phases", 4,
               "--policy-map",
               "0=all,1=moves+reassoc+scaled,2=placement,*=none",
               "--stats-json", path(f"oracle-j{j}.json"), "compress,li")
    valid(path("oracle-j1.json"))
    same_bytes(path("oracle-j1.json"), path("oracle-j8.json"))


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
    """The sampled estimate ignores jobs and checkpoint knobs."""
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
                        ("stride4.json", ["--sample-ckpt-stride", 4])):
        same_bytes(ref, sample(name, *extra))


def check_timeline():
    """The timeline ignores -j and record/replay."""
    tl = ["--max-insts", 50000, "--opts", "all",
          "--stats-interval", 5000, "--stats-phases", 3]
    for j in (1, 8):
        tcfill("-j", j, *tl, "--stats-json", path(f"j{j}.json"),
               "compress,li")
    valid(path("j1.json"))
    same_bytes(path("j1.json"), path("j8.json"))
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


def check_bad_args():
    """Each tool names the option, experiment or example argument it
    refuses before its usage text; retired options are refused by name,
    not run as something else, and so are an integer option's (or
    example argument's) value that is not digits alone, a number
    option's value that is not a number and a bad --opts pass token."""
    for tool, args, want in (
            ("tools/tcfill", ["--policy-hysteresis", "0.1", "compress"],
             "unknown option '--policy-hysteresis'"),
            ("tools/tcfill", ["--scheduler", "scan", "compress"],
             "unknown option '--scheduler'"),
            ("tools/tcfill", ["--sample", "4:10000", "--sample-reference",
                              "compress"],
             "unknown option '--sample-reference'"),
            ("tools/tcfill", ["--scale"], "option '--scale' needs a value"),
            ("tools/tcfill", ["--scale", "abc", "compress"],
             "option '--scale' needs an integer from 0 to 4294967295, "
             "got 'abc'"),
            ("tools/tcfill", ["--max-insts", "1e6", "compress"],
             "option '--max-insts' needs an integer from 0 to "
             "18446744073709551615, got '1e6'"),
            ("tools/tcfill", ["-j", "abc", "compress"],
             "option '-j' needs an integer from 0 to 1024, got 'abc'"),
            ("tools/tcfill", ["--policy-threshold", "x", "compress"],
             "option '--policy-threshold' needs a number, got 'x'"),
            ("tools/tcfill", ["--policy-threshold", "1e", "compress"],
             "option '--policy-threshold' needs a number, got '1e'"),
            ("tools/tcfilld", ["--bogus"], "unknown option '--bogus'"),
            ("tools/tcfilld", ["--socket"],
             "option '--socket' needs a value"),
            ("tools/tcfill_client", ["--bogus"],
             "unknown option '--bogus'"),
            ("tools/tcfill_client", ["--socket", path("s"), "--opts"],
             "option '--opts' needs a value"),
            ("bench/paper", ["bogus"], "unknown experiment 'bogus'"),
            ("examples/quickstart", ["compress", "abc"],
             "argument 'scale' needs an integer from 0 to 4294967295, "
             "got 'abc'"),
            ("examples/trace_inspector", ["m88ksim", "abc"],
             "argument 'max_segments' needs an integer from 0 to "
             "4294967295, got 'abc'")):
        res = subprocess.run([os.path.join(BUILD, tool), *args],
                             stdout=subprocess.DEVNULL,
                             stderr=subprocess.PIPE, text=True)
        first = res.stderr.splitlines()[0] if res.stderr else ""
        if res.returncode != 2 or first != want or "usage:" not in \
                res.stderr:
            fail(f"{tool} {' '.join(args)}: exit {res.returncode}, "
                 f"stderr {res.stderr!r}; want {want!r} then usage")
    # The checker's retired identity mode is an argparse error.
    res = subprocess.run([sys.executable,
                          os.path.join(ROOT, "tools", "check_stats_json.py"),
                          path("a.json"), path("b.json"),
                          "--compare-timing"],
                         stdout=subprocess.DEVNULL,
                         stderr=subprocess.PIPE, text=True)
    want = "unrecognized arguments: --compare-timing"
    if res.returncode != 2 or want not in res.stderr:
        fail(f"check_stats_json.py --compare-timing: exit "
             f"{res.returncode}, stderr {res.stderr!r}; want {want!r}")
    # A bad pass token is refused by name before anything runs: tcfill
    # prints no result and the client never reaches its (absent)
    # socket.
    for tool, args, spec in (
            ("tools/tcfill", ["--opts", "moves,bogus", "compress"],
             "moves,bogus"),
            ("tools/tcfill_client",
             ["--socket", path("s"), "--opts", "moves,bogus"],
             "moves,bogus"),
            ("tools/tcfill_client",
             ["--socket", path("s"), "--opts-list", "all;dce,bogus"],
             "dce,bogus")):
        res = subprocess.run([os.path.join(BUILD, tool), *args],
                             stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True)
        want = f"fatal: unknown pass mask token 'bogus' in '{spec}'\n"
        if res.returncode != 1 or res.stderr != want or res.stdout:
            fail(f"{tool} {' '.join(args)}: exit {res.returncode}, "
                 f"stdout {res.stdout!r}, stderr {res.stderr!r}; "
                 f"want {want!r} alone")


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


def svc_message(sock, header):
    """Send one tcfill-svc-v3 message; return the reply's header."""
    hdr = json.dumps(header).encode()
    payload = struct.pack("<I", len(hdr)) + hdr
    sock.sendall(struct.pack("<II", 0x32767374, len(payload)) + payload +
                 struct.pack("<I", zlib.crc32(payload)))
    data = b""
    while len(data) < 8 or len(data) < 12 + struct.unpack_from(
            "<I", data, 4)[0]:
        chunk = sock.recv(65536)
        if not chunk:
            fail("daemon hung up before replying")
        data += chunk
    magic, size = struct.unpack_from("<II", data)
    payload = data[8:8 + size]
    if magic != 0x32767374 or struct.unpack_from(
            "<I", data, 8 + size)[0] != zlib.crc32(payload):
        fail("malformed reply frame")
    hlen = struct.unpack_from("<I", payload)[0]
    return json.loads(payload[4:4 + hlen])


def progress_frames(sock):
    stats = json.loads(client(sock, "--server-stats",
                              stdout=subprocess.PIPE))
    return stats["service"]["progressFrames"]


def check_service():
    """Cold then warm sweeps, restart, compaction: same records."""
    sweep = ["--opts-list", "all;none;extended;moves",
             "--fill-latency-list", "1;5", "--max-insts", 20000]
    sock = path("sock")
    log = path("store/results.tcfstore")
    daemon = start_daemon(sock, "--shards", 2, "--shard-threads", 2)
    try:
        client(sock, *sweep, "--stats-json", path("cold.json"),
               "--require", "computed", "compress,li")
        cold_size = os.path.getsize(log)
        client(sock, *sweep, "--stats-json", path("warm.json"),
               "--require", "store", "compress,li")
        # Neither sweep asked for progress, so none was sent; with
        # --progress the client asks, and prints every point.
        if progress_frames(sock) != 0:
            fail("progress frames sent to sweeps that did not ask")
        res = subprocess.run(
            [os.path.join(BUILD, "tools/tcfill_client"), "--socket", sock,
             *map(str, sweep), "--progress", "compress,li"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if res.returncode or "service sweep 16/16" not in res.stderr:
            fail(f"--progress printed no progress: {res.stderr!r}")
        if progress_frames(sock) != 16:
            fail("a --progress sweep of 16 points got "
                 f"{progress_frames(sock)} progress frames")
        # A client naming another protocol is refused, by name.
        for old in ("tcfill-svc-v1", "tcfill-svc-v2"):
            with socket.socket(socket.AF_UNIX,
                               socket.SOCK_STREAM) as raw:
                raw.connect(sock)
                reply = svc_message(raw, {"type": "hello",
                                          "schema": old})
            want = (f"unsupported protocol '{old}': this daemon "
                    "speaks tcfill-svc-v3")
            if reply.get("type") != "error" or \
                    reply.get("message") != want:
                fail(f"old-protocol hello not refused clearly: {reply}")
        # Store hits write nothing; their recency goes out with the
        # next append or, here, at shutdown.
        if os.path.getsize(log) != cold_size:
            fail(f"store hits wrote to the log: {cold_size} bytes after "
                 f"the cold sweep, {os.path.getsize(log)} while serving")
    finally:
        stop_daemon(daemon, sock)
    if os.path.getsize(log) <= cold_size:
        fail("shutdown wrote no TOUCH record for the keys read")
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

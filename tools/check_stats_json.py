#!/usr/bin/env python3
"""Validate (and optionally diff) tcfill stats JSON documents.

Usage:
    check_stats_json.py STATS.json
        Validate one document against the tcfill-stats-v1 schema:
        required fields and types, internal consistency (ipc ==
        retired/cycles, rates inside [0, 1], sweep counters add up).
        Optional sections are validated when present: the per-result
        `timeline` series (tcfill-timeline-v1: intervals must tile
        retired/cycles exactly, delta rows must match the counter
        column set, phase labels must be in range, the passMask
        column is all-or-nothing), the fill `policy` decision record
        (--fill-policy oracle runs: per-phase window accounting
        must sum, masks in range), the sampled-run host.sample
        accounting, the self-profiler's host.profile, and the
        top-level `service` provenance section tcfill_client sweeps
        carry (store + memory + computed must equal points; every
        result's cacheHit must name a known source).

    check_stats_json.py EVENTS.json --validate-trace-events
        Validate a Chrome/Perfetto trace-event export (--trace-events):
        top-level {"traceEvents": [...]}, every event carries
        ph/pid/tid/name, non-metadata events carry ts, complete events
        carry dur, and both known process tracks are named.

    check_stats_json.py OLD.json NEW.json [--ipc-tol FRAC]
        Validate both documents, then compare IPC per
        (workload, config) key and report every point whose relative
        change exceeds --ipc-tol (default 0: report any difference).
        Exits non-zero when a shared point regressed beyond tolerance;
        points present in only one document are reported but are not
        an error (sweeps grow).

    check_stats_json.py LIVE.json REPLAY.json --compare-replay
        Enforce the record/replay determinism contract: after
        stripping run provenance that legitimately differs between a
        live and a replayed run (mode, cacheHit, the host wall-clock
        sections and the sweep bookkeeping), the two documents must be
        byte-identical when canonically re-serialized. On divergence,
        reports the first differing counter per result and exits 1.

Exit status: 0 clean, 1 validation/diff failure, 2 usage error.
Stdlib only, so it runs in CI and on dev machines without a venv.
"""

import argparse
import json
import math
import sys

SCHEMA = "tcfill-stats-v1"
TIMELINE_SCHEMA = "tcfill-timeline-v1"

# host.sample: sampled-run mechanics accounting (mode == "sample").
SAMPLE_HOST_FIELDS = (
    "checkpoints", "checkpointPages", "restores", "restoredPages",
    "ffInsts", "simpoints", "jobs",
)

# Where a result came from: simulated fresh, served by an in-memory
# cache (SimRunner pool or daemon coalescing), or read back from the
# persistent service result store.
CACHE_HIT_VALUES = ("computed", "memory", "store")

# field name -> required type(s). bool is checked before int because
# bool is a subclass of int in Python.
RESULT_FIELDS = {
    "config": str,
    "workload": str,
    "mode": str,
    "maxInsts": int,
    "cacheHit": str,
    "sourceDigest": str,
    "retired": int,
    "cycles": int,
    "ipc": (int, float),
    "tcHits": int,
    "tcMisses": int,
    "tcHitRate": (int, float),
    "bpredAccuracy": (int, float),
    "mispredicts": int,
    "inactiveRescues": int,
    "mispredictStallCycles": int,
    "segmentsBuilt": int,
    "avgSegmentLength": (int, float),
    "dynMoves": int,
    "dynReassoc": int,
    "dynScaled": int,
    "dynMoveIdioms": int,
    "dynElided": int,
    "bypassDelayed": int,
    "fracMoves": (int, float),
    "fracReassoc": (int, float),
    "fracScaled": (int, float),
    "fracTransformed": (int, float),
    "fracMoveIdioms": (int, float),
    "fracElided": (int, float),
    "fracBypassDelayed": (int, float),
}

RATE_FIELDS = [
    "tcHitRate", "bpredAccuracy", "fracMoves", "fracReassoc",
    "fracScaled", "fracTransformed", "fracMoveIdioms", "fracElided",
    "fracBypassDelayed",
]

# Optional per-result `policy` section (--fill-policy oracle runs).
# These are DECISION counters, not diagnostics: policy choices feed
# back into segment construction and therefore into timing, so the
# section deliberately stays in the deterministic document body where
# --compare-replay includes it (unlike the host.* wall-clock
# sections, which are stripped as volatile).
POLICY_FIELDS = {
    "kind": str,
    "finalMask": int,
    "windows": int,
    "switches": int,
    "phasesSeen": int,
    "movesMarked": int,
    "reassociations": int,
    "scaledAdds": int,
    "deadElided": int,
}

POLICY_KINDS = ("static", "oracle")

# Every pass bit that exists (fill/passes.hh kPassMaskEvery).
POLICY_MASK_MAX = 31


class Checker:
    def __init__(self, path):
        self.path = path
        self.errors = []

    def error(self, where, msg):
        self.errors.append(f"{self.path}: {where}: {msg}")

    def check_type(self, where, obj, field, types):
        if field not in obj:
            self.error(where, f"missing field '{field}'")
            return False
        v = obj[field]
        if types is int and isinstance(v, bool):
            self.error(where, f"'{field}' is bool, expected int")
            return False
        if types is bool:
            ok = isinstance(v, bool)
        else:
            ok = isinstance(v, types) and not isinstance(v, bool)
        if not ok:
            self.error(where,
                       f"'{field}' has type {type(v).__name__}")
            return False
        return True

    def check_result(self, i, r):
        where = f"results[{i}]"
        if not isinstance(r, dict):
            self.error(where, "not an object")
            return
        for field, types in RESULT_FIELDS.items():
            self.check_type(where, r, field, types)
        if self.errors:
            return
        if r["mode"] not in ("live", "record", "replay", "sample"):
            self.error(where, f"unknown mode {r['mode']!r}")
        if r["cacheHit"] not in CACHE_HIT_VALUES:
            self.error(where, f"unknown cacheHit {r['cacheHit']!r}")
        # Internal consistency.
        if r["cycles"] > 0:
            want = r["retired"] / r["cycles"]
            if not math.isclose(r["ipc"], want, rel_tol=1e-12):
                self.error(where,
                           f"ipc {r['ipc']} != retired/cycles {want}")
        elif r["ipc"] != 0:
            self.error(where, "ipc nonzero with zero cycles")
        total = r["tcHits"] + r["tcMisses"]
        if total > 0:
            want = r["tcHits"] / total
            if not math.isclose(r["tcHitRate"], want, rel_tol=1e-12):
                self.error(where, "tcHitRate inconsistent")
        for f in RATE_FIELDS:
            if not 0.0 <= r[f] <= 1.0:
                self.error(where, f"'{f}' = {r[f]} outside [0, 1]")
        if "timeline" in r:
            self.check_timeline(where, r)
        if "policy" in r:
            self.check_policy(where, r)
        if "host" in r:
            self.check_host(where, r)

    def check_policy(self, where, r):
        p = r["policy"]
        where = f"{where}.policy"
        if not isinstance(p, dict):
            self.error(where, "not an object")
            return
        for field, types in POLICY_FIELDS.items():
            self.check_type(where, p, field, types)
        phases = p.get("phases")
        if not isinstance(phases, list):
            self.error(where, "phases missing or not an array")
            return
        if self.errors:
            return
        if p["kind"] not in POLICY_KINDS:
            self.error(where, f"unknown kind {p['kind']!r}")
        if not 0 <= p["finalMask"] <= POLICY_MASK_MAX:
            self.error(where, f"finalMask {p['finalMask']} outside "
                              f"[0, {POLICY_MASK_MAX}]")
        windows = 0
        for i, ps in enumerate(phases):
            w = f"{where}.phases[{i}]"
            if not isinstance(ps, dict):
                self.error(w, "not an object")
                return
            for f in ("phase", "mask", "windows", "insts", "cycles"):
                if not self.check_type(w, ps, f, int):
                    return
            if not self.check_type(w, ps, "ipc", (int, float)):
                return
            if not 0 <= ps["mask"] <= POLICY_MASK_MAX:
                self.error(w, f"mask {ps['mask']} outside "
                              f"[0, {POLICY_MASK_MAX}]")
            if ps["windows"] <= 0:
                self.error(w, f"windows {ps['windows']} <= 0")
            if ps["cycles"] > 0:
                want = ps["insts"] / ps["cycles"]
                if not math.isclose(ps["ipc"], want, rel_tol=1e-12):
                    self.error(w, f"ipc {ps['ipc']} != "
                                  f"insts/cycles {want}")
            elif ps["ipc"] != 0:
                self.error(w, "ipc nonzero with zero cycles")
            windows += ps["windows"]
        # Every closed window is attributed to exactly one phase.
        if phases and windows != p["windows"]:
            self.error(where, f"phase windows sum to {windows}, "
                              f"section reports {p['windows']}")
        if p["windows"] > 0 and not phases:
            self.error(where, "windows closed but phases array empty")

    def check_timeline(self, where, r):
        tl = r["timeline"]
        where = f"{where}.timeline"
        if not isinstance(tl, dict):
            self.error(where, "not an object")
            return
        if tl.get("schema") != TIMELINE_SCHEMA:
            self.error(where, f"expected schema '{TIMELINE_SCHEMA}', "
                              f"got {tl.get('schema')!r}")
        for f in ("interval", "phases"):
            self.check_type(where, tl, f, int)
        counters = tl.get("counters")
        if not isinstance(counters, list) or \
                not all(isinstance(c, str) for c in counters):
            self.error(where, "counters missing or not a string array")
            return
        ivs = tl.get("intervals")
        if not isinstance(ivs, list):
            self.error(where, "intervals missing or not an array")
            return
        if self.errors:
            return
        if tl["interval"] <= 0:
            self.error(where, f"interval {tl['interval']} <= 0")
        phases = tl["phases"]
        # A mask probe is all-or-nothing: every interval carries
        # passMask (oracle fill policy attached) or none does
        # (static/legacy runs — whose bytes must not change).
        masked = sum(1 for iv in ivs
                     if isinstance(iv, dict) and "passMask" in iv)
        if masked not in (0, len(ivs)):
            self.error(where, f"passMask on {masked} of {len(ivs)} "
                              f"intervals (must be all or none)")
        next_inst, next_cycle = 0, 0
        for i, iv in enumerate(ivs):
            w = f"{where}.intervals[{i}]"
            if not isinstance(iv, dict):
                self.error(w, "not an object")
                return
            for f in ("startInst", "insts", "startCycle", "cycles",
                      "phase"):
                if not self.check_type(w, iv, f, int):
                    return
            if not self.check_type(w, iv, "ipc", (int, float)):
                return
            # Intervals tile the run: each starts where its
            # predecessor ended, in both instructions and cycles.
            if iv["startInst"] != next_inst:
                self.error(w, f"startInst {iv['startInst']}, "
                              f"expected {next_inst}")
            if iv["startCycle"] != next_cycle:
                self.error(w, f"startCycle {iv['startCycle']}, "
                              f"expected {next_cycle}")
            if iv["insts"] <= 0:
                self.error(w, f"insts {iv['insts']} <= 0")
            next_inst = iv["startInst"] + iv["insts"]
            next_cycle = iv["startCycle"] + iv["cycles"]
            if iv["cycles"] > 0:
                want = iv["insts"] / iv["cycles"]
                if not math.isclose(iv["ipc"], want, rel_tol=1e-12):
                    self.error(w, f"ipc {iv['ipc']} != "
                                  f"insts/cycles {want}")
            elif iv["ipc"] != 0:
                self.error(w, "ipc nonzero with zero cycles")
            if phases > 0:
                if not 0 <= iv["phase"] < phases:
                    self.error(w, f"phase {iv['phase']} outside "
                                  f"[0, {phases})")
            elif iv["phase"] != -1:
                self.error(w, f"phase {iv['phase']} with phase "
                              f"tagging off (expected -1)")
            if "passMask" in iv:
                if not self.check_type(w, iv, "passMask", int):
                    return
                if not 0 <= iv["passMask"] <= POLICY_MASK_MAX:
                    self.error(w, f"passMask {iv['passMask']} "
                                  f"outside [0, {POLICY_MASK_MAX}]")
            deltas = iv.get("deltas")
            if not isinstance(deltas, list) or \
                    len(deltas) != len(counters):
                self.error(w, "deltas missing or length != counters")
            elif not all(isinstance(d, int) and
                         not isinstance(d, bool) and d >= 0
                         for d in deltas):
                self.error(w, "deltas hold a non-counter value")
        if next_inst != r["retired"]:
            self.error(where, f"interval insts sum to {next_inst}, "
                              f"result retired {r['retired']}")
        if next_cycle != r["cycles"]:
            self.error(where, f"interval cycles sum to {next_cycle}, "
                              f"result cycles {r['cycles']}")

    def check_host(self, where, r):
        h = r["host"]
        where = f"{where}.host"
        self.check_type(where, h, "hostSeconds", (int, float))
        self.check_type(where, h, "simInstsPerSec", (int, float))
        if "profile" in h:
            prof = h["profile"]
            if not isinstance(prof, dict):
                self.error(f"{where}.profile", "not an object")
            else:
                for name, row in prof.items():
                    w = f"{where}.profile.{name}"
                    if not isinstance(row, dict):
                        self.error(w, "not an object")
                        continue
                    self.check_type(w, row, "seconds", (int, float))
                    self.check_type(w, row, "calls", int)
        if r["mode"] == "sample":
            if "sample" not in h:
                self.error(where,
                           "sampled result missing host.sample")
                return
            s = h["sample"]
            for f in SAMPLE_HOST_FIELDS:
                self.check_type(f"{where}.sample", s, f, int)
            if self.errors:
                return
            if s["jobs"] < 1:
                self.error(f"{where}.sample", "jobs < 1")
            if s["simpoints"] < 1:
                self.error(f"{where}.sample", "simpoints < 1")
            if s["restores"] > 0 and s["checkpoints"] == 0:
                self.error(f"{where}.sample",
                           "restores without checkpoints")

    def check_document(self, doc):
        if not isinstance(doc, dict):
            self.error("document", "top level is not an object")
            return
        if doc.get("schema") != SCHEMA:
            self.error("schema",
                       f"expected '{SCHEMA}', got {doc.get('schema')!r}")
        self.check_type("document", doc, "generator", str)
        results = doc.get("results")
        if not isinstance(results, list):
            self.error("results", "missing or not an array")
            return
        for i, r in enumerate(results):
            self.check_result(i, r)
        if "service" in doc:
            s = doc["service"]
            where = "service"
            if not isinstance(s, dict):
                self.error(where, "not an object")
                return
            for f in ("points", "storeHits", "memoryHits", "computed"):
                self.check_type(where, s, f, int)
            if not self.errors:
                served = (s["storeHits"] + s["memoryHits"] +
                          s["computed"])
                if served != s["points"]:
                    self.error(where, "storeHits + memoryHits + "
                                      "computed != points")
        if "sweep" in doc:
            s = doc["sweep"]
            where = "sweep"
            for f in ("points", "done", "cacheHits", "liveRuns"):
                self.check_type(where, s, f, int)
            if not self.errors:
                if s["cacheHits"] + s["liveRuns"] != s["points"]:
                    self.error(where,
                               "cacheHits + liveRuns != points")
                if s["done"] > s["points"]:
                    self.error(where, "done > points")
        if "host" in doc:
            h = doc["host"]
            for f in ("workers", "wallSeconds", "busySeconds",
                      "utilization", "pointsPerSec"):
                self.check_type("host", h, f, (int, float))


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"{path}: cannot load: {e}", file=sys.stderr)
        sys.exit(1)


def validate(path):
    doc = load(path)
    c = Checker(path)
    c.check_document(doc)
    for e in c.errors:
        print(e, file=sys.stderr)
    return doc, not c.errors


def by_point(doc):
    """Index results by (workload, config); last record wins so a
    deliberate cache-hit repeat compares against the same physics."""
    return {(r["workload"], r["config"]): r for r in doc["results"]}


def diff(old_path, old, new_path, new, tol):
    old_pts, new_pts = by_point(old), by_point(new)
    regressed = False
    for key in sorted(old_pts.keys() | new_pts.keys()):
        label = f"{key[0]}/{key[1]}"
        if key not in old_pts:
            print(f"  + {label}: only in {new_path}")
            continue
        if key not in new_pts:
            print(f"  - {label}: only in {old_path}")
            continue
        a, b = old_pts[key]["ipc"], new_pts[key]["ipc"]
        if a == b:
            continue
        rel = abs(b - a) / a if a else math.inf
        mark = "!!" if rel > tol else "~"
        print(f"  {mark} {label}: ipc {a:.6f} -> {b:.6f} "
              f"({(b / a - 1) * 100 if a else math.inf:+.3f}%)")
        if rel > tol:
            regressed = True
    return not regressed


# Keys whose values legitimately differ between a live/recording run
# and a replay of its trace: run-mode provenance, cache/source
# provenance and anything derived from host wall-clock time.
REPLAY_VOLATILE_RESULT_KEYS = ("mode", "cacheHit", "sourceDigest",
                               "host")
REPLAY_VOLATILE_DOC_KEYS = ("generator", "sweep", "service", "host")


def canonical_replay_view(doc):
    """The document reduced to its deterministic simulation content."""
    view = {k: v for k, v in doc.items()
            if k not in REPLAY_VOLATILE_DOC_KEYS}
    view["results"] = [
        {k: v for k, v in r.items()
         if k not in REPLAY_VOLATILE_RESULT_KEYS}
        for r in doc["results"]
    ]
    return view


def first_divergence(live_r, replay_r):
    """Name the first counter that differs between two result records
    (document key order, i.e. the order the simulator emitted)."""
    for key in live_r:
        if key in REPLAY_VOLATILE_RESULT_KEYS:
            continue
        if key not in replay_r:
            return key, live_r[key], "<missing>"
        if live_r[key] != replay_r[key]:
            return key, live_r[key], replay_r[key]
    for key in replay_r:
        if key not in live_r and key not in REPLAY_VOLATILE_RESULT_KEYS:
            return key, "<missing>", replay_r[key]
    return None


def compare_replay(live_path, live, replay_path, replay):
    """--compare-replay: the two documents must be identical modulo
    the volatile keys."""
    a_bytes = json.dumps(canonical_replay_view(live), sort_keys=True)
    b_bytes = json.dumps(canonical_replay_view(replay), sort_keys=True)
    if a_bytes == b_bytes:
        n = len(live["results"])
        print(f"replay deterministic: {n} result"
              f"{'s' if n != 1 else ''} byte-identical "
              f"(modulo {', '.join(REPLAY_VOLATILE_RESULT_KEYS)})")
        return True

    live_pts, replay_pts = by_point(live), by_point(replay)
    for key in sorted(live_pts.keys() | replay_pts.keys()):
        label = f"{key[0]}/{key[1]}"
        if key not in live_pts:
            print(f"  !! {label}: only in {replay_path}")
            continue
        if key not in replay_pts:
            print(f"  !! {label}: only in {live_path}")
            continue
        div = first_divergence(live_pts[key], replay_pts[key])
        if div:
            field, a_v, b_v = div
            print(f"  !! {label}: first diverging counter "
                  f"'{field}': {a_v} (live) vs {b_v} (replay)")
    print(f"replay deterministic FAILED: {live_path} vs {replay_path}")
    return False


# ---- trace-event export validation --------------------------------------

# Event phases tcfill emits: complete spans, instants, counters,
# metadata. Anything else means the writer grew without this check.
TRACE_EVENT_PHASES = {"X", "i", "C", "M"}


def validate_trace_events(path):
    doc = load(path)
    errors = []

    def error(i, msg):
        errors.append(f"{path}: traceEvents[{i}]: {msg}")

    if not isinstance(doc, dict) or "traceEvents" not in doc:
        print(f"{path}: top level is not {{\"traceEvents\": [...]}}",
              file=sys.stderr)
        return False
    evs = doc["traceEvents"]
    if not isinstance(evs, list):
        print(f"{path}: traceEvents is not an array", file=sys.stderr)
        return False
    named_pids = set()
    for i, e in enumerate(evs):
        if not isinstance(e, dict):
            error(i, "not an object")
            continue
        ph = e.get("ph")
        if ph not in TRACE_EVENT_PHASES:
            error(i, f"unknown ph {ph!r}")
            continue
        for f in ("pid", "tid"):
            if not isinstance(e.get(f), int) or \
                    isinstance(e.get(f), bool):
                error(i, f"missing or non-integer '{f}'")
        if not isinstance(e.get("name"), str) or not e["name"]:
            error(i, "missing or empty 'name'")
        if ph != "M":
            ts = e.get("ts")
            if not isinstance(ts, (int, float)) or \
                    isinstance(ts, bool):
                error(i, "missing or non-numeric 'ts'")
            elif ts < 0:
                error(i, f"negative ts {ts}")
        if ph == "X":
            dur = e.get("dur")
            if not isinstance(dur, (int, float)) or \
                    isinstance(dur, bool):
                error(i, "complete event missing numeric 'dur'")
            elif dur < 0:
                error(i, f"negative dur {dur}")
        if ph == "i" and e.get("s") not in ("t", "p", "g"):
            error(i, f"instant scope {e.get('s')!r} not in t/p/g")
        if ph == "C" and not isinstance(e.get("args"), dict):
            error(i, "counter event missing args object")
        if ph == "M" and e.get("name") == "process_name":
            named_pids.add(e.get("pid"))
    # Both emitters name their process track up front; an export with
    # payload events on an unnamed pid points at a wiring bug.
    payload_pids = {e.get("pid") for e in evs
                    if isinstance(e, dict) and e.get("ph") != "M"}
    for pid in sorted(p for p in payload_pids if p is not None):
        if pid not in named_pids:
            errors.append(f"{path}: pid {pid} has events but no "
                          f"process_name metadata")
    for e in errors[:20]:
        print(e, file=sys.stderr)
    if len(errors) > 20:
        print(f"{path}: ... and {len(errors) - 20} more errors",
              file=sys.stderr)
    if not errors:
        print(f"{path}: OK ({len(evs)} trace events)")
    return not errors


def main():
    ap = argparse.ArgumentParser(
        description="Validate / diff tcfill stats JSON documents.")
    ap.add_argument("files", nargs="+", metavar="STATS.json",
                    help="one file to validate, two to diff")
    ap.add_argument("--ipc-tol", type=float, default=0.0,
                    help="relative IPC change tolerated in diff mode "
                         "(default 0: any change fails)")
    ap.add_argument("--compare-replay", action="store_true",
                    help="two-file mode: require identical simulation "
                         "content (record/replay determinism check)")
    ap.add_argument("--validate-trace-events", action="store_true",
                    help="validate Chrome/Perfetto trace-event "
                         "exports (--trace-events files) instead of "
                         "stats documents")
    opts = ap.parse_args()
    modes = [m for m in ("--compare-replay", "--validate-trace-events")
             if getattr(opts, m[2:].replace("-", "_"))]
    if len(modes) > 1:
        ap.error("pick one of " + ", ".join(modes))
    if opts.validate_trace_events:
        ok = all([validate_trace_events(p) for p in opts.files])
        sys.exit(0 if ok else 1)
    if len(opts.files) > 2:
        ap.error("expected one or two files")
    if modes and len(opts.files) != 2:
        ap.error(f"{modes[0]} needs exactly two files")

    ok = True
    docs = []
    for path in opts.files:
        doc, valid = validate(path)
        docs.append(doc)
        ok = ok and valid
        if valid:
            n = len(doc["results"])
            print(f"{path}: OK ({n} result{'s' if n != 1 else ''})")
    if ok and len(docs) == 2:
        if opts.compare_replay:
            ok = compare_replay(opts.files[0], docs[0], opts.files[1],
                                docs[1])
        else:
            ok = diff(opts.files[0], docs[0], opts.files[1], docs[1],
                      opts.ipc_tol)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

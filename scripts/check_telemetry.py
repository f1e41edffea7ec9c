#!/usr/bin/env python3
"""Validate tit-replay observability outputs (stdlib only).

Usage: check_telemetry.py TIMELINE.json PROFILE.json METRICS.json
       check_telemetry.py --robustness DEGRADED_METRICS.json RESUME_METRICS.json
       check_telemetry.py --serve SERVE_METRICS.json
       check_telemetry.py --timeres TIMERES.json
       check_telemetry.py --kprof KPROF.json

Checks that
  * the timeline parses as Chrome trace-event JSON, its complete events
    ("ph":"X") are monotone in end time (ts+dur) and carry sane fields;
  * the profile parses, declares schema titobs-profile-v1, and every
    rank's per-tag times/counts sum to the rank totals;
  * the metrics file parses, declares schema titobs-metrics-v1 and
    contains the replay counters.

With --serve, instead checks a drained tit-serve metrics flush
(docs/SERVING.md): schema titobs-metrics-v1, serve.requests >= 1, the
terminal-outcome counters summing exactly to serve.admitted (every
admitted request resolves exactly once — ok, partial or error — no
matter how often it was preempted and requeued), and a drained queue
(serve.queue_depth == 0).

With --timeres, checks a tit-replay --time-resolved report
(docs/OBSERVABILITY.md): schema tit-timeres-v1, no unknown top-level
sections, windows in time order with balanced per-window op counts,
derived metrics in range, and conservation — the per-window totals
summed over the run must equal the whole-run per-rank totals.

With --kprof, checks a kernel self-profiling report: schema
tit-kprof-v1 (or a tit-kprof-sweep-v1 envelope of them, as
KPROF_replay.json), no unknown top-level sections, engine/solver
counter sanity (pops never exceed pushes, ops completed on a non-empty
replay) and finite derived ratios. The wall section is optional — the
deterministic core that CI byte-diffs must not carry it. Where present,
its four phases (drain, solve, events, completions) must add up: their
sum may not exceed total_s, nor fall below KPROF_COVERAGE of it.

With --robustness, instead checks the DESIGN.md §5f counters: the
degraded metrics must carry degraded.ranks_stubbed /
degraded.actions_trimmed, a degraded.completeness value in [0, 1], and
at least one per-rank degradation note; the resume metrics must carry
checkpoint.writes >= 1 and checkpoint.resume == 1.

Exits 0 when all pass, 1 with a message otherwise.
"""

import json
import math
import sys

# The kernel profile's phases partition the engine loop's wall: the
# share of total_s they may leave unattributed is the call's exit and
# the clock reads themselves (docs/OBSERVABILITY.md).
KPROF_COVERAGE = 0.95


def fail(msg):
    print(f"check_telemetry: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_timeline(path):
    with open(path) as f:
        doc = json.load(f)
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: traceEvents missing or empty")
    xs = [e for e in events if e.get("ph") == "X"]
    if not xs:
        fail(f"{path}: no complete ('X') events")
    last_end = float("-inf")
    for e in xs:
        for key in ("name", "ts", "dur", "tid"):
            if key not in e:
                fail(f"{path}: X event missing {key}: {e}")
        if e["dur"] < 0:
            fail(f"{path}: negative duration: {e}")
        end = e["ts"] + e["dur"]
        # ts and dur are rounded to 3 decimals (nanoseconds); two
        # rounded ends can disagree by up to 2e-3 us without violating
        # the engine's completion-order contract.
        if end < last_end - 2e-3:
            fail(f"{path}: events not in completion order at {e}")
        last_end = max(last_end, end)
    other = doc.get("otherData", {})
    if "simulated_time_s" not in other:
        fail(f"{path}: otherData.simulated_time_s missing")
    print(f"check_telemetry: {path}: {len(xs)} events, "
          f"simulated {other['simulated_time_s']} s")
    return xs


def check_profile(path, expect_ops=None):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "titobs-profile-v1":
        fail(f"{path}: bad schema {doc.get('schema')!r}")
    ranks = doc.get("ranks")
    if not isinstance(ranks, list) or len(ranks) != doc.get("num_ranks"):
        fail(f"{path}: ranks/num_ranks mismatch")
    total_ops = 0
    for r in ranks:
        tag_time = sum(t["time"] for t in r["tags"])
        tag_count = sum(t["count"] for t in r["tags"])
        busy = r["compute_time"] + r["comm_time"]
        if abs(tag_time - busy) > 1e-9 * max(busy, 1.0):
            fail(f"{path}: rank {r['rank']}: tag times {tag_time} != busy {busy}")
        if tag_count != r["compute_ops"] + r["comm_ops"]:
            fail(f"{path}: rank {r['rank']}: tag counts != op counts")
        for t in r["tags"]:
            if sum(t["hist"]) != t["count"]:
                fail(f"{path}: rank {r['rank']} tag {t['tag']}: histogram "
                     f"mass {sum(t['hist'])} != count {t['count']}")
        total_ops += tag_count
    if total_ops != doc.get("total_ops"):
        fail(f"{path}: total_ops {doc.get('total_ops')} != sum {total_ops}")
    if expect_ops is not None and total_ops != expect_ops:
        fail(f"{path}: total_ops {total_ops} != timeline events {expect_ops}")
    print(f"check_telemetry: {path}: {len(ranks)} ranks, {total_ops} ops")


def check_metrics(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "titobs-metrics-v1":
        fail(f"{path}: bad schema {doc.get('schema')!r}")
    counters = doc.get("counters", {})
    values = doc.get("values", {})
    for key in ("replay.ops", "replay.actions"):
        if key not in counters:
            fail(f"{path}: counter {key} missing")
    if "replay.simulated_time" not in values:
        fail(f"{path}: value replay.simulated_time missing")
    if "wall_timers" in doc:
        fail(f"{path}: deterministic metrics must not embed wall timers")
    print(f"check_telemetry: {path}: {len(counters)} counters, "
          f"{len(values)} values")


def load_v1(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "titobs-metrics-v1":
        fail(f"{path}: bad schema {doc.get('schema')!r}")
    if "wall_timers" in doc:
        fail(f"{path}: deterministic metrics must not embed wall timers")
    return doc


def check_robustness(degraded_path, resume_path):
    doc = load_v1(degraded_path)
    counters, values = doc.get("counters", {}), doc.get("values", {})
    for key in ("degraded.ranks_stubbed", "degraded.actions_trimmed"):
        if key not in counters:
            fail(f"{degraded_path}: counter {key} missing")
    ratio = values.get("degraded.completeness")
    if ratio is None or not 0.0 <= ratio <= 1.0:
        fail(f"{degraded_path}: degraded.completeness {ratio!r} not in [0, 1]")
    notes = doc.get("notes", {})
    rank_notes = [k for k in notes if k.startswith("degraded.rank")]
    if counters["degraded.ranks_stubbed"] + counters["degraded.actions_trimmed"] > 0 \
            and not rank_notes:
        fail(f"{degraded_path}: degradation counted but no per-rank notes")
    print(f"check_telemetry: {degraded_path}: completeness {ratio}, "
          f"{counters['degraded.ranks_stubbed']} stubbed, "
          f"{counters['degraded.actions_trimmed']} trimmed, "
          f"{len(rank_notes)} rank note(s)")

    doc = load_v1(resume_path)
    counters = doc.get("counters", {})
    if counters.get("checkpoint.resume") != 1:
        fail(f"{resume_path}: checkpoint.resume != 1")
    if "checkpoint.writes" not in counters:
        fail(f"{resume_path}: counter checkpoint.writes missing")
    print(f"check_telemetry: {resume_path}: resumed, "
          f"{counters['checkpoint.writes']} checkpoint write(s)")


def check_serve(path):
    doc = load_v1(path)
    counters, values = doc.get("counters", {}), doc.get("values", {})
    requests = counters.get("serve.requests", 0)
    if requests < 1:
        fail(f"{path}: serve.requests {requests} < 1")
    admitted = counters.get("serve.admitted", 0)
    terminal = sum(counters.get(k, 0) for k in (
        "serve.ok",
        "serve.partial_deadline",
        "serve.partial_damaged",
        "serve.errors",
    ))
    if terminal != admitted:
        fail(f"{path}: terminal outcomes {terminal} != serve.admitted {admitted}")
    depth = values.get("serve.queue_depth")
    if depth != 0:
        fail(f"{path}: serve.queue_depth {depth!r} != 0 after drain")
    extras = ", ".join(
        f"{k.split('.', 1)[1]} {counters[k]}"
        for k in ("serve.shed", "serve.preemptions", "serve.bad_requests",
                  "serve.oversized", "serve.cache_hits")
        if k in counters
    )
    print(f"check_telemetry: {path}: {requests} request(s), "
          f"{admitted} admitted, all resolved"
          + (f" ({extras})" if extras else ""))


def no_unknown_sections(doc, path, known):
    """A new top-level section must be added to this validator in the
    same change that starts emitting it — an unknown key fails loudly
    instead of being silently unvalidated."""
    unknown = sorted(set(doc) - set(known))
    if unknown:
        fail(f"{path}: unknown top-level section(s) {unknown} "
             "(new emitter field? teach this validator about it)")


TIMERES_KEYS = ("schema", "num_ranks", "window_width", "phase_boundaries",
                "simulated_time", "total_ops", "num_windows", "windows",
                "ranks")

WINDOW_KEYS = ("index", "start", "end", "kind", "ops", "compute_time",
               "comm_time", "compute_ops", "comm_ops", "flops", "bytes",
               "comm_ratio", "imbalance", "active_peak")

RANK_KEYS = ("rank", "compute_time", "comm_time", "compute_ops",
             "comm_ops", "flops", "bytes")


def check_timeres(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "tit-timeres-v1":
        fail(f"{path}: bad schema {doc.get('schema')!r}")
    no_unknown_sections(doc, path, TIMERES_KEYS)
    windows, ranks = doc.get("windows"), doc.get("ranks")
    if not isinstance(windows, list):
        fail(f"{path}: windows missing")
    if doc.get("num_windows") != len(windows):
        fail(f"{path}: num_windows {doc.get('num_windows')} != {len(windows)}")
    if not isinstance(ranks, list) or len(ranks) != doc.get("num_ranks"):
        fail(f"{path}: ranks/num_ranks mismatch")
    prev_start = float("-inf")
    sums = {k: 0 for k in ("compute_time", "comm_time", "compute_ops",
                           "comm_ops", "flops", "bytes")}
    for i, w in enumerate(windows):
        no_unknown_sections(w, f"{path} window {i}", WINDOW_KEYS)
        if w["index"] != i:
            fail(f"{path}: window {i} has index {w['index']}")
        if not w["start"] <= w["end"]:
            fail(f"{path}: window {i} start {w['start']} > end {w['end']}")
        if w["start"] < prev_start:
            fail(f"{path}: window {i} out of time order")
        prev_start = w["start"]
        if w["ops"] != w["compute_ops"] + w["comm_ops"]:
            fail(f"{path}: window {i} ops {w['ops']} != compute+comm")
        if w["kind"] not in ("fixed", "phase", "final"):
            fail(f"{path}: window {i} bad kind {w['kind']!r}")
        if not 0.0 <= w["comm_ratio"] <= 1.0 + 1e-12:
            fail(f"{path}: window {i} comm_ratio {w['comm_ratio']}")
        if w["imbalance"] < 0.0:
            fail(f"{path}: window {i} imbalance {w['imbalance']}")
        for k in sums:
            sums[k] += w[k]
    totals = {k: 0 for k in sums}
    for r in ranks:
        no_unknown_sections(r, f"{path} rank {r.get('rank')}", RANK_KEYS)
        for k in totals:
            totals[k] += r[k]
    for k in ("compute_ops", "comm_ops"):
        if sums[k] != totals[k]:
            fail(f"{path}: window {k} sum {sums[k]} != rank total {totals[k]}")
    for k in ("compute_time", "comm_time", "flops", "bytes"):
        if abs(sums[k] - totals[k]) > 1e-9 * max(abs(totals[k]), 1.0):
            fail(f"{path}: window {k} sum {sums[k]} != rank total {totals[k]}")
    print(f"check_telemetry: {path}: {len(windows)} window(s), "
          f"{doc['total_ops']} ops conserved across {len(ranks)} rank(s)")


KPROF_KEYS = ("schema", "num_ranks", "actions_replayed", "simulated_time",
              "engine", "solver", "derived", "wall")

KPROF_ENGINE = ("actor_steps", "ops_completed", "heap_pushes", "heap_pops",
                "heap_peak", "latency_events", "sleep_events",
                "completion_updates", "lazy_rekeys", "stale_pops",
                "completion_pops", "completions_peak", "activities_peak")

KPROF_SOLVER = ("solves", "partial_solves", "islands",
                "constraints_touched", "constraints_skipped", "vars_touched",
                "rate_changes")


def check_kprof_doc(doc, path):
    if doc.get("schema") != "tit-kprof-v1":
        fail(f"{path}: bad schema {doc.get('schema')!r}")
    no_unknown_sections(doc, path, KPROF_KEYS)
    engine = doc.get("engine")
    for section, keys in (("engine", KPROF_ENGINE), ("solver", KPROF_SOLVER)):
        d = doc.get(section)
        if not isinstance(d, dict):
            fail(f"{path}: {section} section missing")
        no_unknown_sections(d, f"{path} {section}", keys)
        for k in keys:
            v = d.get(k)
            if not (isinstance(v, int) and v >= 0):
                fail(f"{path}: {section}.{k} {v!r} not a counter")
    if engine["heap_pops"] > engine["heap_pushes"]:
        fail(f"{path}: heap pops {engine['heap_pops']} exceed pushes "
             f"{engine['heap_pushes']}")
    if engine["stale_pops"] > engine["lazy_rekeys"]:
        fail(f"{path}: stale pops {engine['stale_pops']} exceed lazy "
             f"re-keys {engine['lazy_rekeys']}")
    solver = doc.get("solver")
    if solver["partial_solves"] > solver["solves"]:
        fail(f"{path}: partial solves {solver['partial_solves']} exceed "
             f"solves {solver['solves']}")
    if doc.get("actions_replayed", 0) > 0 and engine["ops_completed"] == 0:
        fail(f"{path}: actions replayed but ops_completed == 0")
    derived = doc.get("derived")
    if not isinstance(derived, dict) or not derived:
        fail(f"{path}: derived section missing")
    for k, v in derived.items():
        if not (isinstance(v, (int, float)) and math.isfinite(v) and v >= 0):
            fail(f"{path}: derived.{k} {v!r} not finite and non-negative")
    wall = doc.get("wall")
    if wall is not None:
        parts = sum(wall.get(k, 0) for k in
                    ("drain_s", "solve_s", "events_s", "completions_s"))
        total = wall.get("total_s", 0)
        if parts > total * (1 + 1e-6) + 1e-9:
            fail(f"{path}: wall phases {parts} exceed total {total}")
        if parts < KPROF_COVERAGE * total:
            fail(f"{path}: wall phases {parts} cover {parts / total:.1%} of "
                 f"total {total}, below {KPROF_COVERAGE:.0%}")
    return "with walls" if wall is not None else "deterministic core"


def check_kprof(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") == "tit-kprof-sweep-v1":
        no_unknown_sections(doc, path, ("schema", "bench", "runs"))
        runs = doc.get("runs")
        if not isinstance(runs, list) or not runs:
            fail(f"{path}: sweep has no runs")
        for i, run in enumerate(runs):
            check_kprof_doc(run, f"{path} run {i}")
        print(f"check_telemetry: {path}: kprof sweep, {len(runs)} run(s)")
    else:
        kind = check_kprof_doc(doc, path)
        print(f"check_telemetry: {path}: kernel profile "
              f"({doc['num_ranks']} ranks, {kind})")


def main():
    if len(sys.argv) == 3 and sys.argv[1] == "--timeres":
        check_timeres(sys.argv[2])
        print("check_telemetry: OK")
        return
    if len(sys.argv) == 3 and sys.argv[1] == "--kprof":
        check_kprof(sys.argv[2])
        print("check_telemetry: OK")
        return
    if len(sys.argv) == 3 and sys.argv[1] == "--serve":
        check_serve(sys.argv[2])
        print("check_telemetry: OK")
        return
    if len(sys.argv) == 4 and sys.argv[1] == "--robustness":
        check_robustness(sys.argv[2], sys.argv[3])
        print("check_telemetry: OK")
        return
    if len(sys.argv) != 4:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    timeline, profile, metrics = sys.argv[1:4]
    xs = check_timeline(timeline)
    check_profile(profile, expect_ops=len(xs))
    check_metrics(metrics)
    print("check_telemetry: OK")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Validator for the telemetry artifacts the tools emit.

Checks that a `--trace=` file is a loadable Chrome trace-event
document (non-empty `traceEvents`, every event a known phase, complete
"X" events carrying a duration, any B/E pairs balanced per thread) and
that a `--metrics-json=` dump carries the counters and histogram
percentiles the dashboards key on. CI runs this against a
`slp --trace=trace.json --metrics-json=metrics.json` smoke run,
so a regression that silently empties the telemetry fails the build.

Usage: scripts/check_trace.py trace.json metrics.json
"""

import json
import sys

REQUIRED_COUNTERS = ["cache.hits", "cache.misses", "engine.queries"]
REQUIRED_HISTOGRAMS = ["engine.phase.parse_ns", "engine.phase.prove_ns"]
HISTOGRAM_KEYS = ["count", "sum", "max", "mean", "p50", "p90", "p99"]


def fail(msg: str) -> None:
    print(f"check_trace: {msg}", file=sys.stderr)
    sys.exit(1)


def check_trace(path: str) -> int:
    """Returns the event count of a well-formed trace."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        fail(f"{path}: top level must be an object")
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: traceEvents must be a non-empty array")

    open_begins = {}  # tid -> stack depth of unmatched B events
    for i, ev in enumerate(events):
        where = f"{path}: event {i}"
        if not isinstance(ev, dict):
            fail(f"{where}: not an object")
        ph = ev.get("ph")
        if ph not in ("B", "E", "X", "M", "i", "C"):
            fail(f"{where}: unknown phase {ph!r}")
        if ph in ("B", "E", "X"):
            for key in ("name", "pid", "tid", "ts"):
                if key not in ev:
                    fail(f"{where}: missing {key!r}")
            if not isinstance(ev["ts"], (int, float)) or ev["ts"] < 0:
                fail(f"{where}: ts must be a non-negative number")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                fail(f"{where}: X event needs a non-negative dur")
        elif ph == "B":
            open_begins[ev["tid"]] = open_begins.get(ev["tid"], 0) + 1
        elif ph == "E":
            depth = open_begins.get(ev["tid"], 0)
            if depth == 0:
                fail(f"{where}: E without matching B on tid {ev['tid']}")
            open_begins[ev["tid"]] = depth - 1
    unbalanced = {tid: d for tid, d in open_begins.items() if d}
    if unbalanced:
        fail(f"{path}: unbalanced B events per tid: {unbalanced}")
    return len(events)


def check_metrics(path: str) -> None:
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    counters = doc.get("counters")
    if not isinstance(counters, dict):
        fail(f"{path}: missing counters object")
    for name in REQUIRED_COUNTERS:
        if name not in counters:
            fail(f"{path}: missing counter {name!r}")
        if not isinstance(counters[name], int) or counters[name] < 0:
            fail(f"{path}: counter {name!r} must be a non-negative integer")

    histograms = doc.get("histograms")
    if not isinstance(histograms, dict):
        fail(f"{path}: missing histograms object")
    for name in REQUIRED_HISTOGRAMS:
        hist = histograms.get(name)
        if not isinstance(hist, dict):
            fail(f"{path}: missing histogram {name!r}")
        for key in HISTOGRAM_KEYS:
            if not isinstance(hist.get(key), (int, float)):
                fail(f"{path}: histogram {name!r} missing {key!r}")
        if hist["count"] <= 0:
            fail(f"{path}: histogram {name!r} recorded no samples")
        if hist["p50"] > hist["p99"]:
            fail(f"{path}: histogram {name!r} has p50 > p99")

    # A batch run races at least one backend; its tally counters must
    # have made it into the registry.
    if not any(n.startswith("backend.") and n.endswith(".races")
               for n in counters):
        fail(f"{path}: no backend.<name>.races counters")


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    trace_path, metrics_path = argv[1], argv[2]
    events = check_trace(trace_path)
    check_metrics(metrics_path)
    print(f"check_trace: OK ({trace_path}: {events} events, "
          f"{metrics_path}: valid)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

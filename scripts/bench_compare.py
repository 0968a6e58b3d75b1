#!/usr/bin/env python3
"""Compares perfbench results against a committed baseline.

Usage, from the repository root:

  scripts/bench_compare.py BASE NEW

BASE and NEW are each either a trajectory file (BENCH_<workload>.json:
{"workload", "command", "runs": [{"commit", "machine", "seed",
"result"}, ...]}) or the stdout of `perfbench/run.py`, whose last
non-empty line is the result object {"correct", "attempted", "failed",
"metrics"}. A trajectory contributes the runs of the last commit it
lists, so appending a commit's runs moves the baseline forward.

For each end-to-end metric of BENCHMARK.json the script prints the
median of BASE, the median of NEW, the change in the metric's "worse"
direction, and the metric's bound, and flags the changes that exceed
their bound. The comparison only reports: the exit status is 1 only
when an input is malformed or a compared result says "correct": false.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Malformed(Exception):
    pass


def check_result(obj, where):
    if not isinstance(obj, dict) or not isinstance(obj.get("metrics"), dict):
        raise Malformed(f"{where}: not a perfbench result object")
    if "correct" not in obj:
        raise Malformed(f"{where}: result has no 'correct' field")
    return obj


def load_results(path):
    """Returns the list of result objects that path stands for."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise Malformed(f"{path}: {e.strerror}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        lines = [l for l in text.splitlines() if l.strip()]
        if not lines:
            raise Malformed(f"{path}: empty")
        try:
            doc = json.loads(lines[-1])
        except json.JSONDecodeError:
            raise Malformed(f"{path}: last line is not JSON")
    if isinstance(doc, dict) and "runs" in doc:
        runs = doc["runs"]
        if (not isinstance(runs, list) or not runs
                or not all(isinstance(r, dict) for r in runs)):
            raise Malformed(f"{path}: 'runs' is not a non-empty list of objects")
        for r in runs:
            check_result(r.get("result"), f"{path} ({r.get('commit')})")
        last = runs[-1].get("commit")
        return [r["result"] for r in runs if r.get("commit") == last]
    return [check_result(doc, path)]


def median_of(results, name):
    values = []
    for r in results:
        m = r["metrics"].get(name)
        if m is not None:
            if not isinstance(m, dict) or not isinstance(
                    m.get("value"), (int, float)):
                raise Malformed(f"metric {name} has no numeric value")
            values.append(m["value"])
    return statistics.median(values) if values else None


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: scripts/bench_compare.py BASE NEW", file=sys.stderr)
        return 1
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            metrics = json.load(f)["end_to_end"]
        base = load_results(argv[1])
        new = load_results(argv[2])
        rows = []
        for m in metrics:
            b = median_of(base, m["name"])
            n = median_of(new, m["name"])
            rows.append((m, b, n))
    except (Malformed, KeyError, ValueError) as e:
        print(f"bench_compare: malformed input: {e}", file=sys.stderr)
        return 1

    print(f"base: {argv[1]} ({len(base)} run(s)); "
          f"new: {argv[2]} ({len(new)} run(s))")
    print(f"{'metric':<14} {'base':>12} {'new':>12} {'worse by':>9} "
          f"{'bound':>6}")
    out_of_bound = 0
    for m, b, n in rows:
        if b is None or n is None:
            print(f"{m['name']:<14} {'-' if b is None else f'{b:.4g}':>12} "
                  f"{'-' if n is None else f'{n:.4g}':>12}  missing")
            continue
        # Positive = worse, relative to the base median.
        sign = -1.0 if m["better"] == "higher" else 1.0
        worse = sign * (n - b) / b + 0.0 if b else 0.0
        flag = ""
        if worse > m["bound"]:
            flag = "  OUT OF BOUND"
            out_of_bound += 1
        print(f"{m['name']:<14} {b:>12.4g} {n:>12.4g} {worse:>+9.1%} "
              f"{m['bound']:>6.0%}{flag}")
    print(f"{out_of_bound} metric(s) out of bound (report only)")

    incorrect = [r for r in base + new if r["correct"] is not True]
    if incorrect:
        print(f"bench_compare: {len(incorrect)} result(s) report "
              "correct: false", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

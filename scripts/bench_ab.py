#!/usr/bin/env python3
"""Compares two revisions on one perfbench workload in alternated pairs.

Usage, from the repository root:

  scripts/bench_ab.py BASE CHANGE --workload W --seed S [--pairs 10]
                      [--seconds 36]
                      [--append BENCH_W.json --machine TEXT
                       --base-note TEXT --change-note TEXT]

BASE and CHANGE are git revisions. Each is exported with `git archive`
into .bench_ab/<role>-<sha> at the repository root, with
CARGO_TARGET_DIR set to .bench_ab/<role>-<sha>-target. One short
warm-up run per revision builds its perfbench there, so the timed runs
find the build up to date. Then --pairs pairs of runs alternate (10 by
default; five do not resolve refute-d1, whose medians moved by -8.5%
and +2.6% between the same two commits in one session): odd pairs run
BASE first, even pairs CHANGE first, each `python3 perfbench/run.py
--workload W --seed S --seconds T --trace 0` in its own export. A
revision compared with itself (an A/A run) is exported and built
twice, so the two sides share nothing.

For every end-to-end metric of BENCHMARK.json the script prints the
median and quartiles of each side, the change of the medians, the pairs
CHANGE won, and whether the median gap in the better direction exceeds
BASE's interquartile range. --append adds the pairs to a trajectory
file (BASE's runs, then CHANGE's), in the format
scripts/bench_compare.py reads. The exit status is 1 when a build or
run fails or a run reports "correct": false.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRATCH = os.path.join(ROOT, ".bench_ab")


def log(msg):
    print(f"bench_ab: {msg}", file=sys.stderr, flush=True)


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def export(rev, role):
    """Exports rev under SCRATCH once; returns (sha, checkout, target dir)."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    checkout = os.path.join(SCRATCH, f"{role}-{sha[:12]}")
    if not os.path.isdir(checkout):
        tmp = checkout + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT,
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", tmp], stdin=archive.stdout,
                       check=True)
        if archive.wait() != 0:
            raise RuntimeError(f"git archive {rev} failed")
        os.rename(tmp, checkout)
    return sha, checkout, checkout + "-target"


def run_once(checkout, target, args, seconds):
    """One perfbench run; returns its result object. Its log is shown
    only when it gives no result."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, text=True, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE)
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = "\n".join(p.stderr.splitlines()[-20:])
        raise RuntimeError(f"run in {checkout} gave no result "
                           f"(exit {p.returncode}):\n{tail}")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summarize(pairs, metrics):
    """Prints the per-metric comparison of the recorded pairs."""
    print(f"{len(pairs)} pair(s); medians with [Q1-Q3]")
    print(f"{'metric':<14} {'base':>26} {'change':>26} {'change':>8} "
          f"{'won':>6}  gap > base IQR")
    for m in metrics:
        name = m["name"]
        rows = [(p["base"]["metrics"].get(name, {}).get("value"),
                 p["change"]["metrics"].get(name, {}).get("value"))
                for p in pairs]
        rows = [(b, c) for b, c in rows if b is not None and c is not None]
        if not rows:
            print(f"{name:<14} missing")
            continue
        base = [b for b, _ in rows]
        change = [c for _, c in rows]
        higher = m["better"] == "higher"
        won = sum((c > b) if higher else (c < b) for b, c in rows)
        bm, cm = statistics.median(base), statistics.median(change)
        bq, cq = quartiles(base), quartiles(change)
        gain = (cm - bm) if higher else (bm - cm)
        rel = (cm - bm) / bm if bm else 0.0
        beats = "yes" if gain > bq[1] - bq[0] else "no"
        print(f"{name:<14} {bm:>10.4g} [{bq[0]:.4g}-{bq[1]:.4g}]"
              f"{'':>1} {cm:>10.4g} [{cq[0]:.4g}-{cq[1]:.4g}] {rel:>+8.1%} "
              f"{won:>3}/{len(rows):<2}  {beats}")


def append(path, pairs, args, shas):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    for role, sha, note in (("base", shas[0], args.base_note),
                            ("change", shas[1], args.change_note)):
        for p in pairs:
            doc["runs"].append({"commit": sha[:7], "change": note,
                                "machine": args.machine, "seed": args.seed,
                                "pair": p["pair"], "result": p[role]})
    # One run per line, as the committed trajectories are laid out.
    with open(path, "w", encoding="utf-8") as f:
        f.write("{\n")
        for key in ("workload", "command", "note"):
            f.write(f" {json.dumps(key)}: {json.dumps(doc[key])},\n")
        f.write(' "runs": [\n')
        f.write(",\n".join("  " + json.dumps(r) for r in doc["runs"]))
        f.write("\n]\n}\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--append", help="trajectory file to add the runs to")
    ap.add_argument("--machine", default="")
    ap.add_argument("--base-note", default="parent")
    ap.add_argument("--change-note", default="change")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        metrics = json.load(f)["end_to_end"]
    os.makedirs(SCRATCH, exist_ok=True)
    try:
        sides = [export(args.base, "base"), export(args.change, "change")]
        for _, checkout, target in sides:
            log(f"building {checkout}")
            run_once(checkout, target, args, 1)  # Warm-up: builds perfbench.
        pairs = []
        for n in range(1, args.pairs + 1):
            order = (0, 1) if n % 2 else (1, 0)
            got = {}
            for i in order:
                _, checkout, target = sides[i]
                got[i] = run_once(checkout, target, args, args.seconds)
            pairs.append({"pair": n, "base": got[0], "change": got[1]})
            log(f"pair {n}/{args.pairs} done")
    except (RuntimeError, subprocess.CalledProcessError) as e:
        log(str(e))
        return 1

    summarize(pairs, metrics)
    if args.append:
        append(args.append, pairs, args, (sides[0][0], sides[1][0]))
    bad = [p for p in pairs for r in (p["base"], p["change"])
           if r.get("correct") is not True]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

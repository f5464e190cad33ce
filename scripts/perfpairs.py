#!/usr/bin/env python3
"""Compare the working tree against a parent revision on one perfbench workload.

Usage, from the repository root:

    python3 scripts/perfpairs.py --parent HEAD~1 --workload cc-rmat --pairs 10

or `make perfbench-pairs PARENT=HEAD~1 WORKLOAD=cc-rmat PAIRS=10`.

The parent revision is extracted with `git archive` into a temporary
directory; the change is the working tree, uncommitted edits included. Each
pair runs `python3 perfbench/run.py --workload W --seed S --seconds 30
--trace 0` once on each side, with seeds S = 11, 12, ...; odd seeds run the
change first, even seeds the parent, so drift on a shared host lands on
both sides. The run length and seeds are fixed so that every table compares
runs of the length the benchmark itself uses. The end-to-end metrics, their
directions and their bounds come from BENCHMARK.json. The result is a
markdown table in EXPERIMENTS.md's format: median [first quartile, third
quartile] per side, the change of the medians, the number of pairs the
change won, and a verdict.

A metric is REGRESSED when the change's median is worse than the parent's
by more than max(bound * parent median, parent IQR): the metric's bound,
unless the parent's own spread is wider. The exit status is 1 on any
regression, on any incorrect or failed run, and when a metric is missing
from a run on either side; otherwise 0.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = 30  # measured seconds per run, as in the benchmark
SEED0 = 11  # seed of the first pair


def extract(rev, dest):
    """Write the tree of rev into dest with git archive."""
    with tempfile.TemporaryFile() as tar:
        subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                       stdout=tar, check=True)
        tar.seek(0)
        with tarfile.open(fileobj=tar) as tf:
            tf.extractall(dest, filter="data")


def run_once(root, workload, seed):
    """Run one perfbench measurement in root and return its JSON result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("perfpairs: %s failed in %s (exit %d)" % (" ".join(cmd), root, proc.returncode))
    return json.loads(lines[-1])


def quartiles(xs):
    """Median and first and third quartiles (linear interpolation)."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q2, q1, q3


def fmt(x):
    """Three significant figures; thousands separators from 1000 up."""
    if abs(x) >= 1000:
        return "{:,}".format(round(x))
    return "{:.3g}".format(x)


def values(name, runs, side):
    """The values of one metric over runs; a run without it is an error."""
    missing = sum(1 for r in runs if name not in r["metrics"])
    if missing or not runs:
        raise ValueError("metric %s missing from %d of %d %s runs" % (
            name, missing, len(runs), side))
    return [r["metrics"][name]["value"] for r in runs]


def compare(metric, before, after):
    """Compare one BENCHMARK.json end-to-end metric over the two sides' runs.

    Returns a dict of the medians, quartiles, wins and verdict. "worse_by" is
    how far the change's median is on the wrong side of the parent's, in the
    metric's unit (negative when the change is better).
    """
    name = metric["name"]
    b = values(name, before, "parent")
    a = values(name, after, "change")
    if len(a) != len(b):
        raise ValueError("metric %s: %d parent runs but %d change runs" % (name, len(b), len(a)))
    lower = metric["better"] == "lower"
    bm, b1, b3 = quartiles(b)
    am, a1, a3 = quartiles(a)
    worse_by = am - bm if lower else bm - am
    return {
        "name": name,
        "before": (bm, b1, b3),
        "after": (am, a1, a3),
        "change": (am - bm) / bm * 100 if bm else 0.0,
        "wins": sum(1 for x, y in zip(b, a) if (y < x if lower else y > x)),
        "pairs": len(a),
        "worse_by": worse_by,
        "regressed": worse_by > max(metric["bound"] * bm, b3 - b1),
    }


def table(workload, rows):
    """The markdown table of one workload's compare() rows."""
    out = ["| workload | metric | before | after | change | wins | verdict |",
           "|---|---|---|---|---|---|---|"]
    for r in rows:
        bm, b1, b3 = r["before"]
        am, a1, a3 = r["after"]
        sign = "+" if r["change"] >= 0 else "−"
        out.append("| %s | `%s` | %s [%s, %s] | %s [%s, %s] | %s%.0f%% | %d/%d | %s |" % (
            workload, r["name"], fmt(bm), fmt(b1), fmt(b3), fmt(am), fmt(a1), fmt(a3),
            sign, abs(r["change"]), r["wins"], r["pairs"],
            "REGRESSED" if r["regressed"] else "ok"))
    return "\n".join(out)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--workload", required=True, help="perfbench workload name")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    tmp = tempfile.mkdtemp(prefix="perfpairs-")
    try:
        extract(args.parent, tmp)
        before, after = [], []
        for i in range(args.pairs):
            seed = SEED0 + i
            sides = [("change", ROOT, after), ("parent", tmp, before)]
            if seed % 2 == 0:
                sides.reverse()
            for label, root, out in sides:
                res = run_once(root, args.workload, seed)
                out.append(res)
                p50 = res["metrics"].get("op_p50_ms", {}).get("value")
                print("# pair %d seed %d %s: correct=%s failed=%d op_p50_ms=%s" % (
                    i + 1, seed, label, res["correct"], res["failed"], p50),
                    file=sys.stderr, flush=True)
        bad = [r for r in before + after if not r["correct"] or r["failed"]]
        try:
            rows = [compare(m, before, after) for m in metrics]
        except ValueError as e:
            print("perfpairs: %s" % e, file=sys.stderr)
            return 1
        print(table(args.workload, rows))
        status = 0
        if bad:
            print("perfpairs: %d runs were incorrect or had failures" % len(bad), file=sys.stderr)
            status = 1
        regressed = [r["name"] for r in rows if r["regressed"]]
        if regressed:
            print("perfpairs: REGRESSED: %s" % ", ".join(regressed), file=sys.stderr)
            status = 1
        return status
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

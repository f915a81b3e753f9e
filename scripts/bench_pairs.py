#!/usr/bin/env python3
"""Compare two checkouts of the repository on the benchmark, in paired runs.

Usage: python scripts/bench_pairs.py PARENT CHANGE [--pairs N]

For every workload that CHANGE's BENCHMARK.json declares, N pairs of runs of
``perfbench/run.py --trace 0`` at seed SEED and the declared
``run_seconds``, one run in each checkout, the side that runs first
alternating from pair to pair.  For each end-to-end metric it prints the
median of each side, the interquartile range of the parent's runs, the
change's wins out of N (pairs in which the change reads strictly better; a
tie counts for neither side), and whether the change's median is worse than
the parent's by no more than the metric's declared bound.  That verdict
reads ``unresolved`` where the parent's runs spread wider than the bound
(interquartile range above bound times the parent's median) and not every
change run beats every parent run: the medians of such runs cannot tell a
move of the bound's size.  A line per workload gives the failed and
attempted operations of each side and the median number of rounds its runs
took, read from each run's ``report`` line: a run of a faster program takes
more rounds in its fixed time, and its ``peak_rss_mb`` grows with them.
Nothing is written.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

SEED = 13
SIDES = ("parent", "change")


def run(checkout: Path, workload: str, seconds: float) -> dict:
    """The result line of one end-to-end run of the workload in the checkout,
    with the ``rounds`` of its report line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", "0"]
    res = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    lines = res.stdout.strip().splitlines()
    report = next(json.loads(line[len("report "):]) for line in lines
                  if line.startswith("report "))
    return {**json.loads(lines[-1]), "rounds": report["rounds"]}


def summarize(parent, change, better: str, bound: float) -> dict:
    """Paired samples of one metric, pair i being (parent[i], change[i]): the
    median of each side, the interquartile range of the parent's samples,
    the change's strict wins, ``within_bound``, whether the change's
    median is worse than the parent's by at most ``bound`` times the
    parent's median, and ``unresolved``, whether the parent's
    interquartile range exceeds ``bound`` times its median while some
    change sample fails to beat some parent sample."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    if len(parent) != len(change) or not parent:
        raise ValueError(f"{len(parent)} parent and {len(change)} change samples do not pair")
    sign = 1.0 if better == "lower" else -1.0
    p_med, c_med = float(np.median(parent)), float(np.median(change))
    q1, q3 = np.percentile(parent, [25, 75])
    beats_all = all(sign * (c - p) < 0 for p in parent for c in change)
    return {"parent_median": p_med, "change_median": c_med, "parent_iqr": float(q3 - q1),
            "wins": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
            "pairs": len(parent),
            "within_bound": sign * (c_med - p_med) <= bound * abs(p_med),
            "unresolved": bool(q3 - q1 > bound * abs(p_med)) and not beats_all}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--pairs", type=int, default=5)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error(f"--pairs must be at least 1, not {args.pairs}")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    declared = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())

    print(f"{'workload':<16}{'metric':<14}{'parent':>12}{'change':>12}{'parent IQR':>12}"
          f"{'wins':>7}  within bound")
    for workload in (entry["name"] for entry in declared["workloads"]):
        results = {side: [] for side in SIDES}
        for i in range(args.pairs):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                results[side].append(run(checkouts[side], workload, declared["run_seconds"]))
        counts = "; ".join(
            f"{side} {sum(r['failed'] for r in rs)}/{sum(r['attempted'] for r in rs)} failed"
            + ("" if all(r["correct"] for r in rs) else " (checks failed)")
            + f", median {np.median([r['rounds'] for r in rs]):g} rounds"
            for side, rs in results.items())
        print(f"{workload}: {counts}")
        for metric in declared["end_to_end"]:
            name = metric["name"]
            s = summarize(*([r["metrics"][name]["value"] for r in results[side]]
                            for side in SIDES), metric["better"], metric["bound"])
            verdict = ("unresolved" if s["unresolved"] else
                       "yes" if s["within_bound"] else "NO")
            print(f"{workload:<16}{name:<14}{s['parent_median']:>12.6g}"
                  f"{s['change_median']:>12.6g}{s['parent_iqr']:>12.3g}"
                  f"{s['wins']:>4}/{s['pairs']:<2}  {verdict} "
                  f"({metric['bound']:.0%}, {metric['better']} is better)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

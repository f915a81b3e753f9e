#!/usr/bin/env python3
"""Write a perf record, BENCH_<tag>.json, for one checkout of the repository.

Usage: python scripts/bench_record.py TAG [--checkout DIR] [--out PATH]

For every workload that the checkout's BENCHMARK.json declares, the record
holds the result and report lines of ``perfbench/run.py`` with ``--trace 0``
(end-to-end metrics) and ``--trace 1`` (per-layer counts and timings), all at
seed SEED for the ``run_seconds`` that BENCHMARK.json declares.  It adds the
Tier-1 test summary with its wall time, the environment that perfbench
reports, the caller's OpenBLAS thread variables (``"unset"`` where
absent), and ``src_lines``, the line count of ``src/invop/*.py`` that
``wc -l`` gives.  ``--checkout`` points at another copy of the repository (for
example an export of the parent commit), so that both sides of a change are
recorded by the same script; the record is written to ``--out``, by default
``BENCH_<tag>.json`` in this repository's root.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 13
#: the variables OpenBLAS reads for its thread count, recorded as the caller set them
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _perfbench(checkout: Path, workload: str, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    lines = res.stdout.strip().splitlines()
    report = next(ln for ln in lines if ln.startswith("report "))
    return {"result": json.loads(lines[-1]), "report": json.loads(report[len("report "):])}


def _tier1(checkout: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "-p", "no:cacheprovider"]
    start = time.perf_counter()
    res = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    summary = res.stdout.strip().splitlines()[-1] if res.stdout.strip() else ""
    return {"command": " ".join(cmd[1:]), "exit_code": res.returncode,
            "summary": summary, "wall_s": wall}


def _src_lines(checkout: Path) -> int:
    return sum(p.read_bytes().count(b"\n") for p in (checkout / "src" / "invop").glob("*.py"))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("tag")
    p.add_argument("--checkout", type=Path, default=ROOT)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    checkout = args.checkout.resolve()
    declared = json.loads((checkout / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]

    workloads = {}
    for w in (entry["name"] for entry in declared["workloads"]):
        workloads[w] = {
            "end_to_end": _perfbench(checkout, w, seconds, 0),
            "per_layer": _perfbench(checkout, w, seconds, 1),
        }
        print(f"{w}: {workloads[w]['end_to_end']['result']['metrics']}", flush=True)
    first = next(iter(workloads.values()))
    record = {
        "tag": args.tag,
        "seed": SEED,
        "seconds": seconds,
        "environment": {**first["end_to_end"]["report"]["environment"],
                        "machine": platform.machine(), "system": platform.system(),
                        **{v: os.environ.get(v, "unset") for v in THREAD_VARS}},
        "workloads": workloads,
        "tier1": _tier1(checkout),
        "src_lines": _src_lines(checkout),
    }
    out = args.out or ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"tier1: {record['tier1']['summary']} ({record['tier1']['wall_s']:.1f} s)")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

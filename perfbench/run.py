"""Benchmark of the invop library: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload c_neural_study --seed 7 --seconds 30 --trace 0

``--trace 0`` repeats the workload's round (see ``workloads.py``) until
``--seconds`` is used up, then prints the end-to-end metrics.  ``--trace 1``
runs one untraced and one traced round and prints the per-layer metrics;
the spans go to ``.bench_out/``.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it are a readable report.  The exit code is 0 when the
benchmark ran, whatever the checks found, and non-zero when it could not
run (for example when ``src/invop`` is missing).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

#: fresh interpreters timed for the import share of setup_s
IMPORT_SAMPLES = 3

E2E_METRICS = ("setup_s", "iterations", "peak_rss_mb")


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _load_invop():
    """Import invop from this checkout's src/ and nowhere else."""
    if not (SRC / "invop" / "__init__.py").is_file():
        raise ImportError(f"no invop package under {SRC}")
    sys.path.insert(0, str(SRC))
    invop = importlib.import_module("invop")
    importlib.import_module("invop.cli")
    if Path(invop.__file__).resolve().parent != (SRC / "invop").resolve():
        raise ImportError(f"invop imported from {invop.__file__}, not {SRC}")
    return invop


def import_seconds() -> list:
    """Wall time of ``import invop`` in fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import invop; "
            "print(repr(time.perf_counter() - t))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(IMPORT_SAMPLES):
        res = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        out.append(float(res.stdout.strip().splitlines()[-1]))
    return out


def tail(values):
    """(label, value) of the highest percentile with at least ten samples above it."""
    v = sorted(values)
    if len(v) <= 10:
        return "max", v[-1]
    k = len(v) - 11  # ten samples lie above v[k]
    return f"p{100.0 * (k + 1) / len(v):.0f}", v[k]


def _blas_threads():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var):
            return f"{os.environ[var]} (from {var})"
    return f"{os.cpu_count()} (OpenBLAS default: one per core)"


def environment(invop) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    commit = "unknown"
    # the ceiling keeps git from searching above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, env=env)
        if res.returncode == 0:
            commit = res.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "invop": invop.__version__,
        "commit": commit,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _check_same(invop, first, rnd, label):
    """Rounds with the same seed must agree bit for bit, runtime_ms aside."""
    if rnd.stable_rows(invop) != first.stable_rows(invop):
        rnd.problems.append(f"{label}: rows differ from the first round")
    if rnd.digest != first.digest:
        rnd.problems.append(f"{label}: written files differ from the first round")


def run_untraced(invop, args, workdir):
    setup_import = import_seconds()
    budget_start = time.perf_counter()
    rounds = []
    while True:
        rnd = workloads.timed_round(invop, args.workload, args.seed, workdir)
        if rounds:
            _check_same(invop, rounds[0], rnd, f"round {len(rounds) + 1}")
        rounds.append(rnd)
        elapsed = time.perf_counter() - budget_start
        if elapsed + statistics.median(r.wall_s for r in rounds) > args.seconds:
            break

    walls = [r.wall_s for r in rounds]
    solves = [r.solve_s(invop) for r in rounds]
    import_s = statistics.median(setup_import)
    timings = {
        "wall_s": walls,
        "setup_s": [import_s + w - s for w, s in zip(walls, solves)],
        "solve_s": solves,
    }
    metrics = {
        "setup_s": statistics.median(timings["setup_s"]),
        "iterations": rounds[0].iterations(invop),
        "peak_rss_mb": peak_rss_mb(),
    }
    report = {
        "rounds": len(rounds),
        "import_s": setup_import,
        "timings": {name: {"unit": "s", "n": len(vals), "median": statistics.median(vals),
                           "tail": dict([tail(vals)])}
                    for name, vals in timings.items()},
    }
    return rounds, metrics, report


def run_traced(invop, args, workdir):
    untraced = workloads.timed_round(invop, args.workload, args.seed, workdir)
    tracer = tracing.Tracer()
    counts = {}
    with tracing.instrument(tracer, counts):
        traced = workloads.timed_round(invop, args.workload, args.seed, workdir)
    _check_same(invop, untraced, traced, "traced round")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
    metrics = layer_metrics(tracing.SpanStats(tracer), counts,
                            traced.iterations(invop), traced.wall_s, untraced.wall_s)
    metrics.update(quality_metrics(traced))
    return [untraced, traced], metrics, {"trace_file": str(
        (OUT / f"trace-{args.workload}-{args.seed}.jsonl").relative_to(ROOT))}


def quality_metrics(rnd: workloads.Round) -> dict:
    """Deterministic outputs of the traced round: slopes, error and CLI alphas."""
    return {
        "quality.slope_min": min(rnd.slopes, default=0.0),
        "quality.slope_pooled": rnd.notes.get("slope_pooled", 0.0),
        "quality.slopes_outside_gate": rnd.notes.get("slopes_outside_gate", 0),
        "quality.error_X_min_delta": rnd.error_min_delta,
        "cli.alpha_rank": rnd.notes.get("alpha_rank", 0.0),
        "cli.alpha_neural": rnd.notes.get("alpha_neural", 0.0),
    }


def layer_metrics(st: tracing.SpanStats, counts: dict, iterations: int,
                  wall_s: float, untraced_wall_s: float) -> dict:
    self_s = st.layer_self_s()
    vg = "tikhonov.tikhonov_value_and_gradient"
    solves = st.calls("tikhonov.solve_inverse_problem")
    grad_evals = st.calls(vg)
    trials = grad_evals - solves
    built = st.calls_under("grid.GridFunction", "tikhonov.minimize_tikhonov")
    saves = [n for n in st.by_name if n.startswith("serialize.save_")]
    loads = [n for n in st.by_name if n.startswith("serialize.load_")]
    m = {
        "fem.solve_calls": st.calls("fem.solve_forward_fem"),
        "fem.solve_ms_p50": st.p50_ms("fem.solve_forward_fem"),
        "fem.ref_solve_calls": st.calls("fem.solve_forward_reference"),
        "fem.ref_solve_ms_p50": st.p50_ms("fem.solve_forward_reference"),
        "fem.grad_calls": st.calls("fem.misfit_gradient_nodal"),
        "fem.grad_ms_p50": st.p50_ms("fem.misfit_gradient_nodal"),
        "neural.eval_calls": st.calls("neural.eval_structured"),
        "neural.eval_grad_calls": st.calls("neural.eval_structured_with_gradient"),
        "neural.eval_grad_ms_p50": st.p50_ms("neural.eval_structured_with_gradient"),
        "tikhonov.solves": solves,
        "tikhonov.grad_evals": grad_evals,
        "tikhonov.trials": trials,
        "tikhonov.accept_ratio": iterations / trials if trials else 0.0,
        "tikhonov.value_grad_ms_p50": st.p50_ms(vg),
        "tikhonov.map_s": st.outermost_s("tikhonov.SurrogateHandle.forward",
                                         "tikhonov.SurrogateHandle.misfit_and_gradient"),
        "grid.functions_built": st.calls("grid.GridFunction"),
        "grid.functions_per_grad_eval": built / grad_evals if grad_evals else 0.0,
        "grid.inner_calls": st.calls("grid.inner"),
        "grid.gram_solve_calls": st.calls("grid.gram_solve"),
        "mollify.calls": st.calls("mollify.mollify"),
        "mollify.matrix_calls": st.calls("mollify.mollify_matrix"),
        "training.generate_s": st.total_s("training.generate_training_set"),
        "training.gram_schmidt_s": st.total_s("training.gram_schmidt"),
        "training.assemble_s": st.total_s("training.assemble_neural_surrogate"),
        "training.nu_N_s": st.total_s("training.estimate_nu_N"),
        "studies.fem_rho_calls": st.calls("studies.calibrate_fem_rho"),
        "studies.fem_rho_s": st.outermost_s("studies.calibrate_fem_rho"),
        "serialize.save_s": st.total_s(*saves),
        "serialize.load_s": st.total_s(*loads),
        "serialize.bytes_written": counts.get("bytes_written", 0),
        "serialize.bytes_read": counts.get("bytes_read", 0),
        "cli.generate_s": st.total_s("cli.generate"),
        "cli.build_s": st.total_s("cli.build"),
        "cli.solve_s": st.total_s("cli.solve"),
        "cli.nonzero_exits": counts.get("nonzero_exits", 0),
    }
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
    m["trace.spans"] = len(st.t)
    m["trace.wall_s"] = wall_s
    m["trace.untraced_wall_s"] = untraced_wall_s
    m["trace.overhead_s"] = wall_s - untraced_wall_s
    m["trace.uncovered_s"] = wall_s - st.top_level_s()
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    try:
        declared = load_declared()
        t0 = time.perf_counter()
        invop = _load_invop()
        first_import = time.perf_counter() - t0
    except (ImportError, OSError, ValueError) as err:
        return _fail(f"cannot set up: {err}")

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.trace:
            rounds, metrics, report = run_traced(invop, args, workdir)
            kind = "per_layer"
        else:
            rounds, metrics, report = run_untraced(invop, args, workdir)
            kind = "end_to_end"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    problems = [msg for r in rounds for msg in r.errors + r.problems]
    report.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "first_import_s": first_import,
        "environment": environment(invop),
        "slopes": [s for r in rounds[:1] for s in r.slopes],
        "notes": rounds[0].notes,
        "problems": problems,
    })
    print("report " + json.dumps(report, sort_keys=True))
    units = {m["name"]: m["unit"] for m in declared[kind]}
    if set(units) != set(metrics):
        return _fail(f"computed metrics {sorted(metrics)} differ from the declared {kind}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }
    print(json.dumps(result))
    return 0


def load_declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


if __name__ == "__main__":
    sys.exit(main())

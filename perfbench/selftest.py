"""Self-test of the benchmark harness at tiny size.

    python3 perfbench/selftest.py

Checks the self-time arithmetic on hand-made spans, the tail-percentile
rule, that BENCHMARK.json declares every metric the harness computes, with
names made only of ``[A-Za-z0-9_.-]``, and that instrumenting invop records
spans through copied module globals and restores every original.  Exits
non-zero on failure.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class _Clock:
    """Returns the queued times in order, so spans get exact boundaries."""

    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def check_self_times():
    # root [0, 10] with children a [1, 4] and b [5, 9]; a has child c [2, 3]
    clock = _Clock([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    t = tracing.Tracer(clock=clock)
    root = t.open("studies.run_study")
    a = t.open("tikhonov.solve_inverse_problem")
    c = t.open("fem.solve_forward_fem")
    t.close(c)
    t.close(a)
    b = t.open("grid.inner")
    t.close(b)
    t.close(root)
    assert tracing.self_times(t) == [3.0, 2.0, 1.0, 4.0], tracing.self_times(t)
    # the solve span opens an operation that its child inherits
    assert t.op == [-1, a, a, -1] and t.parent == [-1, root, a, root]

    st = tracing.SpanStats(t)
    layers = st.layer_self_s()
    assert layers["studies"] == 3.0 and layers["tikhonov"] == 2.0
    assert layers["fem"] == 1.0 and layers["grid"] == 4.0
    # self times of all layers add up to the covered wall time
    assert sum(layers.values()) == st.top_level_s() == 10.0
    assert st.calls_under("fem.solve_forward_fem", "tikhonov.solve_inverse_problem") == 1
    assert st.calls_under("grid.inner", "tikhonov.solve_inverse_problem") == 0
    assert st.outermost_s("studies.run_study", "fem.solve_forward_fem") == 10.0

    # overlapping children (not produced by nested calls, but the union rule
    # must still count covered time once)
    t = tracing.Tracer()
    t.name, t.parent, t.op = ["x.p", "x.q", "x.r"], [-1, 0, 0], [-1, -1, -1]
    t.start, t.end = [0.0, 1.0, 4.0], [10.0, 6.0, 8.0]
    assert tracing.self_times(t) == [3.0, 5.0, 4.0]


def check_tail():
    assert run.tail([3.0, 1.0, 2.0]) == ("max", 3.0)
    label, value = run.tail([float(i) for i in range(1, 101)])
    assert (label, value) == ("p90", 90.0), (label, value)  # ten samples lie above 90


def check_declared_names():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for k in ("end_to_end", "per_layer") for m in spec[k]]
    names += [w["name"] for w in spec["workloads"]]
    bad = [n for n in names if not NAME.match(n)]
    assert not bad, f"bad metric names: {bad}"
    assert len(names) == len(set(names)), "duplicate names"
    assert {w["name"] for w in spec["workloads"]} == set(run.workloads.WORKLOADS)

    # every metric the harness computes is declared, and the reverse
    st = tracing.SpanStats(tracing.Tracer())
    computed = set(run.layer_metrics(st, {}, 0, 1.0, 1.0))
    computed |= set(run.quality_metrics(run.workloads.Round()))
    declared = {m["name"] for m in spec["per_layer"]}
    assert computed == declared, (sorted(computed - declared), sorted(declared - computed))
    e2e = {m["name"] for m in spec["end_to_end"]}
    assert e2e == set(run.E2E_METRICS), sorted(e2e ^ set(run.E2E_METRICS))
    assert "setup_s" in e2e


def check_c_seed_blocks():
    # rounds of different workload seeds share no c study and no noise draw
    blocks = [run.workloads.c_study_seeds(s) for s in range(50)]
    seeds = sorted(x for b in blocks for x in b)
    assert all(b - a >= run.workloads.C_SEED_STRIDE for a, b in zip(seeds, seeds[1:]))


def check_instrument():
    invop = run._load_invop()
    fem, grid = sys.modules["invop.fem"], sys.modules["invop.grid"]
    before = (fem.trapezoid_weights, grid.inner, invop.mollify, grid.GridFunction.__post_init__)
    t = tracing.Tracer()
    with tracing.instrument(t, {}):
        # fem holds its own copy of grid.trapezoid_weights
        assert fem.trapezoid_weights is not before[0]
        x = invop.GridFunction.constant(1.0, 4)
        assert invop.inner(x, x) == 1.0
    after = (fem.trapezoid_weights, grid.inner, invop.mollify, grid.GridFunction.__post_init__)
    assert all(a is b for a, b in zip(before, after)), "originals not restored"
    assert t.name == ["grid.GridFunction", "grid.inner", "grid.trapezoid_weights"], t.name
    assert t.parent == [-1, -1, 1]


def main() -> int:
    for check in (check_self_times, check_tail, check_declared_names, check_c_seed_blocks,
                  check_instrument):
        check()
        print(f"ok {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs",
                                                  ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summary_of_a_lower_is_better_metric(pairs):
    s = pairs.summarize([10.0, 11.0, 12.0, 13.0, 14.0], [9.0, 10.0, 11.0, 13.0, 15.0],
                        "lower", 0.25)
    assert s == {"parent_median": 12.0, "change_median": 11.0, "parent_iqr": 2.0,
                 "wins": 3, "pairs": 5, "within_bound": True, "unresolved": False}


def test_ties_count_for_neither_side(pairs):
    s = pairs.summarize([5.0] * 4, [5.0] * 4, "lower", 0.0)
    assert (s["wins"], s["parent_iqr"], s["within_bound"]) == (0, 0.0, True)


@pytest.mark.parametrize("better,change,within", [
    ("lower", 125.0, True), ("lower", 126.0, False), ("lower", 50.0, True),
    ("higher", 75.0, True), ("higher", 74.0, False), ("higher", 200.0, True)])
def test_the_bound_is_a_share_of_the_parents_median(pairs, better, change, within):
    # worse by exactly the bound is within it; better by any amount is too
    s = pairs.summarize([100.0] * 3, [change] * 3, better, 0.25)
    assert s["within_bound"] is within
    assert s["wins"] == (3 if (change < 100.0) == (better == "lower") else 0)


def test_samples_that_do_not_pair_are_rejected(pairs):
    for parent, change in (([1.0, 2.0], [1.0]), ([], [])):
        with pytest.raises(ValueError, match="do not pair"):
            pairs.summarize(parent, change, "lower", 0.1)
    with pytest.raises(ValueError, match="better"):
        pairs.summarize([1.0], [1.0], "smaller", 0.1)


def test_runs_alternate_which_side_goes_first(pairs, tmp_path, monkeypatch, capsys):
    # no benchmark runs here: each run returns a synthetic result line
    declared = {"run_seconds": 7, "workloads": [{"name": "w1"}, {"name": "w2"}],
                "end_to_end": [{"name": "iterations", "better": "lower", "bound": 0.25}]}
    sides = {side: tmp_path / side for side in ("old", "new")}
    for path in sides.values():
        path.mkdir()
        (path / "BENCHMARK.json").write_text(json.dumps(declared))
    calls = []

    def fake_run(checkout, workload, seconds):
        calls.append((checkout.name, workload, seconds))
        value = 100.0 if checkout.name == "old" else 90.0
        return {"correct": True, "attempted": 2, "failed": 0, "rounds": 4,
                "metrics": {"iterations": {"value": value, "unit": "count"}}}

    monkeypatch.setattr(pairs, "run", fake_run)
    assert pairs.main([str(sides["old"]), str(sides["new"]), "--pairs", "3"]) == 0
    order = [name for name, _, _ in calls]
    assert order == ["old", "new", "new", "old", "old", "new"] * 2
    assert {(w, s) for _, w, s in calls} == {("w1", 7), ("w2", 7)}
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "w1: parent 0/6 failed, median 4 rounds; change 0/6 failed, median 4 rounds"
    assert out[2].split() == ["w1", "iterations", "100", "90", "0", "3/3", "yes", "(25%,",
                              "lower", "is", "better)"]


def test_each_side_reports_the_median_rounds_of_its_runs(pairs, tmp_path, monkeypatch, capsys):
    # a stubbed perfbench run: the rounds come from its report line, the rest
    # from its result line, and each side prints the median over its runs
    declared = {"run_seconds": 3, "workloads": [{"name": "w"}],
                "end_to_end": [{"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]}
    sides = {side: tmp_path / side for side in ("old", "new")}
    for path in sides.values():
        path.mkdir()
        (path / "BENCHMARK.json").write_text(json.dumps(declared))
    rounds = {"old": iter([10, 30, 12]), "new": iter([25, 21, 40])}

    def fake_subprocess_run(cmd, cwd, **kwargs):
        n = next(rounds[Path(cwd).name])
        result = {"correct": True, "attempted": n, "failed": 0,
                  "metrics": {"peak_rss_mb": {"value": 40.0 + n / 10, "unit": "MB"}}}
        stdout = f"report {json.dumps({'rounds': n, 'workload': 'w'})}\n{json.dumps(result)}\n"
        return pairs.subprocess.CompletedProcess(cmd, 0, stdout, "")

    monkeypatch.setattr(pairs.subprocess, "run", fake_subprocess_run)
    assert pairs.main([str(sides["old"]), str(sides["new"]), "--pairs", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1] == ("w: parent 0/52 failed, median 12 rounds; "
                      "change 0/86 failed, median 25 rounds")
    assert out[2].split()[:4] == ["w", "peak_rss_mb", "41.2", "42.5"]


@pytest.mark.parametrize("better,parent,change,unresolved", [
    # the parent's IQR 20 exceeds 25% of its median 30
    ("lower", [10.0, 20.0, 30.0, 40.0, 50.0], [9.0, 9.0, 9.0, 9.0, 60.0], True),
    ("lower", [10.0, 20.0, 30.0, 40.0, 50.0], [9.0, 8.0, 9.5, 7.0, 9.9], False),
    ("lower", [10.0, 20.0, 30.0, 40.0, 50.0], [10.0, 8.0, 9.5, 7.0, 9.9], True),  # a tie
    ("higher", [10.0, 20.0, 30.0, 40.0, 50.0], [51.0, 52.0, 53.0, 54.0, 55.0], False),
    ("higher", [10.0, 20.0, 30.0, 40.0, 50.0], [51.0, 52.0, 53.0, 54.0, 45.0], True),
    # IQR 2 within 25% of the median 12: resolved, better or worse
    ("lower", [10.0, 11.0, 12.0, 13.0, 14.0], [20.0, 21.0, 22.0, 23.0, 24.0], False),
    # IQR 1 against a bound of exactly 25% of the median 4: resolved
    ("lower", [4.0, 4.0, 4.0, 5.0, 5.0], [4.5, 4.5, 4.5, 4.5, 4.5], False)])
def test_a_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins(
        pairs, better, parent, change, unresolved):
    assert pairs.summarize(parent, change, better, 0.25)["unresolved"] is unresolved


def test_an_unresolved_metric_prints_unresolved(pairs, tmp_path, monkeypatch, capsys):
    # stubbed runs: setup_s spreads wider than its bound and the sides
    # overlap, iterations do not spread
    declared = {"run_seconds": 3, "workloads": [{"name": "w"}],
                "end_to_end": [{"name": "setup_s", "better": "lower", "bound": 0.25},
                               {"name": "iterations", "better": "lower", "bound": 0.25}]}
    sides = {side: tmp_path / side for side in ("old", "new")}
    for path in sides.values():
        path.mkdir()
        (path / "BENCHMARK.json").write_text(json.dumps(declared))
    setup = {"old": iter([0.1, 0.3, 0.2, 0.05]), "new": iter([0.12, 0.11, 0.4, 0.1])}

    def fake_run(checkout, workload, seconds):
        return {"correct": True, "attempted": 1, "failed": 0, "rounds": 1,
                "metrics": {"setup_s": {"value": next(setup[checkout.name]), "unit": "s"},
                            "iterations": {"value": 5.0, "unit": "count"}}}

    monkeypatch.setattr(pairs, "run", fake_run)
    assert pairs.main([str(sides["old"]), str(sides["new"]), "--pairs", "4"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[2].split()[1] == "setup_s" and out[2].split()[6] == "unresolved"
    assert out[3].split()[1] == "iterations" and out[3].split()[6] == "yes"

"""The summary of scripts/bench_pairs.py on synthetic runs."""

import importlib.util
import os

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(HERE, os.pardir, "scripts", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "jobs_per_kref", "better": "higher"}, {"name": "peak_rss_mb", "better": "lower"}]


def runs_of(parent, change, metric="jobs_per_kref", workload="maps"):
    """Runs in the record's layout, pair i holding parent[i] and change[i]."""
    runs = []
    for pair, values in enumerate(zip(parent, change), start=1):
        for side, value in zip(("parent", "change"), values):
            runs.append({"pair": pair, "side": side, "workload": workload, "seed": 1,
                         "attempted": 10, "failed": 0,
                         "metrics": {"jobs_per_kref": 1.0, "peak_rss_mb": 1.0, metric: value}})
    return runs


PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]


def test_summary_spread_and_wins():
    change = [p + 10.0 for p in PARENT]
    change[3] = 90.0  # one lost pair
    s = bench_pairs.summarize(runs_of(PARENT, change), END_TO_END)["maps"]["jobs_per_kref"]
    assert s["pairs"] == 10 and s["wins"] == 9 and s["better"] == "higher"
    assert s["parent"] == {"median": 100.0, "q1": 99.25, "q3": 101.0}
    assert s["change"]["median"] == 110.0
    assert s["resolved_gain"]


@pytest.mark.parametrize("case", ["eight-wins", "gap-within-iqr", "no-change"])
def test_summary_refuses_unresolved_gains(case):
    change = [p + 10.0 for p in PARENT]
    if case == "eight-wins":
        change[3] = change[5] = 90.0
    elif case == "gap-within-iqr":
        change = [p + 0.5 for p in PARENT]  # wins every pair, median gap 0.5 < IQR 1.75
    else:
        change = list(PARENT)
    s = bench_pairs.summarize(runs_of(PARENT, change), END_TO_END)["maps"]["jobs_per_kref"]
    assert not s["resolved_gain"], s
    assert s["wins"] == {"eight-wins": 8, "gap-within-iqr": 10, "no-change": 0}[case]


def test_summary_lower_is_better_and_unpaired_runs():
    # peak_rss_mb is better lower; a pair with only one side is left out
    rss = [40.0 + 0.1 * i for i in range(10)]
    runs = runs_of(rss, [r - 2.0 for r in rss], metric="peak_rss_mb", workload="lattice-cli")
    runs.append({**runs[0], "pair": 11})
    s = bench_pairs.summarize(runs, END_TO_END)["lattice-cli"]
    assert s["peak_rss_mb"]["pairs"] == 10 and s["peak_rss_mb"]["wins"] == 10
    assert s["peak_rss_mb"]["resolved_gain"]
    assert s["jobs_per_kref"]["wins"] == 0 and not s["jobs_per_kref"]["resolved_gain"]


def test_both_sides_run_from_sibling_trees_of_equal_path_length():
    # a path one character longer moves a workload's speed through memory
    # layout alone, so the parent and the change sit side by side
    with bench_pairs.trees("HEAD") as paths:
        assert sorted(paths) == ["change", "parent"]
        parent, change = paths["parent"], paths["change"]
        assert len(parent) == len(change)
        assert os.path.dirname(parent) == os.path.dirname(change)
        for tree in (parent, change):
            assert os.path.isfile(os.path.join(tree, "benchmark", "run.py"))
            assert os.path.isfile(os.path.join(tree, "src", "beltbound", "__init__.py"))
            assert os.path.isfile(os.path.join(tree, "BENCHMARK.json"))
            assert not os.path.exists(os.path.join(tree, "benchmark", "out"))
        # the change is the checkout as it is on disk
        with open(os.path.join(change, "src", "beltbound", "estimator.py")) as fh, \
                open(os.path.join(HERE, os.pardir, "src", "beltbound", "estimator.py")) as ref:
            assert fh.read() == ref.read()
    assert not os.path.exists(os.path.dirname(parent))

"""The output digests of scripts/bench_pr.py."""

import importlib.util
import os

from beltbound.cli import run

HERE = os.path.dirname(os.path.abspath(__file__))
spec = importlib.util.spec_from_file_location(
    "bench_pr", os.path.join(HERE, os.pardir, "scripts", "bench_pr.py"))
bench_pr = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pr)

FAST = ["--nodes", "64", "--weight-pieces", "2"]


def test_digest_is_repeatable_and_tells_commands_apart(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    estimate = ["--command", "estimate", "--alpha", "0.5"] + FAST
    other = ["--command", "estimate", "--alpha", "0.6"] + FAST
    first, second, third = (bench_pr.run_captured(run, argv) for argv in (estimate, estimate, other))
    assert first[0] == second[0] == third[0] == 0
    assert first[2] == second[2] != third[2]


def test_digest_reads_the_out_file(tmp_path, monkeypatch):
    # the sweep writes nothing to stdout: its digest is the file's, which
    # holds what it would print without --out
    monkeypatch.chdir(tmp_path)
    sweep = ["--command", "sweep", "--M", "2", "--format", "csv", "--out", "scan.csv"] + FAST
    codes, _, digests = zip(*(bench_pr.run_captured(run, sweep + extra)
                              for extra in ([], [], ["--tau", "1"])))
    assert codes == (0, 0, 0) and not os.path.exists("scan.csv")
    assert digests[0] == digests[1] != digests[2]
    assert digests[0] == bench_pr.run_captured(run, ["--command", "sweep", "--M", "2",
                                                     "--format", "csv"] + FAST)[2]


def test_readme_times_are_also_in_reference_units(monkeypatch):
    # each command's median is divided by the median of the benchmark's
    # reference loop, timed before each timed run and after the last
    estimate = ["--command", "estimate", "--alpha", "0.5"] + FAST
    monkeypatch.setattr(bench_pr, "README_COMMANDS", (estimate,))
    monkeypatch.setattr(bench_pr, "README_REPEATS", 2)
    refs = []
    reference = bench_pr.reference_loop()

    def timed_reference():
        refs.append(reference())
        return refs[-1]

    monkeypatch.setattr(bench_pr, "reference_loop", lambda: timed_reference)
    entry, = bench_pr.readme_commands()
    assert len(refs) == 3 and entry["ref_s"] == sorted(refs)[1] > 0.0
    assert entry["seconds_ref"] == entry["seconds"] / entry["ref_s"]
    assert entry["exit_codes"] == [0] and entry["same_digest"]

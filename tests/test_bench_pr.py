"""The output digests of scripts/bench_pr.py."""

import importlib.util
import os
import weakref

from beltbound import estimator
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
    # (sweep reads no --weight-pieces)
    sweep = ["--command", "sweep", "--M", "2", "--format", "csv", "--out", "scan.csv",
             "--nodes", "64"]
    codes, _, digests = zip(*(bench_pr.run_captured(run, sweep + extra)
                              for extra in ([], [], ["--tau", "1"])))
    assert codes == (0, 0, 0) and not os.path.exists("scan.csv")
    assert digests[0] == digests[1] != digests[2]
    assert digests[0] == bench_pr.run_captured(run, ["--command", "sweep", "--M", "2",
                                                     "--format", "csv", "--nodes", "64"])[2]


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


def test_event_counts_repeat_on_one_tree():
    # each count runs in a fresh process, so no cache of an earlier run or
    # of this test session enters it: two runs give equal counts
    for counter, arg in ((bench_pr.workload_events, "origin-corpus"),
                         (bench_pr.workload_events, "lattice-cli"),
                         (bench_pr.command_events, ["--command", "estimate", "--alpha", "0.5"])):
        first, second = (bench_pr.fresh_events(counter, arg) for _ in range(2))
        assert first == second and first["call"] > 0 and first["c_call"] > 0, arg
        # per_layer is compared too, and splits the total
        layers = first["per_layer"]
        assert layers == second["per_layer"] and layers["estimator"] > 0, arg
        assert sum(layers.values()) == first["call"] + first["c_call"], arg


def test_fault_counts_sit_beside_the_event_counts():
    # minor page faults of the same job sequence, unprofiled, in a fresh
    # process; recorded per job, with no gate
    faults = bench_pr.fresh_events(bench_pr.workload_faults, "origin-corpus")
    assert set(faults) == {"minflt", "jobs", "per_job"}, faults
    assert faults["jobs"] == bench_pr.fresh_events(bench_pr.workload_events, "origin-corpus")["jobs"]
    assert faults["minflt"] >= 0 and faults["per_job"] == faults["minflt"] / faults["jobs"]


def test_job_sequence_keeps_no_results(monkeypatch):
    # the counted sequence drops each job's result before the next, as the
    # benchmark's loop does: when a job starts, the only report alive is
    # the last job's, which corollary_bound keeps for its next call
    live, alive_at_start = weakref.WeakSet(), []
    beta_estimate = estimator.beta_estimate

    def tracked(pair, cfg):
        alive_at_start.append(len(live))
        report = beta_estimate(pair, cfg)
        live.add(report)
        return report

    monkeypatch.setattr(estimator, "beta_estimate", tracked)
    with bench_pr._job_sequence("origin-corpus") as (run_jobs, jobs):
        run_jobs()
    assert len(alive_at_start) == jobs + 1 and max(alive_at_start) <= 1, alive_at_start


def test_coeff_file_command_reads_the_scripts_own_file(tmp_path, monkeypatch):
    # the benchmark's lattice-cli call, on a file the script writes into its
    # working directory from COEFF_TEXT, with no committed fixture; it is
    # timed, digested and counted like the other commands
    argv, = (a for a in bench_pr.README_COMMANDS if "--coeff-file" in a)
    assert argv[argv.index("--coeff-file") + 1] == bench_pr.COEFF_FILE
    assert argv[argv.index("--circles"):] == ["--circles", "1", "--nodes", "256",
                                              "--weight-pieces", "2"]
    monkeypatch.chdir(tmp_path)
    bench_pr.write_inputs()
    first, second = (bench_pr.run_captured(run, argv) for _ in range(2))
    assert first[0] == second[0] == 0 and first[2] == second[2]
    monkeypatch.setattr(bench_pr, "README_COMMANDS", (argv,))
    monkeypatch.setattr(bench_pr, "README_REPEATS", 1)
    entry, = bench_pr.readme_commands()
    assert entry["exit_codes"] == [0] and entry["same_digest"] and entry["sha256"] == first[2]
    events = entry["events"]
    assert events["call"] > 0 and events["per_layer"]["cli"] > 0, events
    assert sum(events["per_layer"].values()) == events["call"] + events["c_call"]


def test_traced_layer_times_are_also_shares_of_the_job_time():
    # a short traced maps run: every per-layer time over trace.job_s, each
    # in [0, 1], the weak form's among them; the untraced run has no shares
    traced = bench_pr.benchmark("maps", 0, 1, jobs=2)
    assert traced["exit_code"] == 0 and traced["failed"] == 0, traced
    shares, metrics = traced["per_layer_share"], traced["metrics"]
    assert shares["verify.weak_form_residual.s"] > 0.0
    assert "trace.job_s" not in shares and "verify.weak_residual_vector.calls" not in shares
    for name, share in shares.items():
        assert 0.0 <= share <= 1.0, (name, share)
        assert share == metrics[name] / metrics["trace.job_s"]
    assert "per_layer_share" not in bench_pr.benchmark("maps", 0, 0, jobs=2)

"""Write one JSON record of how fast this checkout is, for comparing changes.

    python3 scripts/bench_pr.py --out BENCH_<n>.json

Run from anywhere inside a source checkout.  The record holds:

- ``src_lines``: the line count of ``src/``, and ``module_lines`` that of
  each of its modules;
- ``tier1``: wall time and outcome of the tier-1 suite
  (``python -m pytest -q --continue-on-collection-errors`` with ``src/`` on
  the path);
- ``readme_commands``: in-process wall time of the five README commands,
  of two 41-circle sweeps, ``estimate --M 2 --tau 0.5 --circles 5`` and
  the nu = 0 lattice ``estimate --alpha 0.5 --circles 5``, and of the
  benchmark's lattice-cli call on one coefficient file, ``estimate
  --coeff-file coeff.json --circles 1 --nodes 256 --weight-pieces 2``, the
  file written into the working directory from ``COEFF_TEXT``
  (``beltbound.cli.run``, stdout captured), median of five runs after one
  warm-up, with their exit codes, and each command's ``tracemalloc`` peak
  (``peak_mb``, in MB) from one more run, untimed, since tracing slows the
  allocations it counts.  Before each timed run and after the last, the
  benchmark's reference loop (``benchmark/run.py``'s ``reference_seconds``)
  is timed too: ``ref_s`` is the median of those times and ``seconds_ref``
  the median run in reference units, ``seconds / ref_s``, which takes most
  of a host's drift in speed out of a comparison between two records, as
  the benchmark's job times do.  Each entry also holds ``sha256``, the
  digest of the command's output (its captured stdout, then the file it
  wrote with ``--out``: ``scan.csv`` for the sweep), and ``same_digest``,
  whether every timed run gave that digest, so that two records tell
  whether a change kept the outputs byte for byte;
- ``workloads``: for each workload of ``BENCHMARK.json``, the end-to-end
  metrics of ``benchmark/run.py --trace 0`` and the per-layer metrics of
  ``--trace 1``, each with the run's attempted/failed counts, at seed
  ``SEED`` and ``BENCHMARK.json``'s ``run_seconds``, the same in every record.
  The traced entry also holds ``per_layer_share``: each per-layer time (a
  metric in seconds) divided by the run's ``trace.job_s``.  A traced time
  moves with the host's speed as much as with a change, a share much less,
  so shares compare between records where the raw seconds do not;
- ``events``, in each workload's and each command's entry: the
  ``sys.setprofile`` ``call`` and ``c_call`` events of a fixed job sequence,
  counted in a fresh process, and ``per_job``, their sum per job.  A
  workload's sequence is its first ``min_jobs`` inputs at seed ``SEED``,
  after one uncounted warm-up job on the first, as the benchmark's traced
  run does, each job's result dropped before the next, as the benchmark's
  loop drops it; a command's is one run after one uncounted run.  A count does
  not depend on the host's speed or memory layout, so it tells a timing
  move that comes from the program apart from one that does not; it
  measures call overhead, not array work.  ``per_layer`` splits the count
  by the layer (``LAYERS``, the benchmark tracer's names) of the innermost
  library frame on the stack when the event fired, ``other`` where there is
  none; the layers sum to the total;
- ``faults``, in each workload's entry: the minor page faults
  (``ru_minflt``) of the same job sequence, run unprofiled in another fresh
  process, and ``per_job``.  A minor fault is the first touch of a page the
  process has newly mapped (the heap grown again, or a large array's own
  mapping), so the count shows memory the allocator gives back to the
  system and takes again between jobs.  It is recorded, not gated.

The benchmark runs as a subprocess and nothing under ``benchmark/`` is
edited; ``--trace 1`` writes its spans to ``benchmark/out/`` as usual, and
the counts import ``benchmark/workloads.py`` from its file.  No timed run is
profiled.  Timings are only comparable between records taken on the same
machine.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# the coefficient file of the lattice-cli command below: a seven-arc pair,
# input 33 of the benchmark's lattice-cli workload at seed 7
COEFF_FILE = "coeff.json"
COEFF_TEXT = json.dumps({
    "breakpoints": [0.0, 1.0369631348645723, 1.1198165755668807, 2.7039529790399586,
                    3.130904180248707, 3.7047883062245313, 3.956568746098594],
    "mu0": [0.0006282693814656515, -0.29093485439909267, 0.3265974801829211,
            -0.2178452495662685, 0.13088189925411964, -0.3221508863502507, 0.4116411073976818],
    "nu0": [0.5278626293424747, 0.20268622784405393, 0.013608320375719463,
            0.2943374276477924, 0.11176552980185495, -0.29472751794837954, 0.2945119526770542]})

README_COMMANDS = (
    ["--command", "estimate", "--M", "2", "--tau", "0.5"],
    ["--command", "sharp", "--M", "3", "--tau", "1"],
    ["--command", "verify", "--alpha", "0.5"],
    ["--command", "verify", "--M", "2", "--tau", "0.5", "--corrupt-mu"],
    ["--command", "sweep", "--M", "1.5,2,4", "--tau", "0,1", "--format", "csv",
     "--out", "scan.csv"],
    # not README commands: the disk-lattice sweep, 41 circles in two grids,
    # the nu = 0 lattice, whose one sweep also reports the nu = 0 bound, and
    # the benchmark's lattice-cli call (9 circles) on the file of COEFF_TEXT
    ["--command", "estimate", "--M", "2", "--tau", "0.5", "--circles", "5"],
    ["--command", "estimate", "--alpha", "0.5", "--circles", "5"],
    ["--command", "estimate", "--coeff-file", COEFF_FILE, "--circles", "1", "--nodes", "256",
     "--weight-pieces", "2"],
)
README_REPEATS = 5
SEED = 7


def module_lines():
    """{path under src/: line count} of each Python module."""
    lines = {}
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path) as fh:
                    lines[os.path.relpath(path, SRC)] = sum(1 for _ in fh)
    return lines


def tier1():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p",
         "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {k: int(n) for n, k in re.findall(r"(\d+) (passed|failed|error|skipped)", summary)}
    return {"seconds": seconds, "exit_code": proc.returncode, "summary": summary, **counts}


def run_captured(run, argv):
    """One in-process call of the CLI's run: (exit code, seconds, sha256 of
    the output).  The output is the captured stdout followed by the file
    named by --out, which is read from the working directory and removed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        code = run(list(argv))
        seconds = time.perf_counter() - start
    digest = hashlib.sha256(buf.getvalue().encode())
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            with open(path, "rb") as fh:
                digest.update(fh.read())
            os.remove(path)
    return code, seconds, digest.hexdigest()


def reference_loop():
    """benchmark/run.py's reference_seconds, imported from its file."""
    spec = importlib.util.spec_from_file_location(
        "benchmark_run", os.path.join(ROOT, "benchmark", "run.py"))
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclasses
    spec.loader.exec_module(module)
    return module.reference_seconds


def write_inputs():
    """Write the commands' input files into the working directory."""
    with open(COEFF_FILE, "w") as fh:
        fh.write(COEFF_TEXT)


def readme_commands():
    sys.path.insert(0, SRC)
    from beltbound.cli import run

    reference = reference_loop()
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)  # the sweep writes scan.csv into the working directory
        try:
            write_inputs()
            for argv in README_COMMANDS:
                times, codes, digests, refs = [], set(), [], []
                for repeat in range(README_REPEATS + 1):
                    if repeat:  # the warm-up run is not timed
                        refs.append(reference())
                    code, seconds, digest = run_captured(run, argv)
                    codes.add(code)
                    times.append(seconds)
                    digests.append(digest)
                refs.append(reference())
                tracemalloc.start()
                try:
                    with contextlib.redirect_stdout(io.StringIO()):
                        codes.add(run(list(argv)))
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                seconds, ref = statistics.median(times[1:]), statistics.median(refs)
                out.append({"argv": " ".join(argv), "seconds": seconds, "ref_s": ref,
                            "seconds_ref": seconds / ref,
                            "peak_mb": peak / 1e6, "exit_codes": sorted(codes),
                            "sha256": digests[0], "same_digest": len(set(digests)) == 1,
                            "events": fresh_events(command_events, argv)})
        finally:
            os.chdir(cwd)
    return out


# the library's layers, as the benchmark's tracer names them
LAYERS = ("periodic_fields", "reduction", "stretching", "sharp_family", "estimator", "verify",
          "cli")
_LAYER_OF_MODULE = {f"beltbound.{name}": name for name in LAYERS}


def _layer(frame):
    """The layer of the innermost library frame on frame's stack, else "other"."""
    while frame is not None:
        layer = _LAYER_OF_MODULE.get(frame.f_globals.get("__name__"))
        if layer is not None:
            return layer
        frame = frame.f_back
    return "other"


def _profile_events(job, jobs):
    """sys.setprofile call and c_call events of job(), their sum per job, and
    per_layer: the events by the layer of the innermost library frame on the
    stack (a call event's own frame included), summing to the total."""
    counts = {"call": 0, "c_call": 0}
    per_layer = dict.fromkeys((*LAYERS, "other"), 0)

    def profile(frame, event, arg):
        if event in counts:
            counts[event] += 1
            per_layer[_layer(frame)] += 1

    sys.setprofile(profile)
    try:
        job()
    finally:
        sys.setprofile(None)
    return {**counts, "jobs": jobs, "per_job": (counts["call"] + counts["c_call"]) / jobs,
            "per_layer": per_layer}


@contextlib.contextmanager
def _job_sequence(name):
    """(run, jobs): run() runs a workload's first jobs = min_jobs inputs at
    SEED, the first of them already run once as a warm-up, and drops each
    result before the next job, as benchmark/run.py's loop does."""
    sys.path.insert(0, SRC)
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(ROOT, "benchmark", "workloads.py"))
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    w = workloads.WORKLOADS[name]

    def part(_):
        return contextlib.nullcontext()

    with tempfile.TemporaryDirectory() as tmp:
        inputs = w.make_inputs(SEED, w.min_jobs, tmp)
        w.run(inputs[0], part)

        def run():
            for inp in inputs:
                w.run(inp, part)

        yield run, w.min_jobs


def workload_events(name):
    """Events of a workload's job sequence.  Meant for a fresh process."""
    with _job_sequence(name) as (run, jobs):
        return _profile_events(run, jobs)


def workload_faults(name):
    """Minor page faults (ru_minflt) of a workload's job sequence, unprofiled,
    and their count per job.  Meant for a fresh process."""
    with _job_sequence(name) as (run, jobs):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run()
        minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    return {"minflt": minflt, "jobs": jobs, "per_job": minflt / jobs}


def command_events(argv):
    """Events of one CLI run after one uncounted run.  Meant for a fresh process."""
    sys.path.insert(0, SRC)
    from beltbound.cli import run

    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)  # the sweep writes scan.csv into the working directory
        try:
            write_inputs()
            with contextlib.redirect_stdout(io.StringIO()):
                run(list(argv))
                return _profile_events(lambda: run(list(argv)), 1)
        finally:
            os.chdir(cwd)


def fresh_events(counter, arg):
    """counter(arg), one of the counters above, in a fresh Python process, so
    that no cache left by an earlier run enters the count."""
    code = ("import json, runpy, sys; f = runpy.run_path(sys.argv[1])[sys.argv[2]]; "
            "print(json.dumps(f(json.loads(sys.argv[3]))))")
    proc = subprocess.run(
        [sys.executable, "-c", code, os.path.abspath(__file__), counter.__name__, json.dumps(arg)],
        cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED="0"), capture_output=True, text=True)
    if proc.returncode != 0:
        return {"exit_code": proc.returncode, "stderr_tail": proc.stderr[-2000:]}
    return json.loads(proc.stdout.splitlines()[-1])


def layer_shares(metrics):
    """Each per-layer time of a traced run's metrics ({name: {"value",
    "unit"}}) as a share of its trace.job_s; None without a job time."""
    job_s = metrics["trace.job_s"]["value"]
    if not job_s > 0:
        return None
    return {k: v["value"] / job_s for k, v in metrics.items()
            if v["unit"] == "s" and k != "trace.job_s"}


def benchmark(workload, seconds, trace, jobs=None):
    """One benchmark/run.py run; jobs, when given, its minimum job count."""
    proc = subprocess.run(
        [sys.executable, os.path.join("benchmark", "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace),
         *(["--jobs", str(jobs)] if jobs else [])],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"exit_code": proc.returncode, "stderr_tail": proc.stderr[-2000:]}
    result = json.loads(lines[-1])
    out = {
        "exit_code": proc.returncode,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }
    if trace:
        out["per_layer_share"] = layer_shares(result["metrics"])
    return out


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True, help="path of the JSON record to write")
    args = p.parse_args(argv)

    # Linux carries a process's peak RSS across fork and exec, so the
    # benchmark subprocesses run before this process imports the library:
    # otherwise their peak_rss_mb would report this process's peak
    lines = module_lines()
    record = {"src_lines": sum(lines.values()), "module_lines": lines, "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        record["workloads"][name] = {
            "end_to_end": benchmark(name, spec["run_seconds"], 0),
            "per_layer": benchmark(name, spec["run_seconds"], 1),
            "events": fresh_events(workload_events, name),
            "faults": fresh_events(workload_faults, name),
        }
    record["tier1"] = tier1()
    record["readme_commands"] = readme_commands()
    import numpy

    record["context"] = {"python": platform.python_version(), "numpy": numpy.__version__,
                         "machine": platform.machine(), "nproc": os.cpu_count(),
                         "seed": SEED, "seconds": spec["run_seconds"]}
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

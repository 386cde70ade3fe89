"""Write one JSON record of how fast this checkout is, for comparing changes.

    python3 scripts/bench_pr.py --out BENCH_<n>.json

Run from anywhere inside a source checkout.  The record holds:

- ``src_lines``: the line count of ``src/``;
- ``tier1``: wall time and outcome of the tier-1 suite
  (``python -m pytest -q --continue-on-collection-errors`` with ``src/`` on
  the path);
- ``readme_commands``: in-process wall time of the five README commands
  and of two 41-circle sweeps, ``estimate --M 2 --tau 0.5 --circles 5`` and
  the nu = 0 lattice ``estimate --alpha 0.5 --circles 5``
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

The benchmark runs as a subprocess and nothing under ``benchmark/`` is
edited; ``--trace 1`` writes its spans to ``benchmark/out/`` as usual.
Timings are only comparable between records taken on the same machine.
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
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

README_COMMANDS = (
    ["--command", "estimate", "--M", "2", "--tau", "0.5"],
    ["--command", "sharp", "--M", "3", "--tau", "1"],
    ["--command", "verify", "--alpha", "0.5"],
    ["--command", "verify", "--M", "2", "--tau", "0.5", "--corrupt-mu"],
    ["--command", "sweep", "--M", "1.5,2,4", "--tau", "0,1", "--format", "csv",
     "--out", "scan.csv"],
    # not README commands: the disk-lattice sweep, 41 circles in two grids,
    # and the nu = 0 lattice whose bounds share one reduction
    ["--command", "estimate", "--M", "2", "--tau", "0.5", "--circles", "5"],
    ["--command", "estimate", "--alpha", "0.5", "--circles", "5"],
)
README_REPEATS = 5
SEED = 7


def src_lines():
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    total += sum(1 for _ in fh)
    return total


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


def readme_commands():
    sys.path.insert(0, SRC)
    from beltbound.cli import run

    reference = reference_loop()
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)  # the sweep writes scan.csv into the working directory
        try:
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
                            "sha256": digests[0], "same_digest": len(set(digests)) == 1})
        finally:
            os.chdir(cwd)
    return out


def benchmark(workload, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join("benchmark", "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"exit_code": proc.returncode, "stderr_tail": proc.stderr[-2000:]}
    result = json.loads(lines[-1])
    return {
        "exit_code": proc.returncode,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True, help="path of the JSON record to write")
    args = p.parse_args(argv)

    # Linux carries a process's peak RSS across fork and exec, so the
    # benchmark subprocesses run before this process imports the library:
    # otherwise their peak_rss_mb would report this process's peak
    record = {"src_lines": src_lines(), "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        record["workloads"][name] = {
            "end_to_end": benchmark(name, spec["run_seconds"], 0),
            "per_layer": benchmark(name, spec["run_seconds"], 1),
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

"""beltbound benchmark: one workload per run, seeded inputs, checked outputs.

    python3 benchmark/run.py --workload origin-corpus --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/`` directory and nowhere else.  Workloads (see workloads.py and
BENCHMARK.json): ``origin-corpus``, ``lattice-cli``, ``maps``.

--trace 0  set up several times, then run jobs in a closed loop (one at a
           time) for --seconds and at least the workload's minimum job
           count; print the end-to-end metrics.
--trace 1  run the minimum job count untraced, then set up and run the same
           jobs again with every library layer wrapped (tracer.py); print
           the per-layer metrics and write the spans to
           benchmark/out/trace-<workload>-<seed>.json.

Every job's output is checked; a job that raises, exits nonzero or fails a
check counts in ``failed``.  Stdout ends with two JSON lines: the run's
context and the figures that BENCHMARK.json does not list (raw seconds
among them), then the result ``{"correct", "attempted", "failed",
"metrics"}`` with BENCHMARK.json's end_to_end (--trace 0) or per_layer
(--trace 1) metrics.

Job times in the metrics are in reference units ("ref"): each job's wall
time divided by the wall time of a fixed loop (``reference_seconds``) run
around it.  setup_s is the set-up time scaled the same way to a host on
which that loop takes NOMINAL_REFERENCE_S; the raw seconds are printed on
the line before.  On a shared 2-vCPU x86_64 host the speed of a plain
Python loop changed by up to 1.5x for seconds to tens of minutes at a time,
in CPU time as much as in wall time, which put 10-50 % between runs of the
raw figures; dividing by the reference loop took most of that out.  The
loop calls nothing in beltbound, so no library change can move it.

For steadier figures the process also pins itself to one CPU (the highest
it may use) and runs BLAS single-threaded.  Both act on this process only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
REFERENCE_LOOPS = 3000  # about 25 ms, a few per cent of a job
NOMINAL_REFERENCE_S = 0.02  # setup_s is in seconds at this reference-loop time


def steady_process():
    """Single-threaded BLAS and one pinned CPU; returns the CPU."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def load_library():
    """Import the workloads (and so beltbound) from this checkout's src/.

    Returns (workloads module, import seconds).  Raises ImportError when
    the checkout holds no library.
    """
    if not os.path.isfile(os.path.join(SRC, "beltbound", "__init__.py")):
        raise ImportError(f"no beltbound package under {SRC}")
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import workloads

    import beltbound.cli  # noqa: F401

    seconds = time.perf_counter() - start
    if not os.path.abspath(sys.modules["beltbound"].__file__).startswith(SRC + os.sep):
        raise ImportError("beltbound was imported from outside this checkout")
    return workloads, seconds


@dataclass
class Job:
    seconds: float
    raised: bool
    failures: list
    facts: dict | None
    parts: dict = field(default_factory=dict)
    ref: float = math.nan  # mean of the reference_seconds() just before and after

    @property
    def ref_units(self):
        return self.seconds / self.ref


def reference_seconds():
    """Wall time of a fixed loop of small-array numpy calls and float math,
    the kind of work the library's hot loops do."""
    import numpy as np

    x = np.linspace(0.0, 1.0, 24)
    acc = 0.0
    start = time.perf_counter()
    for i in range(REFERENCE_LOOPS):
        acc += float(np.max(x * i) - np.min(x)) + math.sqrt(i)
    return time.perf_counter() - start


def run_job(w, inp, tracer=None) -> Job:
    """Time one job, then check its output outside the timed region."""
    parts = {}
    span = tracer.span if tracer is not None else (lambda name: nullcontext())

    @contextmanager
    def part(name):
        start = time.perf_counter()
        with span(f"job.{name}"):
            yield
        parts[name] = time.perf_counter() - start

    start = time.perf_counter()
    try:
        with span("job"):
            raw = w.run(inp, part)
    except Exception as exc:  # a job that raises is counted, the run goes on
        traceback.print_exc()
        return Job(time.perf_counter() - start, True, [f"raised {exc!r}"], None, parts)
    seconds = time.perf_counter() - start
    try:
        failures, facts = w.check(inp, raw)
    except Exception as exc:
        traceback.print_exc()
        failures, facts = [f"check raised {exc!r}"], None
    if failures:
        print(f"{w.name}: job failed: {'; '.join(failures)}", file=sys.stderr)
    return Job(seconds, False, failures, facts, parts)


def timed(w, inputs, seconds, min_jobs, tracer=None):
    """Closed loop over the inputs until both limits are met.

    A reference loop runs before every job and after the last; each job's
    ``ref`` is the mean of the two around it.  Returns (jobs, busy seconds,
    mean reference seconds), busy being the loop's wall time without the
    reference loops.
    """
    jobs = []
    refs = []
    start = time.perf_counter()
    while len(jobs) < min_jobs or time.perf_counter() - start < seconds:
        refs.append(reference_seconds())
        jobs.append(run_job(w, inputs[len(jobs) % len(inputs)], tracer))
    refs.append(reference_seconds())
    busy = time.perf_counter() - start - math.fsum(refs)
    for job, before, after in zip(jobs, refs, refs[1:]):
        job.ref = 0.5 * (before + after)
    return jobs, busy, statistics.fmean(refs)


def tail_pct(min_jobs):
    """The highest percentile that leaves ten samples beyond it in every run,
    each run having at least min_jobs samples (100, the maximum, when no
    percentile can)."""
    if min_jobs <= TAIL_BEYOND:
        return 100.0
    return 100.0 * (min_jobs - TAIL_BEYOND) / min_jobs


def percentile(values, pct):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(1, math.ceil(pct / 100.0 * len(s))) - 1]


def summarize(jobs, busy, ref, min_jobs):
    """End-to-end figures of a timed loop, in reference units and raw."""
    done = sum(1 for j in jobs if not j.raised)
    failed = sum(1 for j in jobs if j.raised or j.failures)
    exponents = [j.facts["exponent"] for j in jobs[:min_jobs]
                 if j.facts is not None and math.isfinite(j.facts["exponent"])]
    units = [j.ref_units for j in jobs]
    times = [j.seconds for j in jobs]
    pct = tail_pct(min_jobs)
    out = {
        "attempted": len(jobs),
        "failed": failed,
        "failed_frac": failed / len(jobs),
        "jobs_per_kref": 1000.0 * done * ref / busy,
        "job_ref.p50": statistics.median(units),
        "job_ref.tail": percentile(units, pct),
        "tail_pct": pct,
        "samples": len(jobs),
        "exponent_mean": math.fsum(exponents) / len(exponents) if exponents else 0.0,
        "ref_s.mean": ref,
        "jobs_per_s": done / busy,
        "job_s.p50": statistics.median(times),
        "job_s.tail": percentile(times, pct),
        "circles_per_s": sum(j.facts["circles"] for j in jobs if j.facts) / busy,
    }
    for name in sorted({p for j in jobs for p in j.parts}):
        out[f"{name}_s.p50"] = statistics.median(j.parts[name] for j in jobs if name in j.parts)
    return out


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def src_lines():
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def context(cpu):
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "src_lines": src_lines(),
        "machine": platform.machine(),
    }


def untraced_run(w, args, workdir, import_s, min_jobs):
    setups = []
    refs = [reference_seconds()]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = w.make_inputs(args.seed, max(w.pool, min_jobs), workdir)
        run_job(w, inputs[0])  # warm-up, not counted
        setups.append(time.perf_counter() - start)
        refs.append(reference_seconds())
    setup_raw = import_s + statistics.median(setups)
    jobs, busy, ref = timed(w, inputs, args.seconds, min_jobs)
    s = summarize(jobs, busy, ref, min_jobs)
    metrics = {
        "setup_s": (setup_raw * NOMINAL_REFERENCE_S / statistics.median(refs), "s"),
        "jobs_per_kref": (s["jobs_per_kref"], "1/kref"),
        "job_ref.p50": (s["job_ref.p50"], "ref"),
        "job_ref.tail": (s["job_ref.tail"], "ref"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    extra = {k: v for k, v in s.items() if k not in metrics}
    extra.update(setup_raw_s=setup_raw, import_s=import_s, setup_repeats_s=setups,
                 setup_ref_s=refs, busy_s=busy)
    return metrics, extra, s["attempted"], s["failed"]


def traced_run(w, args, workdir, min_jobs):
    from tracer import Tracer

    inputs = w.make_inputs(args.seed, min_jobs, workdir)
    run_job(w, inputs[0])  # warm-up, not counted
    plain, plain_busy, plain_ref = timed(w, inputs, 0, min_jobs)

    tracer = Tracer()

    def count_search(report):
        if "piecewise" in report.config.families():
            tracer.count("circles_searched", len(report.per_circle))
            tracer.count("search_wins", sum(r["family"] == "piecewise" for r in report.per_circle))
            tracer.count("objective_evals", sum(r["evaluations"] for r in report.per_circle))

    tracer.on_result("estimator.beta_estimate", count_search)
    tracer.install()
    try:
        with tracer.span("setup"):
            inputs = w.make_inputs(args.seed, min_jobs, workdir)
        traced, traced_busy, traced_ref = timed(w, inputs, 0, min_jobs, tracer)
    finally:
        tracer.uninstall()

    t, c = tracer, tracer.counters
    job_s = t.total({"job"})
    metrics = {
        "estimator.self_s": (t.self_time({"estimator.beta_estimate", "estimator.corollary_bound"}), "s"),
        "estimator.objective_evals": (c.get("objective_evals", 0), "count"),
        "estimator.search_win_frac": (
            c.get("search_wins", 0) / c["circles_searched"] if c.get("circles_searched") else 0.0,
            "ratio"),
        "estimator.corollary_s": (t.total({"estimator.corollary_bound"}), "s"),
        "reduction.on_circle.calls": (t.calls("reduction.BeltramiPair.on_circle"), "count"),
        "reduction.on_circle.s": (t.total({"reduction.BeltramiPair.on_circle"}), "s"),
        "reduction.build.s": (t.total({"reduction.BeltramiPair.from_profiles",
                                       "reduction.BeltramiPair.from_angular",
                                       "reduction.beltrami_to_matrices"}), "s"),
        "periodic_fields.eval_at.calls": (t.calls("periodic_fields.PeriodicField.eval_at"), "count"),
        "periodic_fields.eval_at.s": (t.total({"periodic_fields.PeriodicField.eval_at"}), "s"),
        "stretching.find_periodic_alpha.s": (t.total({"stretching.find_periodic_alpha"}), "s"),
        "stretching.monodromy.calls": (t.calls("stretching.monodromy"), "count"),
        "stretching.monodromy.s": (t.total({"stretching.monodromy"}), "s"),
        "stretching.phase_advance.calls": (t.calls("stretching.phase_advance"), "count"),
        "stretching.phase_advance.s": (t.total({"stretching.phase_advance"}), "s"),
        "stretching.solve_system.s": (t.total({"stretching.solve_system"}), "s"),
        "sharp_family.build_family.s": (t.total({"sharp_family.build_family"}), "s"),
        "sharp_family.build_maps.s": (t.total({"sharp_family.build_maps"}), "s"),
        "verify.beltrami_residual.s": (t.total({"verify.beltrami_residual"}), "s"),
        "verify.weak_form_residual.s": (t.total({"verify.weak_form_residual"}), "s"),
        "verify.weak_residual_vector.calls": (t.calls("verify.weak_residual_vector"), "count"),
        "verify.empirical_holder.s": (t.total({"verify.empirical_holder"}), "s"),
        "cli.self_s": (t.self_time({"cli.run"}), "s"),
        "trace.overhead_frac": ((traced_busy / traced_ref) / (plain_busy / plain_ref) - 1.0,
                                "ratio"),
        "trace.job_s": (job_s, "s"),
    }
    searched = metrics["estimator.self_s"][0] + metrics["reduction.on_circle.s"][0]
    smooth_s = t.total({"job.smooth"})
    extra = {
        "traced_jobs": len(traced),
        "plain_busy_s": plain_busy,
        "traced_busy_s": traced_busy,
        "estimator_and_on_circle_share_of_job_s": searched / job_s,
        "find_periodic_alpha_share_of_smooth_job_s": (
            t.total({"stretching.find_periodic_alpha"}, under="job.smooth") / smooth_s
            if smooth_s else None),
    }
    t.write(os.path.join(OUT, f"trace-{w.name}-{args.seed}.json"),
            {"workload": w.name, "seed": args.seed, "metrics": {k: v[0] for k, v in metrics.items()}})
    jobs = plain + traced
    failed = sum(1 for j in jobs if j.raised or j.failures)
    return metrics, extra, len(jobs), failed


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--jobs", type=int, help="minimum job count (default: the workload's)")
    args = p.parse_args(argv)

    cpu = steady_process()
    try:
        workloads, import_s = load_library()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS.get(args.workload)
    if w is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    min_jobs = args.jobs or w.min_jobs

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        if args.trace:
            metrics, extra, attempted, failed = traced_run(w, args, workdir, min_jobs)
        else:
            metrics, extra, attempted, failed = untraced_run(w, args, workdir, import_s, min_jobs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"workload": w.name, "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, "min_jobs": min_jobs,
                      "context": context(cpu), "figures": extra}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

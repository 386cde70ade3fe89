"""Seeded inputs, jobs and per-job correctness checks for the three workloads.

Each workload draws input ``i`` from its own generator seeded with
``(seed, i)``, so the first n inputs are the same whatever the pool size.
The library sees only the generated inputs, never the seed.

A job returns the program's raw results; ``check`` turns them into a list
of failed checks plus the facts the report needs: the exponent the job
produced (beta on the estimate workloads, the smooth profile's periodic
alpha on maps) and the number of circles it evaluated.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from beltbound import cli, estimator, reduction, sharp_family, stretching, verify
from beltbound.periodic_fields import SMOOTH, TWO_PI, AngularGrid, PeriodicField

ORDER_TOL = 1e-12  # slack on beta >= corollary and beta >= classical
SHARP_REL_TOL = 0.02  # |beta - d/c| / (d/c) on the sharp family


@dataclass(frozen=True)
class Workload:
    name: str
    min_jobs: int  # every run completes at least this many jobs; also the traced pass
    pool: int  # inputs generated per set-up; the timed loop cycles through them
    make_inputs: Callable  # (seed, count, workdir) -> list
    run: Callable  # (input, part) -> raw result
    check: Callable  # (input, raw result) -> (failures, facts)


def _rng(seed, i):
    return np.random.default_rng([seed, i])


def _random_pieces(rng, arcs):
    """Criterion 6's random angular pair, widened to a given arc count."""
    bks = np.concatenate([[0.0], np.sort(rng.uniform(0.3, TWO_PI - 0.3, arcs - 1))])
    mu0 = rng.uniform(-0.6, 0.6, arcs)
    nu0 = rng.uniform(-0.6, 0.6, arcs)
    total = np.abs(mu0) + np.abs(nu0)
    cap = rng.uniform(0.3, 0.85, arcs)
    shrink = np.where(total > 0, np.minimum(1.0, cap / np.maximum(total, 1e-9)), 1.0)
    return bks, mu0 * shrink, nu0 * shrink


def _arcs(i):
    return 2 + i % 7  # 2..8 arcs in turn, so every run sees the same mix


def _bound_failures(beta, corollary, classical):
    failures = []
    if not 0.0 < beta <= 1.0:
        failures.append(f"beta {beta!r} outside (0, 1]")
    if beta < corollary - ORDER_TOL:
        failures.append(f"beta {beta!r} < corollary {corollary!r}")
    if beta < classical - ORDER_TOL:
        failures.append(f"beta {beta!r} < classical {classical!r}")
    return failures


# ---------------------------------------------------------------------------
# origin-corpus: library API, one origin circle per job

ORIGIN_NODES = 1024
ORIGIN_WEIGHT_PIECES = 16
SHARP_EVERY = 4  # every fourth job is a sharp-family point with known answer d/c


def _origin_inputs(seed, count, workdir):
    cfg = estimator.SweepConfig.origin(resolution=ORIGIN_NODES,
                                       weight_pieces=ORIGIN_WEIGHT_PIECES)
    out = []
    for i in range(count):
        rng = _rng(seed, i)
        if i % SHARP_EVERY == SHARP_EVERY - 1:
            fam = sharp_family.build_family(rng.uniform(1.5, 4.0), rng.uniform(0.0, 1.0),
                                            node_count=ORIGIN_NODES)
            out.append((fam.pair(), cfg, fam.alpha))
        else:
            pieces = _random_pieces(rng, _arcs(i))
            pair = reduction.BeltramiPair.from_profiles(*pieces, node_count=ORIGIN_NODES)
            out.append((pair, cfg, None))
    return out


def _origin_run(inp, part):
    pair, cfg, _ = inp
    report = estimator.beta_estimate(pair, cfg)
    corollary = estimator.corollary_bound(pair, cfg)
    classical = estimator.classical_bound(pair)
    return report, corollary, classical


def _origin_check(inp, result):
    _, _, expected = inp
    report, corollary, classical = result
    beta = report.bound
    failures = _bound_failures(beta, corollary, classical)
    if expected is not None and not abs(beta - expected) / expected < SHARP_REL_TOL:
        failures.append(f"beta {beta!r} misses d/c {expected!r}")
    return failures, {"exponent": beta, "circles": len(report.per_circle)}


# ---------------------------------------------------------------------------
# lattice-cli: the command line, in process, on coefficient files

# Smaller than the CLI defaults (1024 nodes, 16 weight pieces, about 5-7 s a
# job) so that a run holds enough jobs for a median and a tail.
LATTICE_FLAGS = ("--nodes", "256", "--weight-pieces", "2")


def _lattice_inputs(seed, count, workdir):
    out = []
    for i in range(count):
        bks, mu0, nu0 = _random_pieces(_rng(seed, i), _arcs(i))
        path = os.path.join(workdir, f"coeff-{i}.json")
        with open(path, "w") as fh:
            json.dump({"breakpoints": bks.tolist(), "mu0": mu0.tolist(),
                       "nu0": nu0.tolist()}, fh)
        out.append((path, os.path.join(workdir, f"estimate-{i}.json")))
    return out


def _lattice_run(inp, part):
    coeff, out = inp
    return cli.run(["--command", "estimate", "--circles", "1", "--coeff-file", coeff,
                    "--out", out, *LATTICE_FLAGS])


def _lattice_check(inp, code):
    return cli_failures(code, inp[1], expect_exit=0)


def cli_failures(code, out_path, expect_exit):
    """Exit code, JSON output and ordering flags of one estimate/verify call."""
    failures = [] if code == expect_exit else [f"exit code {code}, expected {expect_exit}"]
    facts = {"exponent": math.nan, "circles": 0}
    try:
        with open(out_path) as fh:
            doc = json.load(fh)
        os.remove(out_path)  # a later job must not read a stale file
    except (OSError, json.JSONDecodeError) as exc:
        return failures + [f"output unreadable: {exc}"], facts
    if doc.get("command") == "estimate":
        b = doc["bounds"]
        failures += _bound_failures(b["beta"], b["corollary"], b["classical"])
        failures += [f"ordering flag {k} false" for k, v in doc["ordering"].items() if not v]
        facts = {"exponent": b["beta"], "circles": doc["report"]["circle_count"]}
    elif not doc.get("passed", False):
        failures.append("verify checks failed")
    return failures, facts


# ---------------------------------------------------------------------------
# maps: stretchings and their verification, no estimator

SMOOTH_NODES = 16  # 64 would take 2-3 s a job: too few jobs in a run for a tail
SMOOTH_HARMONICS = 3
SMOOTH_LOG_AMPLITUDE = 0.4  # norm of each log-weight's Fourier coefficients
MONODROMY_TOL = 1e-6
VERIFY_NODES = 1024


def _smooth_profile(rng):
    """k1, k2 = exp of a random trig polynomial with a fixed coefficient norm."""
    grid = AngularGrid.uniform(SMOOTH_NODES)
    j = np.arange(1, SMOOTH_HARMONICS + 1)[:, None]
    fields = []
    for _ in range(2):
        coef = rng.normal(size=(2, SMOOTH_HARMONICS))
        coef *= SMOOTH_LOG_AMPLITUDE / np.linalg.norm(coef)
        log_k = coef[0] @ np.cos(j * grid.nodes) + coef[1] @ np.sin(j * grid.nodes)
        fields.append(PeriodicField(grid, np.exp(log_k), SMOOTH))
    return stretching.KProfile(*fields)


def _maps_inputs(seed, count, workdir):
    out = []
    for i in range(count):
        rng = _rng(seed, i)
        out.append((_smooth_profile(rng), rng.uniform(1.5, 4.0), rng.uniform(0.0, 1.0)))
    return out


def _maps_run(inp, part):
    k, M, tau = inp
    with part("smooth"):
        alpha = stretching.find_periodic_alpha(k)
        injective, _ = stretching.injectivity_check(stretching.solve_system(k, alpha))
    with part("verify"):
        fam = sharp_family.build_family(M, tau, node_count=VERIFY_NODES)
        stretch, _ = sharp_family.build_maps(fam)
        fam_alpha = stretching.find_periodic_alpha(fam.k)
        pair = fam.pair()
        residual = verify.beltrami_residual(stretch, pair).max_residual
        grid = verify.PolarGrid.annulus(radius_count=16, node_count=256,
                                        breakpoints=fam.breakpoints)
        weak = verify.weak_form_residual(lambda z: np.real(fam.map_at(z)),
                                         reduction.beltrami_to_matrices(pair).B,
                                         grid, refinements=2)
        empirical, _ = verify.empirical_holder(stretch)
    return alpha, injective, fam, fam_alpha, residual, weak.slope, empirical


def _maps_check(inp, result):
    k = inp[0]
    alpha, injective, fam, fam_alpha, residual, slope, empirical = result
    failures = []
    if not injective:
        failures.append("smooth stretching fails injectivity_check")
    trace_gap = abs(np.trace(stretching.monodromy(k, alpha)) - 2.0)
    if not trace_gap < MONODROMY_TOL:
        failures.append(f"|tr monodromy - 2| = {trace_gap:.3g}")
    if not abs(fam_alpha - fam.alpha) < 1e-9:
        failures.append(f"family alpha {fam_alpha!r} != d/c {fam.alpha!r}")
    if not residual < 1e-8:
        failures.append(f"equation residual {residual:.3g}")
    if slope is None or not slope >= 1.0:
        failures.append(f"weak-form slope {slope!r}")
    if not abs(empirical - fam.alpha) <= 0.01:
        failures.append(f"empirical exponent {empirical!r} vs {fam.alpha!r}")
    return failures, {"exponent": alpha, "circles": 0}


# Why each workload exists is recorded in BENCHMARK.json.  Every run finishes
# at least min_jobs jobs (about 15-20 s of them), which fixes the tail
# percentile (run.tail_pct); the traced run times exactly that many twice.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("origin-corpus", min_jobs=40, pool=112, make_inputs=_origin_inputs,
                 run=_origin_run, check=_origin_check),
        Workload("lattice-cli", min_jobs=28, pool=56, make_inputs=_lattice_inputs,
                 run=_lattice_run, check=_lattice_check),
        Workload("maps", min_jobs=28, pool=56, make_inputs=_maps_inputs,
                 run=_maps_run, check=_maps_check),
    )
}

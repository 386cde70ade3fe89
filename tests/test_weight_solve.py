"""The convex weight solve against the coordinate descent it replaced.

The reference below is the randomised multistart coordinate descent in
log-weights that the estimator used before the epigraph solve.  On a fixed
corpus (criterion 6's generator plus two disk-lattice sweeps, whose
off-centre circles carry smooth restrictions) the solve must never return a
larger per-circle value, and its epigraph must be tight at the weights it
returns.
"""

import math

import numpy as np
import pytest
from test_acceptance import random_angular_pair

from beltbound.estimator import (
    SweepConfig,
    _arc_reduce,
    _arc_value,
    _beta_fields,
    _solve_weights,
)
from beltbound.periodic_fields import PIECEWISE, SMOOTH


def descend(data, rng, multistarts=8, sweeps=40):
    """Coordinate descent in log-weights, multiplicative steps, multistarts."""
    n = data.arc_lefts.size
    best_val = math.inf
    best_x = np.zeros(2 * n)

    def value_of(x):
        return _arc_value(data, np.exp(x[:n]), np.exp(x[n:]))

    starts = [np.zeros(2 * n)]
    for _ in range(max(0, multistarts - 1)):
        starts.append(rng.normal(0.0, 0.35, 2 * n))
    for x in starts:
        x = x.copy()
        v = value_of(x)
        step = 0.7
        for _ in range(sweeps):
            improved = False
            for i in range(2 * n):
                for sgn in (1.0, -1.0):
                    x[i] += sgn * step
                    trial = value_of(x)
                    if trial < v:
                        v = trial
                        improved = True
                        break
                    x[i] -= sgn * step
            if not improved:
                step *= 0.5
                if step < 1e-7:
                    break
        if v < best_val:
            best_val, best_x = v, x
    return best_val, np.exp(best_x[:n]), np.exp(best_x[n:])


def _reduced_circles(pair, cfg):
    return [_arc_reduce(c, *_beta_fields(pair, c, cfg)) for c in cfg.circles]


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(6)  # criterion 6's stream
    origin = SweepConfig.origin(resolution=256, weight_pieces=8)
    circles = []
    for _ in range(16):
        circles += _reduced_circles(random_angular_pair(rng), origin)
    lattice = SweepConfig.disk_lattice(radius_count=1, resolution=256, weight_pieces=4)
    for seed in (1, 2):
        pair = random_angular_pair(np.random.default_rng(seed), node_count=256)
        circles += _reduced_circles(pair, lattice)
    kinds = {d.integrand.kind for d in circles}
    assert kinds == {PIECEWISE, SMOOTH}
    return [(d, _solve_weights(d)) for d in circles]


def test_solve_never_looser_than_descent(corpus):
    for idx, (data, (value, phi, psi, *_)) in enumerate(corpus):
        reference, _, _ = descend(data, np.random.default_rng(1009 * idx))
        assert value <= reference * (1.0 + 1e-12), (idx, value, reference)
        # the reported value is the exact objective of the returned weights
        assert value == _arc_value(data, phi, psi)


def test_epigraph_tight_at_returned_weights(corpus):
    for idx, (_, (_, _, _, evals, status, residual)) in enumerate(corpus):
        assert residual < 1e-8, (idx, residual)
        assert isinstance(status, int)
        assert evals >= 1

"""Rigorous-style Holder exponent lower bounds for planar Beltrami equations
with two coefficients, plus the piecewise angular stretchings that attain
them.

The pieces, in dependency order: periodic_fields (angular sampling),
stretching (profile systems, exponent shooting, distortion), reduction
(first-order pairs <-> divergence-form matrices), sharp_family (the two-arc
extremal construction), estimator (weighted circle functionals and exponent
bounds), verify (independent residual and exponent checks), cli (front end).

The package namespace holds the functions of the README example and the
types they take or return; everything else is imported from its module.
"""

from .estimator import ExponentReport, SweepConfig, beta_estimate
from .periodic_fields import CircleSpec
from .reduction import BeltramiPair
from .sharp_family import SharpFamily, build_family, build_maps
from .stretching import AngularStretching
from .verify import PolarGrid, ResidualReport, beltrami_residual, empirical_holder

__version__ = "0.1.0"

__all__ = [
    "AngularStretching",
    "BeltramiPair",
    "CircleSpec",
    "ExponentReport",
    "PolarGrid",
    "ResidualReport",
    "SharpFamily",
    "SweepConfig",
    "beltrami_residual",
    "beta_estimate",
    "build_family",
    "build_maps",
    "empirical_holder",
]

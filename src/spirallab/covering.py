"""Covered-disk estimation: the derivative-weighted region Omega_alpha, polar
grid sweeps of its complement, and pass/fail reports against the predicted
covering radii."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .families import NoConvergence, UnivalentMap
from .families import invert_map  # noqa: F401  verdictbench/tracing.py wraps this name

GRID = (400, 400)  # the covering checks' polar grid (nr, nt)


@dataclass(frozen=True)
class OmegaSpec:
    """Region {x : alpha delta0 < |h'(x)| (1-|x|^2)}, delta0 = |h'(x0)| (1-|x0|^2)
    the conformal radius at x0, read from the map's real-arithmetic
    abs_deriv_array, as the sweep reads |h'(x)|."""

    x0: complex
    alpha: float
    delta0: float
    threshold: float

    @classmethod
    def build(cls, h, x0, alpha):
        x0 = complex(x0)
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if abs(x0) >= 1.0:
            raise ValueError("|x0| must be < 1")
        d0 = float(h.abs_deriv_array(np.asarray([x0]))[0]) * (1.0 - abs(x0) ** 2)
        return cls(x0=x0, alpha=float(alpha), delta0=d0, threshold=float(alpha * d0))


def grid_tolerance(predicted):
    return 5e-3 * predicted + 1e-6


def _min_distance(h, threshold, center, grid):
    if isinstance(h, UnivalentMap):
        return kernels.covered_min_distance(
            h.family, h.params, h.num, h.den, threshold, center, *grid)
    return kernels.min_distance(h.eval_array, h.abs_deriv_array, None, threshold, center, *grid)


def _verdict(h, x0, alpha, beta, grid):
    """The one covering check, as its report dict: h(Omega_alpha) covers radius
    (|beta| - alpha)/(4|beta|) delta(x1) around beta h(x0) = h(x1), delta(x) =
    |h'(x)|(1 - |x|^2), on a polar-grid sweep; beta = 1 is the plain check (x1
    = x0, no solve), else (|beta| - alpha)/4 delta(x0) must not exceed it.  An
    x1 outside Omega_alpha measures radius 0.0."""
    spec = OmegaSpec.build(h, x0, alpha)
    x0, d0 = spec.x0, spec.delta0
    center = h.eval(x0)
    if beta == 1:
        d1, secondary = d0, None
    else:
        center = beta * center
        d1 = float(h.preimage_radius_array([center], guess=x0)[1][0])
        if np.isnan(d1):
            raise NoConvergence(f"no preimage in the disk for w = {center}")
        secondary = (abs(beta) - alpha) / 4.0 * d0
    predicted = (abs(beta) - alpha) / (4.0 * abs(beta)) * d1
    chain_ok = secondary is None or predicted >= secondary - 1e-12
    best, witness, bmin, n_out = _min_distance(h, spec.threshold, center, grid)
    # x1 in K: the centre is outside h(Omega_alpha), which the edge sweep cannot see
    measured = 0.0 if d1 <= spec.threshold else min(best, bmin)
    tol = grid_tolerance(predicted)
    rep = {
        "predicted_radius": predicted,
        "measured_radius_lower": measured,
        "center": [center.real, center.imag],
        "pass": bool(chain_ok and measured >= predicted - tol),
        "grid": list(grid),
        "min_witness": [witness.real, witness.imag],
        "tolerance": tol,
        "secondary_radius": secondary,
        "complement_points": n_out,
    }
    if not chain_ok:
        rep["reason"] = "radius_chain_violated"
    return rep


def verify_covering_bound(h, x0, alpha, grid=GRID):
    """Check: h(Omega_alpha) covers radius (1-alpha)/4 |h'(x0)|(1-|x0|^2)
    around h(x0): the shifted check at beta = 1, where x1 = x0."""
    return _verdict(h, x0, alpha, 1.0, grid)


def verify_shifted_covering_bound(h, x0, alpha, beta, grid=GRID):
    """Check the shifted-center covering radius at beta*h(x0) plus the
    secondary lower bound it dominates.  When the predicted radius falls below
    the secondary bound the chain of bounds is not proved for this map (a
    complex beta, or a map that is not starlike): the sweep still runs and the
    report fails with reason "radius_chain_violated".  A centre with no
    preimage in the disk raises NoConvergence."""
    beta = complex(beta)
    if not 0.0 < alpha < abs(beta) < 1.0:
        raise ValueError("need 0 < alpha < |beta| < 1")
    return _verdict(h, x0, alpha, beta, grid)


def omega_region_points(h, spec: OmegaSpec, grid):
    """(x, in_omega) samples on the covering sweep's polar grid of grid = (nr, nt)
    points, for plotting and CSV dumps."""
    radii, ring = kernels.polar_grid(*grid)
    crit = kernels.criterion(h.abs_deriv_array, radii, ring)
    return (radii[:, None] * ring).ravel(), crit.ravel() > spec.threshold

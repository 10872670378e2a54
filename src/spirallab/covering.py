"""Covered-disk estimation: the derivative-weighted region Omega_alpha, polar
grid sweeps of its complement, and pass/fail reports against the predicted
covering radii."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .families import UnivalentMap, invert_map

BOUNDARY_EPS = 1e-3


@dataclass(frozen=True)
class OmegaSpec:
    """Region {x : alpha |h'(x0)| (1-|x0|^2) < |h'(x)| (1-|x|^2)}."""

    x0: complex
    alpha: float
    threshold: float

    @classmethod
    def build(cls, h, x0, alpha):
        x0 = complex(x0)
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if abs(x0) >= 1.0:
            raise ValueError("|x0| must be < 1")
        thr = alpha * abs(h.deriv(x0)) * (1.0 - abs(x0) ** 2)
        return cls(x0=x0, alpha=float(alpha), threshold=float(thr))


@dataclass
class CoveringReport:
    predicted_radius: float
    measured_radius_lower: float
    center: complex
    passed: bool
    grid: tuple
    min_witness: complex
    tolerance: float
    secondary_radius: float | None = None
    complement_points: int = 0
    reason: str | None = None

    def to_dict(self):
        out = {
            "predicted_radius": self.predicted_radius,
            "measured_radius_lower": self.measured_radius_lower,
            "center": [self.center.real, self.center.imag],
            "pass": self.passed,
            "grid": list(self.grid),
            "min_witness": [self.min_witness.real, self.min_witness.imag],
            "tolerance": self.tolerance,
            "secondary_radius": self.secondary_radius,
            "complement_points": self.complement_points,
        }
        if self.reason is not None:
            out["reason"] = self.reason
        return out


def grid_tolerance(predicted):
    return 5e-3 * predicted + 1e-6


def _min_distance(h, threshold, center, grid):
    if isinstance(h, UnivalentMap):
        return kernels.covered_min_distance(
            h.code, h.params, h.num or None, h.den or None,
            threshold, center, *grid, BOUNDARY_EPS)
    return kernels.min_distance(h.eval_array, h.abs_deriv_array, None,
                                threshold, center, *grid, BOUNDARY_EPS)


def _verdict(h, spec, center, predicted, grid, secondary):
    """Sweep h of the complement of Omega_alpha against the disk of radius
    predicted around center; a secondary bound (or None) must not exceed it."""
    chain_ok = secondary is None or predicted >= secondary - 1e-12
    best, witness, bmin, n_out = _min_distance(h, spec.threshold, center, grid)
    measured = min(best, bmin)
    tol = grid_tolerance(predicted)
    return CoveringReport(
        predicted_radius=predicted,
        measured_radius_lower=measured,
        center=center,
        passed=chain_ok and measured >= predicted - tol,
        grid=tuple(grid),
        min_witness=witness if n_out else complex(np.nan, np.nan),
        tolerance=tol,
        secondary_radius=secondary,
        complement_points=n_out,
        reason=None if chain_ok else "radius_chain_violated",
    )


def verify_covering_bound(h, x0, alpha, grid=(400, 400)):
    """Check: h(Omega_alpha) covers radius (1-alpha)/4 |h'(x0)|(1-|x0|^2)
    around h(x0)."""
    spec = OmegaSpec.build(h, x0, alpha)
    predicted = (1.0 - alpha) / 4.0 * abs(h.deriv(spec.x0)) * (1.0 - abs(spec.x0) ** 2)
    return _verdict(h, spec, h.eval(spec.x0), predicted, grid, None)


def verify_shifted_covering_bound(h, x0, alpha, beta, grid=(400, 400)):
    """Check the shifted-center covering radius at beta*h(x0) plus the
    secondary lower bound it dominates.  When the predicted radius falls below
    the secondary bound the chain of bounds is not proved for this map (a
    complex beta, or a map that is not starlike): the sweep still runs and the
    report fails with reason "radius_chain_violated"."""
    beta = complex(beta)
    if not 0.0 < alpha < abs(beta) < 1.0:
        raise ValueError("need 0 < alpha < |beta| < 1")
    spec = OmegaSpec.build(h, x0, alpha)
    x0 = spec.x0
    center = beta * h.eval(x0)
    x1 = invert_map(h, center, guess=x0)
    d1 = abs(h.deriv(x1)) * (1.0 - abs(x1) ** 2)
    predicted = (abs(beta) - alpha) / (4.0 * abs(beta)) * d1
    secondary = (abs(beta) - alpha) / 4.0 * abs(h.deriv(x0)) * (1.0 - abs(x0) ** 2)
    return _verdict(h, spec, center, predicted, grid, secondary)


def omega_region_points(h, spec: OmegaSpec, grid):
    """(x, in_omega) samples on the covering sweep's polar grid of grid = (nr, nt)
    points, for plotting and CSV dumps."""
    radii, ring = kernels.polar_grid(*grid)
    x = radii[:, None] * ring
    crit = np.concatenate([h.abs_deriv_array(x[rows]) * (1.0 - r * r)
                           for rows, r in kernels.ring_blocks(radii, ring)], axis=None)
    return x.ravel(), crit > spec.threshold

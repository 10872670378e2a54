"""Disk primitives: built-in univalent families, disk automorphisms, a disk
map normalized at a point by composing it with one, branch-tracked powers
h'(x)^(1/r) and Newton inversion.

A "disk map" anywhere in this package is an instance of a class decorated
with disk_map.  The class defines eval_array and deriv_array on ndarrays and
may define deriv2_array, log_deriv_array, invert_array (the preimages of w in
the open disk, NaN where there are none), abs_deriv_array,
preimage_radius_array (the pair (x, delta) of x = h^-1(w) and the conformal
radius delta = |h'(x)|(1 - |x|^2) there, both NaN where w has no preimage; x
None where delta is read from w alone), conformal_radius_array (delta),
conformal_radius_form (the triple (a, b, g) where delta is
a + 2 Re(b w) + g |w|^2 in w) and spiral_multiplier; disk_map writes the
rest, so every disk map has all of them, plus invert and the scalar twin of each array method, which
refuses a point outside the disk.  Callers do not write into the arrays these methods
return: a map may hand out a shared, read-only array (KoenigsMap.log_deriv_array
does).  UnivalentMap covers the closed-form families, ComposedMap a disk map
composed with a disk automorphism and renormalized, and semigroups.KoenigsMap
the Koenigs functions of generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np
from numpy.polynomial import polynomial as P

from . import kernels

FAMILIES = ("identity", "koebe", "mobius_spiral", "spiral_koebe", "half_plane", "rational")


class PointOutsideDisk(ValueError):
    pass


class NoConvergence(RuntimeError):
    pass


class BranchTrackingError(RuntimeError):
    pass


def _require_in_disk(z):
    if abs(z) >= 1.0:
        raise PointOutsideDisk(f"|z| = {abs(z)} >= 1")


def _as_points(z):
    return np.atleast_1d(np.asarray(z, dtype=complex))


def _scalar_twin(name):
    def twin(self, z):
        _require_in_disk(z)
        return complex(getattr(self, f"{name}_array")(np.asarray([z], dtype=complex))[0])

    twin.__name__ = name
    return twin


def _invert(self, w, guess=0j):
    return invert_map(self, w, guess=guess)


def _newton_invert_array(self, w, guess=0j):
    return newton_invert(self, w, guess=guess)


def _abs_deriv_array(self, z):
    return np.abs(self.deriv_array(z))


def preimage_radius(h, w, guess=0j):
    """(x, delta) at the points w: the preimages x = h^-1(w) from
    h.invert_array started at guess, and the conformal radius
    |h'(x)|(1 - |x|^2) there, both NaN where w has no preimage in the disk:
    disk_map's preimage_radius_array, and its conformal_radius_array is
    delta."""
    x = h.invert_array(w, guess=guess)
    ok = ~np.isnan(x)
    x0 = np.where(ok, x, 0j)
    return x, np.where(ok, h.abs_deriv_array(x0) * (1.0 - np.abs(x0) ** 2), np.nan)


def _conformal_radius_array(self, w, guess=0j):
    return preimage_radius(self, w, guess)[1]


def _continued_log_deriv_array(self, z):
    return continued_log_deriv(self, z)


def disk_map(cls):
    """The one writer of the members disk maps share, on cls itself (not a base
    class: verdictbench/tracing.py wraps them in each class's own __dict__):
    where cls defines none, log_deriv_array (continued_log_deriv),
    invert_array (damped Newton), abs_deriv_array, preimage_radius_array
    (preimage_radius), conformal_radius_array (its radius, from invert_array
    and abs_deriv_array), conformal_radius_form (None) and
    spiral_multiplier (None); then
    invert and the scalar twin of each of eval_array, deriv_array,
    deriv2_array and log_deriv_array."""
    own = vars(cls)
    for name, value in (("log_deriv_array", _continued_log_deriv_array),
                        ("invert_array", _newton_invert_array),
                        ("abs_deriv_array", _abs_deriv_array),
                        ("preimage_radius_array", preimage_radius),
                        ("conformal_radius_array", _conformal_radius_array),
                        ("conformal_radius_form", None),
                        ("spiral_multiplier", None)):
        if name not in own:
            setattr(cls, name, value)
    for name in ("eval", "deriv", "deriv2", "log_deriv"):
        if f"{name}_array" in own:
            setattr(cls, name, _scalar_twin(name))
    cls.invert = _invert
    return cls


@disk_map
@dataclass(frozen=True)
class UnivalentMap:
    """A univalent map of the unit disk from one of the built-in families."""

    family: str
    params: tuple = ()
    num: tuple = ()
    den: tuple = ()
    spiral_multiplier: complex | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "mobius_spiral" and abs(self.params[0]) >= 1.0:
            raise ValueError("mobius_spiral needs |c| < 1 (pole outside the closed disk)")

    # -- constructors -----------------------------------------------------

    @classmethod
    def identity(cls):
        return cls("identity", spiral_multiplier=1.0)

    @classmethod
    def koebe(cls):
        return cls("koebe", spiral_multiplier=1.0)

    @classmethod
    def mobius_spiral(cls, c):
        # starlike for every |c| < 1; mu-spirallike whenever |c| < Re mu/|mu|
        return cls("mobius_spiral", params=(complex(c),), spiral_multiplier=1.0)

    @classmethod
    def spiral_koebe(cls, theta):
        # e^(-i theta)-spirallike: its image is the plane minus a spiral slit.  The
        # map has period pi in theta, so theta is reduced into [-pi/2, pi/2] first
        # (exactly), where the multiplier has Re >= 0
        theta = math.remainder(theta, math.pi)
        p = 2.0 * np.exp(-1j * theta) * np.cos(theta)
        return cls("spiral_koebe", params=(p, p - 1.0),
                   spiral_multiplier=complex(np.exp(-1j * theta)))

    @classmethod
    def half_plane(cls):
        return cls("half_plane")

    @classmethod
    def rational(cls, num, den):
        num, den = (tuple(map(complex, c)) for c in (num, den))
        if not any(den):
            raise ValueError("zero denominator polynomial")
        w = kernels._rational(num, den)[3]
        # a pole or a zero of h' = W/D^2 on the circle is allowed, as Koebe's
        for c, what in ((den, "denominator has a root inside the disk, a pole"),
                        (w, "h' vanishes inside the disk")):
            if roots_inside(c):
                raise ValueError(f"{what}, at {roots_inside(c)[0]}")
        if not any(w):
            raise ValueError("h' vanishes identically")
        return cls("rational", num=num, den=den)

    # -- evaluation --------------------------------------------------------

    def _k(self, fn, z):
        return fn(self.family, self.params, self.num, self.den, _as_points(z))

    def eval_array(self, z):
        return self._k(kernels.eval_map, z)

    def deriv_array(self, z):
        return self._k(kernels.eval_deriv, z)

    def deriv2_array(self, z):
        return self._k(kernels.eval_deriv2, z)

    def abs_deriv_array(self, z):
        return self._k(kernels.abs_deriv, z)

    def log_deriv_array(self, z):
        """Continuous log of h' anchored at 0 with the principal value there."""
        if self.family == "rational":
            return continued_log_deriv(self, _as_points(z))
        return self._k(kernels.log_deriv, z)

    def invert_array(self, w, guess=0j):
        """Preimages of the points w in the open disk, NaN where there is none
        (``kernels.invert``)."""
        return kernels.invert(self.family, self.params, self.num, self.den, w, guess,
                              self.spiral_multiplier)

    def preimage_radius_array(self, w, guess=0j):
        """``preimage_radius``, but for the Mobius and half-plane maps
        (None, ``kernels.conformal_radius``): the radius from w alone, and no
        preimage solved."""
        d = kernels.conformal_radius(self.family, self.params, w)
        return preimage_radius(self, w, guess) if d is None else (None, d)

    def conformal_radius_array(self, w, guess=0j):
        """|h'(x)|(1 - |x|^2) at the preimages x of the points w, NaN where
        there is none, from preimage_radius_array."""
        return self.preimage_radius_array(w, guess)[1]

    @property
    def conformal_radius_form(self):
        """``kernels.conformal_radius_form``: (a, b, g) for the Mobius and
        half-plane maps, None for the others."""
        return kernels.conformal_radius_form(self.family, self.params)

    # -- serialization ---------------------------------------------------------

    @classmethod
    def from_spec(cls, spec):
        fam = spec.get("family")
        if fam == "identity":
            return cls.identity()
        if fam == "koebe":
            return cls.koebe()
        if fam == "mobius_spiral":
            return cls.mobius_spiral(_c(spec["c"]))
        if fam == "spiral_koebe":
            return cls.spiral_koebe(float(spec["theta"]))
        if fam == "half_plane":
            return cls.half_plane()
        if fam == "rational":
            return cls.rational([_c(v) for v in spec["num"]], [_c(v) for v in spec["den"]])
        raise ValueError(f"unknown family in spec: {fam!r}")


@lru_cache(maxsize=64)
def roots_inside(c):
    """The roots of the ascending coefficients c (a tuple) inside the open disk
    by more than their own error, solved once per c.  The eigenvalue solve is
    backward stable: a computed root r is a root of coefficients within
    K eps |c_k| of c, K a small multiple of the degree (Edelman and Murakami,
    1995); K = 1e3 also covers Horner's rounding of p(r).  So |p(r)| <=
    e = K eps sum |c_k| |r|^k, and an m-fold root lies within
    (m! e / |p^(m)(r)|)^(1/m) of r (Wilkinson's bound at m = 1): r's error is
    the least over m, as p'(r) = 0 at an exactly computed double root."""
    roots = P.polyroots(c)
    size, err = np.abs(roots), np.inf
    e = 1e3 * np.finfo(float).eps * P.polyval(size, np.abs(c))
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0: no bound at this m
        for m in range(1, len(c)):
            dm = np.abs(P.polyval(roots, P.polyder(c, m)))
            err = np.fmin(err, (math.factorial(m) * e / dm) ** (1.0 / m))
    return tuple(roots[size + err < 1.0])


def _c(v):
    """A spec's complex value: a real number or a list [re, im] of two."""
    parts = v if isinstance(v, (list, tuple)) and len(v) == 2 else [v, 0.0]
    if not all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in parts):
        raise ValueError(f"expected a real number or [re, im], got {v!r}")
    return complex(*parts)


def disk_automorphism(x0, z):
    """The involution (x0 - z) / (1 - conj(x0) z); swaps x0 and 0."""
    _require_in_disk(x0)
    if np.ndim(z) == 0:
        _require_in_disk(z)
    return (x0 - z) / (1.0 - np.conj(x0) * z)


def disk_automorphism_deriv(x0, z, k=1):
    """k-th derivative (k = 1, 2, 3) of the involution disk_automorphism(x0, z)."""
    c = np.conj(x0)
    d = abs(x0) ** 2 - 1.0
    if k > 1:
        d = math.factorial(k) * c ** (k - 1) * d
    return d / (1.0 - c * z) ** (k + 1)


@disk_map
class ComposedMap:
    """g(z) = (h0(phi(z)) - shift) / scale for a disk map h0 and phi the disk
    automorphism based at a; normalize_at builds it with g(0) = 0 and
    g'(0) = 1."""

    def __init__(self, h0, a, shift, scale):
        self.h0 = h0
        self.a = complex(a)
        self.shift = complex(shift)
        self.scale = complex(scale)
        # log g'(0) - log h0'(a), the constant that puts log g' at its principal
        # value at 0
        self._log_c = np.log(self.deriv(0j)) - h0.log_deriv(self.a)

    def _phi(self, z):
        return disk_automorphism(self.a, z)

    def eval_array(self, z):
        return (self.h0.eval_array(self._phi(_as_points(z))) - self.shift) / self.scale

    def deriv_array(self, z):
        z = _as_points(z)
        return self.h0.deriv_array(self._phi(z)) * disk_automorphism_deriv(self.a, z) / self.scale

    def deriv2_array(self, z):
        z = _as_points(z)
        w = self._phi(z)
        return (self.h0.deriv2_array(w) * disk_automorphism_deriv(self.a, z) ** 2
                + self.h0.deriv_array(w) * disk_automorphism_deriv(self.a, z, 2)) / self.scale

    def log_deriv_array(self, z):
        # log h0'(phi(z)) - 2 log(1 - conj(a) z) + const; Re(1 - conj(a) z) > 0
        # on the disk, so the principal log of that factor is continuous there
        z = _as_points(z)
        return (self.h0.log_deriv_array(self._phi(z))
                - 2.0 * np.log(1.0 - np.conj(self.a) * z) + self._log_c)

    def invert_array(self, w, guess=0j):
        """g^-1(w) = phi(h0^-1(shift + scale w)) through the base map's own
        inverse, started at phi(guess); NaN where that inverse finds none."""
        w = np.asarray(w, dtype=complex)
        x = self.h0.invert_array(self.shift + self.scale * w, guess=self._phi(guess))
        with np.errstate(invalid="ignore"):  # a NaN preimage stays NaN
            return self._phi(x)


def normalize_at(h, x0):
    """h normalized at x0: g(z) = (h(phi(z)) - h(x0)) / (h'(x0) (|x0|^2 - 1)),
    phi the disk automorphism based at x0, so g(0) = 0 and g'(0) = 1."""
    x0 = complex(x0)
    d = h.deriv(x0)  # not 0: every disk map is univalent
    return ComposedMap(h, x0, h.eval(x0), d * (abs(x0) ** 2 - 1.0))


_PATH_BLOCK = 1 << 18  # path nodes per h'-evaluation, bounds the temporaries
_PATH_STEPS, _PATH_MAX_STEPS = 64, 65536  # steps per segment: first, most


def continued_log_deriv(h, x):
    """log h'(x) continued along the segment from 0, where it takes its
    principal value, for one point or an ndarray of points.

    Each point's steps double until every per-step log increment on its
    segment is well inside the principal strip.
    """
    x = np.asarray(x, dtype=complex)
    flat = x.ravel()
    out = np.empty_like(flat)
    todo = np.arange(flat.size)
    steps = _PATH_STEPS
    while todo.size and steps <= _PATH_MAX_STEPS:
        left = []
        rows = max(1, _PATH_BLOCK // steps)
        t = np.linspace(0.0, 1.0, steps + 1)
        for idx in np.split(todo, np.arange(rows, todo.size, rows)):
            d = h.deriv_array(t * flat[idx, None])
            inc = np.log(d[:, 1:] / d[:, :-1])
            ok = np.max(np.abs(inc.imag), axis=1) < np.pi / 2
            out[idx[ok]] = np.log(d[ok, 0]) + inc[ok].sum(axis=1)
            left.append(idx[~ok])
        todo = np.concatenate(left)
        steps *= 2
    if todo.size:
        raise BranchTrackingError("h' winds too fast for the path resolution")
    return out.reshape(x.shape) if x.ndim else complex(out[0])


@dataclass(frozen=True)
class BranchedPower:
    """Branch-consistent h'(x)^(1/r) for real r >= 1, from the map's log h',
    continued from its principal value at 0."""

    map: object
    r: float

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("root order must be >= 1")

    def __call__(self, x):
        return complex(self.array(np.asarray([x], dtype=complex))[0])

    def array(self, x):
        return np.exp(self.map.log_deriv_array(x) / self.r)


def newton_invert(h, w, guess=0j):
    """Preimages of w in the open disk for a generic disk map, NaN where there
    is none: ``kernels.preimages`` with the spiral continuation where h has a
    spiral_multiplier."""
    return kernels.preimages(h.eval_array, h.deriv_array, w, guess, h.spiral_multiplier)


def invert_map(h, w, guess=0j):
    """Front door for inverting one point through h.invert_array; raises
    NoConvergence when w has no preimage in the disk (the solve fails or w lies
    outside the image)."""
    z = complex(h.invert_array(np.asarray([w], dtype=complex), guess=guess)[0])
    if np.isnan(z):
        raise NoConvergence(f"no preimage in the disk for w = {w}")
    return z

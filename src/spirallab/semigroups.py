"""One-parameter semigroups on the disk: generator oracles, flow integration,
Koenigs functions via the linearization ODE h' f = mu h, and spirallikeness
margins."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as P

from . import families, kernels, ode
from .families import _as_points, _c
# verdictbench/tracing.py wraps the methods of families.ComposedMap under this name
from .families import ComposedMap as _ConjugatedMap  # noqa: F401


class InvalidGenerator(ValueError):
    pass


class UnresolvedSingularity(RuntimeError):
    pass


def _divided(c, tau):
    """Coefficients of the polynomial c divided by z - tau, remainder dropped."""
    return tuple(map(complex, P.polydiv(c, [-tau, 1.0])[0]))


@dataclass
class Generator:
    """Polynomial infinitesimal generator f on the disk, from its ascending
    coefficients.

    kind is 'dilation' (Denjoy-Wolff point tau inside) or 'hyperbolic' (tau
    on the boundary, mu real > 0); either way f(tau) = 0 and mu = f'(tau),
    the angular derivative at a boundary tau.  The zero at tau is divided out
    once, by synthetic division: g = f/(z - tau), u = (mu - f')/(z - tau) and
    v = (mu - g)/(z - tau) are polynomials, since g(tau) = f'(tau) = mu.
    """

    coeffs: tuple
    kind: str
    tau: complex
    mu: complex | None = None

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=complex))
        d1 = P.polyder(c)
        self.coeffs, self._df = tuple(map(complex, c)), tuple(map(complex, d1))
        self.tau = complex(self.tau)
        self.mu = complex(self.df(self.tau) if self.mu is None else self.mu)
        if self.kind not in ("dilation", "hyperbolic"):
            raise InvalidGenerator(f"unknown kind {self.kind!r}")
        if self.kind == "dilation":
            if abs(self.tau) >= 1:
                raise InvalidGenerator("dilation type needs |tau| < 1")
            if self.mu.real <= 0:
                raise InvalidGenerator("dilation type needs Re mu > 0")
        else:
            if abs(abs(self.tau) - 1.0) > 1e-12:
                raise InvalidGenerator("hyperbolic type needs |tau| = 1")
            if not (self.mu.imag == 0 and self.mu.real > 0):
                raise InvalidGenerator("hyperbolic type needs real mu > 0")
        if abs(self.f(self.tau)) > 1e-10:
            raise InvalidGenerator("f(tau) != 0")
        if abs(self.mu - self.df(self.tau)) > 1e-10 * max(1.0, abs(self.mu)):
            raise InvalidGenerator(f"mu = {self.mu} is not f'(tau) = {self.df(self.tau)}")
        self._g = _divided(c, self.tau)
        self._u = _divided(P.polysub([self.mu], d1), self.tau)
        self._v = _divided(P.polysub([self.mu], self._g), self.tau)

    def f(self, z):
        return kernels.horner(self.coeffs, z)

    def df(self, z):
        return kernels.horner(self._df, z)

    def g(self, z):
        return kernels.horner(self._g, z)

    def u(self, z):
        return kernels.horner(self._u, z)

    def v(self, z):
        return kernels.horner(self._v, z)

    def quotient(self, z):
        """(mu - f')/f = u/g, which is -f''(tau)/mu at tau; raises
        UnresolvedSingularity where g vanishes, a zero of f away from tau."""
        gz = self.g(z)
        # np.fmin skips NaN points
        if np.fmin.reduce(np.abs(gz), None, initial=np.inf) < 1e-12:
            at = np.asarray(z)[np.abs(gz) < 1e-12].ravel()[0]
            raise UnresolvedSingularity(f"f vanishes at {at} away from the Denjoy-Wolff point")
        return self.u(z) / gz

    @classmethod
    def from_spec(cls, spec):
        coeffs = [_c(v) for v in spec["poly"]]
        tau = _c(spec.get("tau", 0))
        mu = _c(spec["mu"]) if "mu" in spec else None
        return cls(coeffs, spec.get("kind", "dilation"), tau, mu)


def disk_grid():
    """The margins' sample grid: 40 radii up to 1 - 1e-3 by 64 angles."""
    r_max = 1.0 - 1e-3
    r = np.linspace(r_max / 40, r_max, 40)
    t = 2.0 * np.pi * np.arange(64) / 64
    return (r[:, None] * np.exp(1j * t[None, :])).ravel()


def berkson_porta_margin(gen: Generator):
    """min over the disk grid of Re p(z) for f(z) = (z-tau)(1-conj(tau) z) p(z).

    f is accepted as a generator when the margin is >= -1e-9."""
    z = disk_grid()
    return float(np.min((gen.g(z) / (1.0 - np.conj(gen.tau) * z)).real))


@dataclass
class FlowResult:
    endpoint: complex | np.ndarray
    steps: int
    local_error_estimate: float


def flow(gen: Generator, z0, t):
    """Endpoint of dz/dt = -f(z) over [0, t] from z0, a point or an array of
    points integrated together (the system is elementwise autonomous)."""
    z0 = np.asarray(z0, dtype=complex)
    if np.any(np.abs(z0) >= 1):
        raise families.PointOutsideDisk(f"|z0| = {np.max(np.abs(z0))} >= 1")
    y, steps, err = ode.integrate(
        lambda y: -gen.f(y), z0.ravel(), t,
        domain=lambda y: np.all(np.abs(y) < 1.0),
    )
    end = complex(y[0]) if z0.ndim == 0 else y.reshape(z0.shape)
    return FlowResult(endpoint=end, steps=steps, local_error_estimate=err)


def flow_many(gen: Generator, z0s, t):
    """Endpoints of the flow from a whole sample batch at once."""
    return flow(gen, z0s, t).endpoint


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_BLOCK = 1 << 18  # quadrature nodes x points per block, bounds temporaries


@lru_cache(maxsize=64)
def _graded_rule(n_panels):
    """Composite 16-point Gauss-Legendre rule on s in [0, 1] whose panels
    [0, 1/2], [1/2, 3/4], ... halve toward s = 1 (Trefethen, SIAM Rev. 2008)."""
    edges = np.append(1.0 - 0.5 ** np.arange(n_panels), 1.0)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    s, w = (mid + half * _GL_NODES).ravel(), (half * _GL_WEIGHTS).ravel()
    s.flags.writeable = w.flags.writeable = False
    return s, w


def _panel_count(rho):
    """Panels needed for rays to points with |z| <= rho: the last panel is no
    wider than 1 - rho, so every panel is at most as wide as its distance to
    the circle, beyond which the integrands have their poles."""
    if not rho < 1.0:
        raise families.PointOutsideDisk(f"|z| = {rho} >= 1")
    return max(4, int(np.ceil(np.log2(1.0 / (1.0 - rho)))) + 1)


@families.disk_map
class KoenigsMap:
    """Univalent solution of h'(z) f(z) = mu h(z), built by quadrature along
    paths for the generator's divided polynomials g, u and v.

    Dilation type: h(tau) = 0, with h'(0) = 1 for tau = 0, else h'(tau) =
    1/(|tau|^2 - 1), the derivative of h0 o phi for h0 normalized at 0 and phi
    the disk automorphism swapping tau and 0 (Elin-Shoikhet, Linearization
    Models for Complex Dynamical Systems, 2010).  log(h/(z - tau)) and log h'
    are log h'(tau) plus the integrals of v/g and u/g along the hyperbolic
    geodesic from tau to z, w = phi(s zeta) for zeta = phi(z) and s in [0, 1].
    Hyperbolic type: h(0) = 1, and log h and log h' integrate mu/f and u/g
    along the ray w = s z.  h'' = h' (mu - f')/f, the generator's quotient.

    Either path is a ray from 0 to zeta (zeta = z for the ray) in a variable
    in which the integrands' poles stay beyond the circle, so every point of
    a call is integrated at once with one graded Gauss-Legendre rule sized by
    the largest |zeta|, whose panels are no wider than their distance to the
    circle: its node count grows as log 1/(1 - |zeta|) for every tau.  The
    last point set's read-only logs are kept, so eval, log h' and h'' at the
    same points pay for one quadrature; log_deriv_array returns that shared,
    read-only array itself.
    """

    def __init__(self, gen: Generator):
        self.gen = gen
        self.mu = gen.mu
        self.kind = gen.kind
        self._memo = (None, None)
        if gen.kind == "hyperbolic":
            f0 = gen.f(np.asarray([0j]))[0]
            if f0 == 0:
                raise InvalidGenerator("hyperbolic generator with f(0) = 0")
            self._log_d0 = np.log(self.mu / f0)
        else:
            t2 = abs(gen.tau) ** 2
            self._log_d0 = np.log(complex(1.0 / (t2 - 1.0))) if t2 else 0j
        # the geodesic from 0 is the ray, phi being -z there
        self._ray = gen.kind == "hyperbolic" or gen.tau == 0

    def _logs(self, z):
        """(log h or log(h/(z - tau)), log h') at the points z, of z's shape."""
        z = _as_points(z)
        key = (z.shape, z.tobytes())
        last, logs = self._memo
        if last == key:
            return logs
        flat = z.ravel()
        zeta = flat if self._ray else families.disk_automorphism(self.gen.tau, flat)
        s, w = _graded_rule(_panel_count(float(np.max(np.abs(zeta), initial=0.0))))
        step = _BLOCK // s.size
        parts = [self._integrate(flat[i:i + step], zeta[i:i + step], s, w)
                 for i in range(0, max(flat.size, 1), step)]
        a, b = (np.concatenate(v).reshape(z.shape) for v in zip(*parts))
        if self.kind == "dilation":
            a = self._log_d0 + a
        b = self._log_d0 + b
        a.flags.writeable = b.flags.writeable = False
        self._memo = (key, (a, b))
        return a, b

    def _integrate(self, z, zeta, s, w):
        gen = self.gen
        ws, dw = s[:, None] * zeta, z
        if not self._ray:
            # ws = phi(s zeta) = (tau - s zeta)/q, dws/ds = phi'(s zeta) zeta
            q = 1.0 - np.conj(gen.tau) * ws
            ws, dw = (gen.tau - ws) / q, (abs(gen.tau) ** 2 - 1.0) * zeta / q**2
        gw = gen.g(ws)
        if np.any(gw == 0):
            raise InvalidGenerator("f vanishes inside the disk away from tau")
        log_d = dw * gen.u(ws) / gw
        if self.kind == "hyperbolic":
            return w @ (self.mu * z / gen.f(ws)), w @ log_d
        return w @ (dw * gen.v(ws) / gw), w @ log_d

    def eval_array(self, z):
        a, _ = self._logs(z)
        z = _as_points(z)
        return (z - self.gen.tau) * np.exp(a) if self.kind == "dilation" else np.exp(a)

    def log_deriv_array(self, z):
        return self._logs(z)[1]

    def deriv_array(self, z):
        return np.exp(self._logs(z)[1])

    def deriv2_array(self, z):
        z = _as_points(z)
        return self.deriv_array(z) * self.gen.quotient(z)


def koenigs(gen: Generator):
    """Solve h' f = mu h for the generator's Koenigs function."""
    margin = berkson_porta_margin(gen)
    if margin < -1e-9:
        raise InvalidGenerator(f"Berkson-Porta margin {margin} < 0")
    return KoenigsMap(gen)


def schroder_residual(h, gen: Generator, t, samples):
    """max |h(F_t(z)) - e^(-mu t) h(z)| over the samples, F_t the time-t flow."""
    samples = np.asarray(samples, dtype=complex)
    ends = flow_many(gen, samples, t)
    beta = np.exp(-gen.mu * t)
    lhs = h.eval_array(ends)
    rhs = beta * h.eval_array(samples)
    return float(np.max(np.abs(lhs - rhs)))


def spirallike_margin(h, mu):
    """min over the disk grid of Re( mu h(z) / (z h'(z)) ); value Re mu at z = 0.

    h is accepted as mu-spirallike (interior point case, h(0)=0) when the
    margin is >= -1e-9; Re mu <= 0, where the margin decides nothing, is refused."""
    mu = complex(mu)
    if mu.real <= 0:
        raise ValueError(f"spiral multiplier needs Re mu > 0, got {mu}")
    if abs(h.eval(0j)) > 1e-10:
        raise ValueError("interior-point criterion needs h(0) = 0")
    z = disk_grid()
    z = z[np.abs(z) > 1e-12]
    vals = mu * h.eval_array(z) / (z * h.deriv_array(z))
    return float(min(np.min(vals.real), mu.real))

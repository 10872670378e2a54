"""One-parameter semigroups on the disk: generator oracles, flow integration,
Koenigs functions via the linearization ODE h' f = mu h, and spirallikeness
margins."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
from numpy.polynomial import polynomial as P

from . import families, kernels, ode
from .families import _as_points, _c, disk_automorphism_deriv as _dphi
# verdictbench/tracing.py wraps the methods of the Koenigs maps under this name
from .families import ComposedMap as _ConjugatedMap  # noqa: F401


class InvalidGenerator(ValueError):
    pass


@dataclass
class Generator:
    """Infinitesimal generator f on the disk.

    kind is 'dilation' (Denjoy-Wolff point tau inside, mu = f'(tau)) or
    'hyperbolic' (tau on the boundary, mu the angular derivative, real > 0).
    """

    f: object  # f, f' and f'' accept ndarrays
    df: object
    d2f: object
    kind: str
    tau: complex
    mu: complex

    def __post_init__(self):
        self.tau = complex(self.tau)
        self.mu = complex(self.mu)
        if self.kind not in ("dilation", "hyperbolic"):
            raise InvalidGenerator(f"unknown kind {self.kind!r}")
        if self.kind == "dilation":
            if abs(self.tau) >= 1:
                raise InvalidGenerator("dilation type needs |tau| < 1")
            if abs(self.f(self.tau)) > 1e-10:
                raise InvalidGenerator("f(tau) != 0")
            if self.mu.real <= 0:
                raise InvalidGenerator("dilation type needs Re mu > 0")
        else:
            if abs(abs(self.tau) - 1.0) > 1e-12:
                raise InvalidGenerator("hyperbolic type needs |tau| = 1")
            if not (self.mu.imag == 0 and self.mu.real > 0):
                raise InvalidGenerator("hyperbolic type needs real mu > 0")
            self._check_angular_derivative()

    def _check_angular_derivative(self):
        r = 1.0 - 1e-4
        dq = self.f(r * self.tau) / (r * self.tau - self.tau)
        if abs(dq - self.mu) > 0.05 * abs(self.mu):
            raise InvalidGenerator(
                f"angular derivative mismatch: quotient {dq} vs mu {self.mu}")

    @classmethod
    def from_poly(cls, coeffs, kind, tau, mu=None):
        coeffs = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        d1 = P.polyder(coeffs)
        d2 = P.polyder(coeffs, 2)
        if mu is None:
            mu = P.polyval(complex(tau), d1)
        f, df, d2f = (partial(kernels.horner, tuple(map(complex, c))) for c in (coeffs, d1, d2))
        return cls(f=f, df=df, d2f=d2f, kind=kind, tau=tau, mu=mu)

    @classmethod
    def from_spec(cls, spec):
        coeffs = [_c(v) for v in spec["poly"]]
        tau = _c(spec.get("tau", 0))
        mu = _c(spec["mu"]) if "mu" in spec else None
        return cls.from_poly(coeffs, spec.get("kind", "dilation"), tau, mu)


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
    denom = (z - gen.tau) * (1.0 - np.conj(gen.tau) * z)
    fz = gen.f(z)
    near = np.abs(denom) < 1e-12
    p = np.empty_like(z)
    p[~near] = fz[~near] / denom[~near]
    if near.any():
        # removable point: p(tau) = f'(tau) / (1 - |tau|^2)
        p[near] = gen.df(gen.tau) / (1.0 - abs(gen.tau) ** 2)
    return float(np.min(p.real))


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
    """Panels needed for points with |z| <= rho: the last panel is no wider than
    1 - rho, so every panel is at most as wide as its gap to the singularity of
    the integrand near s = 1/|z|."""
    if not rho < 1.0:
        raise families.PointOutsideDisk(f"|z| = {rho} >= 1")
    return max(4, int(np.ceil(np.log2(1.0 / (1.0 - rho)))) + 1)


@families.disk_map
class KoenigsMap:
    """Univalent solution of h'(z) f(z) = mu h(z), built by radial quadrature.

    Normalization: h(0)=0, h'(0)=1 for dilation type with tau = 0;
    h(0)=1 for hyperbolic type.  Dilation with tau != 0 is handled by
    koenigs(), which conjugates the generator back to the origin and composes
    its Koenigs map with the disk automorphism based at tau.

    log h (log(h/z) for dilation type) and log h' are integrals over s in
    [0, 1] along the ray to z, evaluated for all points at once with one
    graded Gauss-Legendre rule sized by the largest |z| of the call.  The
    last point set's read-only logs are kept, so eval, log h' and h'' at the
    same points pay for one quadrature; log_deriv_array returns that shared,
    read-only array itself.
    """

    def __init__(self, gen: Generator):
        if gen.kind == "dilation" and gen.tau != 0:
            raise ValueError("use koenigs(); tau != 0 needs conjugation")
        self.gen = gen
        self.mu = gen.mu
        self.kind = gen.kind
        self._f2 = gen.d2f(np.asarray([0j]))[0]
        self._log_d0 = 0j
        self._memo = (None, None)
        if gen.kind == "hyperbolic":
            f0 = gen.f(np.asarray([0j]))[0]
            if f0 == 0:
                raise InvalidGenerator("hyperbolic generator with f(0) = 0")
            self._log_d0 = np.log(self.mu / f0)

    def _logs(self, z):
        """(log h or log(h/z), log h') at the points z, of z's shape."""
        z = _as_points(z)
        key = (z.shape, z.tobytes())
        last, logs = self._memo
        if last == key:
            return logs
        flat = z.ravel()
        s, w = _graded_rule(_panel_count(float(np.max(np.abs(flat), initial=0.0))))
        step = _BLOCK // s.size
        parts = [self._integrate(flat[i:i + step], s, w)
                 for i in range(0, max(flat.size, 1), step)]
        a, b = (np.concatenate(v).reshape(z.shape) for v in zip(*parts))
        b = self._log_d0 + b
        a.flags.writeable = b.flags.writeable = False
        self._memo = (key, (a, b))
        return a, b

    def _integrate(self, z, s, w):
        mu = self.mu
        ws = s[:, None] * z
        fw = self.gen.f(ws)
        dfw = self.gen.df(ws)
        # dilation type: both integrands are removable at ws = 0
        removable = (np.abs(ws) < 1e-12 if self.kind == "dilation"
                     else np.zeros(ws.shape, bool))
        if np.any((fw == 0) & ~removable):
            raise InvalidGenerator("f vanishes inside the disk away from tau")
        fw = np.where(removable, 1.0, fw)
        log_d = z * (mu - dfw) / fw
        if self.kind == "hyperbolic":
            return w @ (mu * z / fw), w @ log_d
        log_h = (mu * ws - fw) / (s[:, None] * fw)
        # the limits at ws = 0 are -z f''(0)/(2 mu) and -z f''(0)/mu
        z0 = np.broadcast_to(z, ws.shape)[removable]
        log_h[removable] = -z0 * self._f2 / (2.0 * mu)
        log_d[removable] = -z0 * self._f2 / mu
        return w @ log_h, w @ log_d

    def eval_array(self, z):
        a, _ = self._logs(z)
        return _as_points(z) * np.exp(a) if self.kind == "dilation" else np.exp(a)

    def log_deriv_array(self, z):
        return self._logs(z)[1]

    def deriv_array(self, z):
        return np.exp(self._logs(z)[1])

    def deriv2_array(self, z):
        # h'' = h' (mu - f')/f; for dilation type h''(0) = -f''(0)/mu
        z = _as_points(z)
        near = (np.abs(z) < 1e-9 if self.kind == "dilation"
                else np.zeros(z.shape, bool))
        out = self.deriv_array(z) * (self.mu - self.gen.df(z)) \
            / np.where(near, 1.0, self.gen.f(z))
        out[near] = -self._f2 / self.mu
        return out


def koenigs(gen: Generator):
    """Solve h' f = mu h for the generator's Koenigs function."""
    margin = berkson_porta_margin(gen)
    if margin < -1e-9:
        raise InvalidGenerator(f"Berkson-Porta margin {margin} < 0")
    if gen.kind == "dilation" and gen.tau != 0:
        tau = gen.tau

        # pull the vector field back to g(w) = phi'(phi(w)) f(phi(w)), a
        # generator fixing the origin, and differentiate by the chain rule
        def func(w):
            u = families.disk_automorphism(tau, w)
            return _dphi(tau, u) * gen.f(u)

        def dfunc(w):
            u = families.disk_automorphism(tau, w)
            return (_dphi(tau, u, 2) * gen.f(u) + _dphi(tau, u) * gen.df(u)) * _dphi(tau, w)

        def d2func(w):
            u = families.disk_automorphism(tau, w)
            f0, f1, f2 = gen.f(u), gen.df(u), gen.d2f(u)
            a1, a2, a3 = (_dphi(tau, u, k) for k in (1, 2, 3))
            return ((a3 * f0 + 2.0 * a2 * f1 + a1 * f2) * _dphi(tau, w) ** 2
                    + (a2 * f0 + a1 * f1) * _dphi(tau, w, 2))

        g = Generator(f=func, df=dfunc, d2f=d2func,
                      kind="dilation", tau=0j, mu=gen.mu)
        return families.ComposedMap(KoenigsMap(g), tau)
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

"""Extension of disk semigroup generators to the ball: the perturbed vector
field, the auxiliary shear-extended map and its block-inverse differential,
the conjugation identity, and full ball-flow integration.

Every function takes its ball points as a pair of complex arrays, x of shape
(n,) and y of shape (n, m)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ode
from .extensions import BallSpace, HomogeneousPolynomial, q_bound, sup_norm_Q, sup_norm_Q_bound
from .semigroups import Generator

CHECKPOINTS = 50  # recorded states of each ball flow after its start


@dataclass
class ExtendedGenerator:
    base: Generator
    lam: complex
    space: BallSpace
    Q: HomogeneousPolynomial

    def __post_init__(self):
        self.lam = complex(self.lam)
        if self.lam.real <= 0:
            raise ValueError("Re lambda must be > 0")
        if not float(self.space.r).is_integer():
            raise ValueError("integer r required when Q is attached")
        if self.Q.degree != self.space.r:
            raise ValueError("Q degree must equal the ball exponent r")
        if self.Q.terms:
            # Q_g = -r lam Q for the paper's Q; the sampled estimate never exceeds
            # the rigorous upper bound, so it is needed only when that is too large
            bound = self.space.r * abs(self.lam) * q_bound(self.lam)
            if sup_norm_Q_bound(self.Q, self.space) > bound + 1e-12:
                est = sup_norm_Q(self.Q, self.space)
                if est > bound + 1e-12:
                    raise ValueError(f"sup|Q| estimate {est} exceeds bound {bound}")


def _jet(h, x):
    """h(x), a continuous log h'(x) and h''(x), each shaped like x."""
    return tuple(np.reshape(fn(x), x.shape)
                 for fn in (h.eval_array, h.log_deriv_array, h.deriv2_array))


def extend_generator(g: ExtendedGenerator, x, y):
    """Vector field value ( f(x)+Q(y), (1/r)(f'(x)+r lam - quotient Q(y)) y )
    at the points (x, y), as first (n,) and second (n, m), for the base
    generator's quotient (mu - f')/f."""
    r = g.space.r
    fx, dfx = g.base.f(x), g.base.df(x)
    if not g.Q.terms:
        return fx, ((dfx + r * g.lam) / r)[..., None] * y
    qv = g.Q.eval(y)
    first = fx + qv
    second = ((dfx + r * g.lam - g.base.quotient(x) * qv) / r)[..., None] * y
    return first, second


def _h_tilde(g, jet, y):
    hx, L, _ = jet
    r = g.space.r
    z = hx - np.exp(L) * g.Q.eval(y) / (r * g.lam)
    return z, np.exp(L / r)[..., None] * y


def h_tilde(g: ExtendedGenerator, h, x, y):
    """(h(x) - h'(x) Q(y)/(r lam), h'(x)^(1/r) y) as z (n,) and w (n, m)."""
    return _h_tilde(g, _jet(h, x), y)


def _dh_tilde(g, jet, y):
    """Analytic differential of h_tilde at points with jet _jet(h, x): one
    (m+1, m+1) matrix per point."""
    _, L, d2 = jet
    r, lam, m = g.space.r, g.lam, g.space.m
    d1 = np.exp(L)
    qv = g.Q.eval(y)
    qg = g.Q.grad(y)
    D = np.zeros(L.shape + (m + 1, m + 1), dtype=complex)
    D[..., 0, 0] = d1 - d2 * qv / (r * lam)
    D[..., 0, 1:] = -(d1 / (r * lam))[..., None] * qg
    D[..., 1:, 0] = (d2 * np.exp(L * (1.0 / r - 1.0)) / r)[..., None] * y
    D[..., 1:, 1:] = np.exp(L / r)[..., None, None] * np.eye(m)
    return D


def _dh_tilde_inverse(g, jet, y):
    """Closed-form block inverse of the differential of h_tilde at points with
    jet _jet(h, x).

    The fiber-fiber block is h'^(-1/r) I minus a rank-one correction
    h'' y (x) Q'(y) / (r^2 lam h'^(1+1/r)); by Euler's identity
    Q'(y).y = r Q(y), it collapses to the scalar
    (r lam h' - h'' Q(y))/(r lam h'^(1+1/r)) when m = 1 (and, for any m,
    when acting on vectors parallel to y)."""
    _, L, d2 = jet
    r, lam, m = g.space.r, g.lam, g.space.m
    d1 = np.exp(L)
    qg = g.Q.grad(y)
    M = np.zeros(L.shape + (m + 1, m + 1), dtype=complex)
    M[..., 0, 0] = 1.0 / d1
    M[..., 0, 1:] = (1.0 / (r * lam * np.exp(L / r)))[..., None] * qg
    M[..., 1:, 0] = (-d2 / (r * d1 * d1))[..., None] * y
    M[..., 1:, 1:] = np.exp(-L / r)[..., None, None] * np.eye(m) \
        - (d2 / (r * r * lam * np.exp(L * (1.0 + 1.0 / r))))[..., None, None] \
        * (y[..., :, None] * qg[..., None, :])
    return M


def dh_tilde_identity_residual(g: ExtendedGenerator, h, x, y):
    """max over the points of the Frobenius norm of DH~ (DH~)^-1 - I."""
    jet = _jet(h, x)
    E = _dh_tilde(g, jet, y) @ _dh_tilde_inverse(g, jet, y) - np.eye(g.space.m + 1)
    return float(np.max(np.linalg.norm(E, axis=(-2, -1))))


def conjugation_residual(g: ExtendedGenerator, h, x, y):
    """max over the sample points of || DH~(p) fhat(p) - ftilde(H~(p)) ||,
    ftilde the diagonal linear field (mu z, (lam + mu/r) w)."""
    mu, r = g.base.mu, g.space.r
    jet = _jet(h, x)
    first, second = extend_generator(g, x, y)
    vec = np.concatenate([first[..., None], second], axis=-1)
    z, w = _h_tilde(g, jet, y)
    target = np.concatenate([(mu * z)[..., None], (g.lam + mu / r) * w], axis=-1)
    lhs = (_dh_tilde(g, jet, y) @ vec[..., None])[..., 0]
    return float(np.max(np.linalg.norm(lhs - target, axis=-1)))


@dataclass(frozen=True)
class BallFlow:
    """Checkpoint times t (k+1,) and states v (k+1, n, m+1), v[..., 0] = x, of
    n ball flows; start i recorded its first reached[i] checkpoints, and the
    rows after them are NaN.  steps counts the integrator's steps, rejected
    ones included, summed over its restarts."""

    t: np.ndarray
    v: np.ndarray
    reached: np.ndarray
    steps: int

    @property
    def exited(self):
        return self.reached < len(self.t)


def flow_ball(g: ExtendedGenerator, x, y, T):
    """Integrate d(x,y)/dt = -fhat(x,y) over [0, T] from every start (x[i],
    y[i]) at once, as one (n, m+1) state, recording checkpoints from the
    integrator's dense output.

    A trajectory that leaves the ball, or starts outside it, has exited (a
    witness against generator-hood) and stops at its last checkpoint; the
    others restart from that checkpoint."""
    space = g.space

    def rhs(v):
        out = np.empty_like(v)
        out[:, 0], out[:, 1:] = extend_generator(g, v[:, 0], v[:, 1:])
        return np.negative(out, out=out)

    def inside(v):
        return space.gauge(v[:, 0], v[:, 1:]) < 1.0

    dt = T / CHECKPOINTS
    # summed in sequence, the checkpoint times of a running t += dt; t[-1] can
    # differ from T by rounding, so the integration ends at t[-1]
    t = np.cumsum(np.r_[0.0, np.full(CHECKPOINTS, dt)])
    v = np.full((CHECKPOINTS + 1, len(x), space.m + 1), np.nan, dtype=complex)
    v[0, :, 0], v[0, :, 1:] = x, y
    reached = np.ones(len(x), dtype=int)
    live = np.flatnonzero(inside(v[0]))
    s = steps = 0  # s: the checkpoint the live starts go on from
    while live.size:
        try:
            v[s:, live], n, _ = ode.integrate(rhs, v[s, live], t[-1] - t[s],
                                              domain=inside, t_eval=t[s:] - t[s])
            reached[live] = CHECKPOINTS + 1
            steps += n
            break
        except ode.LeftDomain as e:
            k = s + len(e.dense)
            v[s:k, live] = e.dense
            reached[live] = k
            live, s = live[~e.mask], k - 1
            steps += e.steps
    return BallFlow(t=t, v=v, reached=reached, steps=steps)

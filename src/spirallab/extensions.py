"""The ball {|x|^2 + ||y||^r < 1} in C x C^m, Roper-Suffridge / shear-perturbed
extension operators, image-membership tests and invariance sweeps.

Points of the ball are a pair of arrays, x of shape (n,) and y of shape (n, m);
inside means space.gauge(x, y) < 1.  extend_H and muir_extend take one point
(x complex, y (m,)) and return (z, w)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .families import BranchedPower, _c
from .families import newton_invert  # noqa: F401  verdictbench/tracing.py wraps this name

INTERIOR_MARGIN = 1e-3
GAMMA_FRAC, N_GAMMA = 0.999, 16  # gamma mode probes N_GAMMA points on the circle of GAMMA_FRAC R_t
MAX_WITNESSES = 20  # the failures an invariance report lists
SUP_SAMPLES, ASCENT_STARTS, ASCENT_STEPS = 20_000, 10, 50  # sup_norm_Q's points, starts, steps


@dataclass(frozen=True)
class BallSpace:
    """The ball {|x|^2 + ||y||^r < 1} in C x C^m, ||.|| the p-norm on C^m
    (p = inf: the sup norm)."""

    r: float
    m: int
    p: float = 2.0

    def __post_init__(self):
        if not 1 <= self.r < np.inf:
            raise ValueError(f"r must be finite and >= 1, got {self.r}")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not 1 <= self.p <= np.inf:
            raise ValueError(f"p must lie in [1, inf], got {self.p}")

    def norm(self, y):
        return np.linalg.norm(np.asarray(y, dtype=complex), ord=self.p, axis=-1)

    def fibre(self, y):
        return self.norm(y) ** self.r  # ||y||^r, the fibre term of the gauge

    def gauge(self, x, y):
        return np.abs(x) ** 2 + self.fibre(y)


class DegreeMismatch(ValueError):
    pass


def _exponents(k, what="exponents must be integers"):
    """The entries of k as ints, refusing a negative or fractional one."""
    exps = tuple(int(e) for e in k)
    if any(e < 0 or e != v for e, v in zip(exps, k)):
        raise DegreeMismatch(f"{what} >= 0, got {list(k)}")
    return exps


@dataclass(frozen=True)
class HomogeneousPolynomial:
    """Degree-r homogeneous polynomial on C^m, monomial coefficients keyed by
    exponent multi-index."""

    degree: int
    m: int
    terms: tuple  # ((exps, coef), ...)

    def __post_init__(self):
        for exps, _ in self.terms:
            if len(exps) != self.m or sum(exps) != self.degree:
                raise DegreeMismatch(
                    f"bad multi-index {exps} for degree {self.degree}")

    @classmethod
    def build(cls, degree, m, terms):
        items = tuple(sorted((_exponents(k), complex(v))
                             for k, v in dict(terms).items()))
        return cls(degree=int(degree), m=int(m), terms=items)

    @classmethod
    def zero(cls, degree, m):
        return cls.build(degree, m, {})

    @classmethod
    def monomial(cls, degree, m, coef=1.0, index=0):
        exps = [0] * m
        exps[index] = degree
        return cls.build(degree, m, {tuple(exps): coef})

    def eval(self, y):
        """Q(y); y is (m,) or (..., m), evaluated on the trailing axis."""
        y = np.asarray(y, dtype=complex)
        acc = np.zeros(y.shape[:-1], dtype=complex)
        for exps, coef in self.terms:
            term = coef
            for k, e in enumerate(exps):
                if e:
                    term = term * y[..., k] ** e
            acc += term
        return acc if acc.shape else complex(acc)

    def grad(self, y):
        """Row vector of partial derivatives at y (same trailing-axis layout)."""
        y = np.asarray(y, dtype=complex)
        out = np.zeros(y.shape, dtype=complex)
        for exps, coef in self.terms:
            for k, e in enumerate(exps):
                if not e:
                    continue
                term = np.full(y.shape[:-1], coef * e, dtype=complex)
                for j, ej in enumerate(exps):
                    pw = ej - 1 if j == k else ej
                    if pw:
                        term = term * y[..., j] ** pw
                out[..., k] += term
        return out

    @classmethod
    def from_spec(cls, spec):
        (deg,) = _exponents([spec["degree"]], "the degree must be an integer")
        terms = {}
        m = None
        for t in spec.get("terms", []):
            exps = _exponents(t["exps"])
            m = len(exps) if m is None else m
            terms[exps] = _c(t["coef"])
        if m is None:
            m = int(spec.get("m", 1))
        return cls.build(deg, m, terms)


@dataclass(frozen=True)
class SpiralMatrix:
    """Block-diagonal operator diag(mu, (lambda + mu/r) id) acting on C x C^m."""

    mu: complex
    lam: complex
    r: float

    def __post_init__(self):
        if self.mu.real <= 0 or self.lam.real <= 0:
            raise ValueError("need Re mu > 0 and Re lambda > 0")

    @property
    def fiber_rate(self):
        return self.lam + self.mu / self.r


def extend_H(h, space: BallSpace, x, y):
    """(x, y) -> (h(x), h'(x)^(1/r) y) at one point, x complex and y (m,)."""
    zs, ws = extend_H_arrays(h, space, [x], [y])
    return zs[0], ws[0]


def extend_H_arrays(h, space: BallSpace, xs, ys):
    """extend_H on xs of shape (n,) and ys of shape (n, m)."""
    xs = np.asarray(xs, dtype=complex)
    ys = np.asarray(ys, dtype=complex)
    fac = BranchedPower(h, space.r).array(xs)
    return h.eval_array(xs), fac[..., None] * ys


def automorphism_phi(Q: HomogeneousPolynomial, z, w, inverse=False):
    """Shear (z, w) -> (z +/- Q(w), w); exact algebraic inverse."""
    w = np.asarray(w, dtype=complex)
    qv = Q.eval(w)
    return (z - qv if inverse else z + qv), w


def muir_extend(h, space: BallSpace, Q: HomogeneousPolynomial, x, y):
    """(x, y) -> (h(x) + h'(x) Q(y), h'(x)^(1/r) y) at one point; equals the
    shear after the unperturbed extension."""
    if Q.degree != space.r:
        raise DegreeMismatch(f"Q degree {Q.degree} != space r {space.r}")
    return automorphism_phi(Q, *extend_H(h, space, x, y))


def semigroup_action(A: SpiralMatrix, t, z, w):
    """(z, w) -> (e^(-mu t) z, e^(-(lambda + mu/r) t) w)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    w = np.asarray(w, dtype=complex)
    return np.exp(-A.mu * t) * z, np.exp(-A.fiber_rate * t) * w


def conjugated_action(A: SpiralMatrix, Q: HomogeneousPolynomial, t, z, w):
    """Shear-conjugated action Phi_Q^-1 o e^(-At) o Phi_Q:
    (z, w) -> (e^(-mu t) z + (e^(-mu t) - e^(-r(lambda + mu/r) t)) Q(w),
    e^(-(lambda + mu/r) t) w), as Q(c w) = c^r Q(w) for Q of degree r."""
    if Q.terms and Q.degree != A.r:
        raise DegreeMismatch(f"Q degree {Q.degree} != space r {A.r}")
    z1, w1 = semigroup_action(A, t, z, w)
    return z1 + (np.exp(-A.mu * t) - np.exp(-A.fiber_rate * A.r * t)) * Q.eval(w), w1


def membership_H(h, space: BallSpace, z, w, guess=0j):
    """Is (z, w) in the image of the unperturbed extension?  False (not an
    exception) when the first-coordinate inversion fails."""
    return bool(membership_H_arrays(h, space, np.asarray([z]), space.fibre(w), guess)[0][0])


def membership_H_arrays(h, space: BallSpace, zs, fibre, guess=0j):
    """Membership of the points (zs[i], ws[i]) in the image of the unperturbed
    extension, from fibre = space.fibre(ws): H maps the ball onto
    fibre < delta(z), delta the conformal radius at x = h^-1(z), since on
    every branch of the root y = w / h'(x)^(1/r) has gauge |x|^2 +
    fibre / |h'(x)|.  Points without a preimage in the disk (delta NaN) are
    outside.  Returns (inside, x): a boolean array and the preimages x solved
    from guess, both from h.preimage_radius_array (x None where the map's
    conformal_radius_form gives delta from z alone)."""
    x, delta = h.preimage_radius_array(np.asarray(zs, dtype=complex), guess=guess)
    return fibre < delta, x


def covering_radius_Rt(h, A: SpiralMatrix, t, z0, guess=0j):
    """(1 - |e^(-lambda t)|^r)/4 * |h'(x1)| (1 - |x1|^2) at each center z0 of
    an array, x1 the preimage of the contracted center e^(-mu t) z0, the first
    coordinate of e^(-At)(z0, 0); NaN where it has no preimage."""
    z1, _ = semigroup_action(A, t, z0, 0j)
    return _rt_scale(A, t) * h.preimage_radius_array(z1, guess=guess)[1]


def _rt_scale(A: SpiralMatrix, t):
    """(1 - |e^(-lambda t)|^r)/4, the covering radius R_t over the conformal
    radius at the contracted center."""
    return (1.0 - np.abs(np.exp(-A.lam * t)) ** A.r) / 4.0


def sample_ball(space: BallSpace, n, rng):
    """Interior samples: gauge <= 1 - INTERIOR_MARGIN by construction."""
    v = rng.uniform(0.0, 1.0 - INTERIOR_MARGIN, n)
    phase = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))
    xs = np.sqrt(v) * phase
    g = rng.standard_normal((n, space.m)) + 1j * rng.standard_normal((n, space.m))
    dirs = g / space.norm(g)[:, None]
    mag_r = rng.uniform(0.0, 1.0, n) * (1.0 - INTERIOR_MARGIN - v)
    ys = dirs * (mag_r ** (1.0 / space.r))[:, None]
    return xs, ys


def sup_norm_Q(Q: HomogeneousPolynomial, space: BallSpace, seed=0):
    """Estimate of sup_{||y||=1} |Q(y)|: ASCENT_STEPS of projected gradient ascent
    from the best ASCENT_STARTS of SUP_SAMPLES random sphere points, not a bound."""
    if not Q.terms:
        return 0.0
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((SUP_SAMPLES, Q.m)) + 1j * rng.standard_normal((SUP_SAMPLES, Q.m))
    ys = g / space.norm(g)[:, None]
    vals = np.abs(Q.eval(ys))
    best = float(np.max(vals))
    # projected gradient ascent of every start at once, each with its own step;
    # a start whose ascent direction vanishes stays put from then on
    y = ys[np.argsort(vals)[-ASCENT_STARTS:]]
    step = np.full(len(y), 0.1)
    val = np.abs(Q.eval(y))
    for _ in range(ASCENT_STEPS):
        d = Q.eval(y)[:, None] * np.conj(Q.grad(y))  # ascent direction for |Q|^2
        nd = np.linalg.norm(d, axis=-1)
        rows = np.flatnonzero(nd)
        if not rows.size:
            break
        cand = y[rows] + step[rows, None] * d[rows] / nd[rows, None]
        cand = cand / space.norm(cand)[:, None]
        cval = np.abs(Q.eval(cand))
        up = cval > val[rows]
        y[rows[up]], val[rows[up]] = cand[up], cval[up]
        step[rows] *= np.where(up, 1.2, 0.5)
    return max(best, float(np.max(val)))


def q_bound(lam):
    """The paper's perturbation bound: sup ||Q|| <= Re lam / (4 |lam|)."""
    return 0.25 * lam.real / abs(lam)


def sup_norm_Q_bound(Q: HomogeneousPolynomial, space: BallSpace):
    """Rigorous upper bound sum |c_a| sup_{||y||=1} |y^a| on sup_{||y||=1} |Q(y)|.

    On the unit sphere of the p-norm, |y^a| peaks at |y_k|^p = a_k/|a|, where
    it is (prod_k a_k^a_k / |a|^|a|)^(1/p): the square root of that for the
    Euclidean norm and 1 for the sup norm."""
    total = 0.0
    for exps, coef in Q.terms:
        a = np.asarray(exps, dtype=float)
        total += abs(coef) * float(np.prod((a / a.sum()) ** a)) ** (1.0 / space.p)
    return total


def verify_invariance(h, mu, lam, space: BallSpace, Q, times, n_samples=1000,
                      mode="muir", seed=0):
    """Invariance sweep over random interior points and the given times.

    mode='muir': push each extended point H(x, y) through the shear-conjugated
    linear action and test membership.  mode='gamma': perturb the contracted
    first coordinate along N_GAMMA directions at GAMMA_FRAC of the covering
    radius; a map with a conformal_radius_form gets the conformal radius on
    that circle in closed form (_gamma_circle), any other map a membership
    test of every probe.  Both move h(x), h'(x) Q(y) and |h'(x)| ||y||^r,
    read once, by scalars: Q(c w) = c^r Q(w), and |h'^(1/r)|^r = |h'| on
    every branch, so no branch of h'^(1/r) is taken but for the w of a
    reported witness.  Where h.preimage_radius_array solves preimages (every
    map without a conformal_radius_form), each sample's solve at each time
    starts at the last preimage found for it, its own x at the first time: the
    probe's own in muir mode; in gamma mode the centre's x1 behind R_t, which
    also starts that time's probes.  A solve that finds none (NaN) keeps the start
    it had.  failures counts every failed membership; witnesses keeps the
    first MAX_WITNESSES of them.
    """
    if mode not in ("muir", "gamma") or n_samples < 1 or min(times, default=0.0) < 0:
        raise ValueError(f"need mode muir or gamma, n_samples >= 1 and times >= 0, "
                         f"got {mode!r}, {n_samples}, {list(times)}")
    if mode == "muir" and Q.terms and Q.degree != space.r:
        raise DegreeMismatch(f"Q degree {Q.degree} != space r {space.r}")
    A = SpiralMatrix(complex(mu), complex(lam), space.r)
    xs, ys = sample_ball(space, n_samples, np.random.default_rng(seed))
    hx, fibre0 = h.eval_array(xs), h.abs_deriv_array(xs) * space.fibre(ys)
    hq = h.deriv_array(xs) * Q.eval(ys) if mode == "muir" else None
    form = h.conformal_radius_form
    failures, checked, kept, found = 0, 0, 0, []  # found: (t, probes, sample rows)
    start = xs  # each sample's last preimage
    for t in times:
        e_mu = np.exp(-A.mu * t)
        fibre = np.abs(np.exp(-A.fiber_rate * t)) ** A.r * fibre0
        if mode == "muir":
            z = e_mu * hx + (e_mu - np.exp(-A.fiber_rate * A.r * t)) * hq
            ok, x = membership_H_arrays(h, space, z, fibre, start)
        else:
            # R_t and the circle read one conformal radius at the contracted centre
            z1 = e_mu * hx
            x, d1 = h.preimage_radius_array(z1, guess=start)
            step = GAMMA_FRAC * (_rt_scale(A, t) * d1)
        if x is not None:
            start = np.where(np.isnan(x), start, x)
        # blocks of (membership of each probe, the probes at flat indices)
        if mode == "muir":
            blocks = [(ok, z.__getitem__)]
        elif form is None:
            blocks = ((membership_H_arrays(h, space, z, fib, guess)[0], z.__getitem__)
                      for z, fib, guess in _gamma_probes(z1, fibre, start, step))
        else:
            blocks = _gamma_circle(form, z1, d1, step, fibre)
        for ok, probe in blocks:
            bad = np.flatnonzero(~ok)
            checked += ok.size
            failures += bad.size
            bad = bad[:MAX_WITNESSES - kept]
            if bad.size:
                found.append((t, probe(bad), bad % n_samples))
                kept += bad.size
    witnesses = []
    if found:
        rows = np.concatenate([i for _, _, i in found])
        scale = np.concatenate([np.full(i.size, np.exp(-A.fiber_rate * t)) for t, _, i in found])
        ws = scale[:, None] * extend_H_arrays(h, space, xs[rows], ys[rows])[1]
        zs = np.concatenate([z for _, z, _ in found])
        witnesses = [{"t": t, "z": [z.real, z.imag], "w": [[v.real, v.imag] for v in w]}
                     for t, z, w in zip([t for t, _, i in found for _ in i],
                                        zs.tolist(), ws.tolist())]
    return {
        "mode": mode,
        "n_samples": int(n_samples),
        "times": list(map(float, times)),
        "checked": int(checked),
        "failures": failures,
        "witnesses": witnesses,
        "pass": failures == 0,
    }


def _gamma_probes(z1, fibre, xs, step):
    """The probes z1 + step e^(2 pi i k / N_GAMMA) with their fibre term and
    the preimage x of their sample, in blocks of whole directions k,
    direction-major, of at most SWEEP_BLOCK points (one direction a block when
    z1 is larger: never all N_GAMMA copies).  The fibre term and x are tiled
    once a call, and not at all for one direction a block."""
    n = z1.size
    per = max(1, min(N_GAMMA, kernels.SWEEP_BLOCK // max(1, n)))
    if per > 1:
        fibre, xs = np.tile(fibre, per), np.tile(xs, per)
    for k0 in range(0, N_GAMMA, per):
        ks = range(k0, min(k0 + per, N_GAMMA))
        dirs = np.array([[np.exp(2j * np.pi * k / N_GAMMA)] for k in ks])
        yield (z1 + step * dirs).ravel(), fibre[:len(ks) * n], xs[:len(ks) * n]


def _gamma_circle(form, z1, d1, step, fibre):
    """Gamma-mode membership on the circles of radius step about z1 for a map
    whose conformal radius is the form (a, b, g): one block of the n samples a
    direction k, with the probes z1 + step e^(2 pi i k / N_GAMMA) at indices,
    built as _gamma_probes builds them.  fibre >= 0, so a NaN d1 and a radius
    <= 0 both fail, as the NaN of the point formula does."""
    for d, radius in _circle_radii(form, z1, d1, step):
        yield fibre < radius, lambda i, d=d: z1[i] + step[i] * d


def _circle_radii(form, z1, d1, s):
    """Each direction d = e^(i phi), phi = 2 pi k / N_GAMMA, with the conformal
    radius delta(w) = a + 2 Re(b w) + g |w|^2, (a, b, g) = form, at the points
    w = z1 + s d, from d1 = delta(z1): delta(w) = d1 + g s^2 +
    2 s Re((b + g conj(z1)) d), so two real arrays are built once and each
    direction reads each once.  No positivity cut: delta(w) <= 0 where w
    leaves the image."""
    _, b, g = form
    base = d1 + g * s * s
    re = 2.0 * s * (b.real + g * z1.real)
    im = 2.0 * s * (b.imag - g * z1.imag)
    for k in range(N_GAMMA):
        d = np.exp(2j * np.pi * k / N_GAMMA)
        radius = re * d.real
        radius += base
        radius -= im * d.imag
        yield d, radius

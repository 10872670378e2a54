"""Numpy kernels: the built-in disk-map families, damped Newton inversion and
the polar covering sweep.

Families are addressed by name:

    identity       h(z) = z
    koebe          h(z) = z/(1-z)^2
    mobius_spiral  h(z) = z/(1+c z),            params = [c]
    spiral_koebe   h(z) = z(1-z)^(-p),          params = [p, p-1]
    half_plane     h(z) = (1-z)/(1+z)
    rational       h(z) = N(z)/D(z),            num/den = ascending coeff tuples

All z-arguments are complex128 ndarrays (scalars go through np.asarray).
``newton``, ``spiral_newton`` and ``preimages`` take the map as callables F and dF
on arrays, and ``min_distance``, the one covering sweep, takes F and the
modulus |F'|, evaluates F only on the edge of the region complement and the
rim (minimum modulus principle) and keeps the last keyed map's criterion grid
in a one-entry memo, so every disk map shares them; ``invert`` and
``covered_min_distance`` are their entry points for the named families.  Every
inverse returns the preimage in the open disk or NaN, and ``preimages`` alone
decides which Newton solves count.
``abs_deriv`` gives |h'| in real arithmetic, for consumers that need only it,
and ``conformal_radius`` the conformal radius |h'(x)|(1-|x|^2) at x = h^-1(w)
from w alone, for the Mobius and half-plane maps, from the one real quadratic
form in w of ``conformal_radius_form``.
"""

import itertools
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as P

NEWTON_MAX_ITER = 100
NEWTON_TOL = 1e-12
DISK_CLAMP = 1.0 - 1e-9
# grid points per block of a sweep (the polar covering sweep, gamma-mode probes,
# the sharp-bound margin): the temporaries stay in L2, and, 32 KiB a float
# array, below the allocator's mmap and trim thresholds, so the heap is not
# trimmed and faulted in again between verdicts
SWEEP_BLOCK = 4096
SPIRAL_TAU = 8.0     # spiral_newton starts at e^(-mu SPIRAL_TAU) w
SPIRAL_STEPS = 12    # its path steps, each of SPIRAL_MAX_STEPS // SPIRAL_STEPS
SPIRAL_MAX_STEPS = 384  # intervals of tau; a failing entry halves its own step


def horner(c, z):
    """Polynomial with ascending coefficients c at z: polyval's recurrence, minus its set-up."""
    if len(c) == 1:
        return c[0] + z * 0
    acc = c[-1] * z + c[-2]
    for v in c[-3::-1]:
        acc = v + acc * z
    return acc


@lru_cache(maxsize=32)
def _rational(num, den):
    """(N, D, D', W, W') of h = N/D as coefficient tuples, derived once per map:
    W = N'D - ND' is the numerator of h' = W/D^2, so h'' = (W'D - 2WD')/D^3."""
    d1 = P.polyder(den)
    w = P.polysub(P.polymul(P.polyder(num), den), P.polymul(num, d1))
    return tuple(tuple(c) for c in (num, den, d1, w, P.polyder(w)))


def eval_map(family, params, num, den, z):
    z = np.asarray(z, dtype=complex)
    if family == "identity":
        return z.copy()
    if family == "koebe":
        return z / (1.0 - z) ** 2
    if family == "mobius_spiral":
        return z / (1.0 + params[0] * z)
    if family == "spiral_koebe":
        # ufunc calls, not operators: numpy would run an operator on a large
        # temporary in place, which rounds the complex product differently
        return np.multiply(z, np.exp(np.multiply(-params[0], np.log1p(-z))))
    if family == "half_plane":
        return (1.0 - z) / (1.0 + z)
    if family == "rational":
        n, d = _rational(num, den)[:2]
        return horner(n, z) / horner(d, z)
    raise ValueError(f"unknown family {family!r}")


def eval_deriv(family, params, num, den, z):
    z = np.asarray(z, dtype=complex)
    if family == "identity":
        return np.ones_like(z)
    if family == "koebe":
        return (1.0 + z) / (1.0 - z) ** 3
    if family == "mobius_spiral":
        return 1.0 / (1.0 + params[0] * z) ** 2
    if family == "spiral_koebe":
        p, q = params[0], params[1]
        return np.exp(-(p + 1.0) * np.log1p(-z)) * (1.0 + q * z)
    if family == "half_plane":
        return -2.0 / (1.0 + z) ** 2
    if family == "rational":
        _, d, _, w, _ = _rational(num, den)
        return horner(w, z) / horner(d, z) ** 2
    raise ValueError(f"unknown family {family!r}")


def abs_deriv(family, params, num, den, z):
    """|h'(z)| as a float array; closed forms in x + iy = z for every family but
    rational, so no complex exp/log/power is paid where only the modulus is
    needed."""
    z = np.asarray(z, dtype=complex)
    if family == "rational":
        return np.abs(eval_deriv(family, params, num, den, z))
    x, y = z.real, z.imag
    if family == "identity":
        return np.ones(z.shape)
    if family == "half_plane":
        return 2.0 / ((1.0 + x) ** 2 + y * y)
    if family == "mobius_spiral":
        c = params[0]
        return 1.0 / ((1.0 + c.real * x - c.imag * y) ** 2 + (c.real * y + c.imag * x) ** 2)
    b = (1.0 - x) ** 2 + y * y  # |1 - z|^2
    if family == "koebe":
        return np.sqrt(((1.0 + x) ** 2 + y * y) / (b * b * b))
    if family == "spiral_koebe":
        # |(1-z)^-(p+1)| = exp(Im(p+1) arg(1-z) - Re(p+1) log|1-z|)
        s, q = params[0] + 1.0, params[1]
        return (np.exp(s.imag * np.arctan2(-y, 1.0 - x) - 0.5 * s.real * np.log(b))
                * np.hypot(1.0 + q.real * x - q.imag * y, q.real * y + q.imag * x))
    raise ValueError(f"unknown family {family!r}")


def eval_deriv2(family, params, num, den, z):
    z = np.asarray(z, dtype=complex)
    if family == "identity":
        return np.zeros_like(z)
    if family == "koebe":
        return 2.0 * (2.0 + z) / (1.0 - z) ** 4
    if family == "mobius_spiral":
        c = params[0]
        return -2.0 * c / (1.0 + c * z) ** 3
    if family == "spiral_koebe":
        p, q = params[0], params[1]
        return p * np.exp(-(p + 2.0) * np.log1p(-z)) * (2.0 + q * z)
    if family == "half_plane":
        return 4.0 / (1.0 + z) ** 3
    if family == "rational":
        d, d1, w, w1 = (horner(c, z) for c in _rational(num, den)[1:])
        return (w1 * d - 2.0 * w * d1) / d**3
    raise ValueError(f"unknown family {family!r}")


def log_deriv(family, params, num, den, z):
    """Continuous logarithm of h', anchored at log h'(0) = principal value.

    Closed forms exist for every family but rational because every factor has
    positive real part on the disk; rational maps need path continuation
    (handled upstream).
    """
    z = np.asarray(z, dtype=complex)
    if family == "identity":
        return np.zeros_like(z)
    if family == "koebe":
        return np.log1p(z) - 3.0 * np.log1p(-z)
    if family == "mobius_spiral":
        return -2.0 * np.log1p(params[0] * z)
    if family == "spiral_koebe":
        p, q = params[0], params[1]
        return -(p + 1.0) * np.log1p(-z) + np.log1p(q * z)
    if family == "half_plane":
        return np.log(2.0) + 1j * np.pi - 2.0 * np.log1p(z)
    raise ValueError(f"no closed-form log-derivative for family {family!r}")


def _closed_invert(family, params, w):
    if family == "identity":
        return w.copy()
    if family == "koebe":
        # rationalized root of w z^2 - (2w+1) z + w = 0; stable as w -> 0.  The
        # root is on the circle where Re s = 0, exactly on the slit w <= -1/4
        s = np.sqrt(4.0 * w + 1.0)
        return np.where(s.real > 0.0, 2.0 * w / (2.0 * w + 1.0 + s), np.nan + 0j)
    with np.errstate(divide="ignore", invalid="ignore"):  # the pole's image goes to NaN
        if family == "mobius_spiral":
            return w / (1.0 - params[0] * w)
        if family == "half_plane":
            # the root is on the circle where Re w = 0
            return np.where(w.real > 0.0, (1.0 - w) / (1.0 + w), np.nan + 0j)
    return None


def conformal_radius_form(family, params):
    """(a, b, g) of the families whose conformal radius |h'(x)|(1 - |x|^2) at
    x = h^-1(w) is the real quadratic form a + 2 Re(b w) + g |w|^2 in w where
    positive, None for the others.  mobius: |1 - cw|^2 - |w|^2, so
    (1, -c, |c|^2 - 1); half_plane: 2 Re w, so (0, 1, 0)."""
    if family == "mobius_spiral":
        c = params[0]
        return 1.0, -c, c.real * c.real + c.imag * c.imag - 1.0
    if family == "half_plane":
        return 0.0, 1.0 + 0j, 0.0
    return None


def conformal_radius(family, params, w):
    """The conformal radius at w from ``conformal_radius_form``, NaN where it is
    <= 0 (where the closed-form inverse leaves the disk); None without a form."""
    form = conformal_radius_form(family, params)
    if form is None:
        return None
    (a, b, g), w = form, np.atleast_1d(np.asarray(w, dtype=complex))
    d = a + 2.0 * (b.real * w.real - b.imag * w.imag)
    if g:  # the half-plane's g = 0: no |w|^2, which overflows long before 2 Re w
        d += g * (w.real ** 2 + w.imag ** 2)
    return np.where(d > 0.0, d, np.nan)


def _clamp(z):
    """Pull entries with |z| >= DISK_CLAMP back onto that circle, in place."""
    r = np.abs(z)
    big = r >= DISK_CLAMP
    z[big] *= DISK_CLAMP / r[big]
    return z


def newton(F, dF, w, z0):
    """Damped Newton solve of F(z) = w on arrays, from z0 (broadcast to w).

    Iterates are clamped to |z| <= DISK_CLAMP since images may be unbounded.
    An entry stops once |F(z) - w| <= NEWTON_TOL or after NEWTON_MAX_ITER
    steps; each step is halved, at most 24 times, until the residual drops.
    An entry whose halving bottoms out (step 2^-24 and still no decrease), or
    whose step is not finite (dF = 0 there), stalls: it keeps its last
    iterate and stops at once.  F and dF only see
    the entries still iterating.  Returns (z, |F(z) - w|) in the shape of w.
    """
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    z = _clamp(np.atleast_1d(np.asarray(z0, dtype=complex)) * np.ones_like(w))
    z, wf = z.ravel(), w.ravel()
    resid = F(z) - wf
    act = np.flatnonzero(np.abs(resid) > NEWTON_TOL)
    for _ in range(NEWTON_MAX_ITER):
        if not act.size:
            break
        za, ra, wa = z[act], resid[act], wf[act]
        with np.errstate(divide="ignore", invalid="ignore"):
            step = ra / dF(za)
        lam = np.ones(act.size)
        cand, new = np.empty_like(za), np.full_like(za, np.inf)
        todo = np.flatnonzero(np.isfinite(step))
        while todo.size:
            c = _clamp(za[todo] - lam[todo] * step[todo])
            cand[todo], new[todo] = c, F(c) - wa[todo]
            todo = todo[(np.abs(new[todo]) >= np.abs(ra[todo])) & (lam[todo] > 2.0**-24)]
            lam[todo] *= 0.5
        down = np.abs(new) < np.abs(ra)
        moved = act[down]
        z[moved], resid[moved] = cand[down], new[down]
        act = moved[np.abs(new[down]) > NEWTON_TOL]
    return z.reshape(w.shape), np.abs(resid).reshape(w.shape)


def spiral_newton(F, dF, w, mu, d0):
    """Solve F(z) = w along the spiral e^(-mu tau) w, tau from SPIRAL_TAU down
    to 0, for a map with F(0) = 0, F'(0) = d0 whose image is mu-spirallike:
    the spiral then stays in F(D) and runs to F(0), so each warm-started
    ``newton`` solve starts next to its root.  From e^(-mu SPIRAL_TAU) w / d0
    the path has SPIRAL_MAX_STEPS nodes; an entry whose solve at its next node
    stays above NEWTON_TOL halves its step from its last converged node, down
    to one node, where a failed solve goes on from its iterate as a plain walk
    does.  Returns (z, |F(z) - w|) in the shape of w.
    """
    wf = np.asarray(w, dtype=complex).ravel()
    rot = np.exp(-mu * np.linspace(SPIRAL_TAU, 0.0, SPIRAL_MAX_STEPS + 1))
    z, res = newton(F, dF, rot[0] * wf, rot[0] * wf / d0)
    node, step = np.zeros(wf.size, dtype=int), np.full(wf.size, SPIRAL_MAX_STEPS // SPIRAL_STEPS)
    act = np.arange(wf.size)
    while act.size:
        nxt = node[act] + step[act]
        za, ra = newton(F, dF, rot[nxt] * wf[act], z[act])
        go = (ra <= NEWTON_TOL) | (step[act] == 1)  # a failed one-node step goes on
        z[act[go]], node[act[go]], res[act] = za[go], nxt[go], ra
        step[act[~go]] //= 2
        act = act[node[act] < SPIRAL_MAX_STEPS]
    return z.reshape(np.shape(w)), res.reshape(np.shape(w))


def preimages(F, dF, w, guess, mu):
    """Preimages of w in the open disk under F, NaN where there is none: an
    entry is accepted when |F(z) - w| <= NEWTON_TOL max(1, |w|).  ``newton``
    from ``guess`` (broadcast to w); the entries a non-zero guess leaves
    unaccepted are solved again from 0, so a warm start loses no entry that
    the start at 0 accepts.  Given a spiral multiplier mu (F(0) = 0 and F(D) mu-spirallike,
    else None) the entries still unaccepted are solved again by
    ``spiral_newton``.  Each retry's result is kept where its residual is
    smaller."""
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    z, res = newton(F, dF, w, guess)
    tol = NEWTON_TOL * np.maximum(1.0, np.abs(w))
    zf, rf, wf = z.ravel(), res.ravel(), w.ravel()
    retries = [(np.broadcast_to(guess, w.shape).ravel() != 0, lambda v: newton(F, dF, v, 0j))]
    if mu is not None:
        retries.append((True, lambda v: spiral_newton(F, dF, v, mu, dF(np.zeros(1, complex))[0])))
    for rows, retry in retries:
        bad = np.flatnonzero((rf > tol.ravel()) & rows)
        if bad.size:
            z2, r2 = retry(wf[bad])
            up = r2 < rf[bad]
            zf[bad[up]], rf[bad[up]] = z2[up], r2[up]
    return np.where(res <= tol, z, np.nan + 0j)


def invert(family, params, num, den, w, guess, mu=None):
    """Invert h on arrays: the preimage of w in the open disk, or NaN.  Closed
    form where the family has one (NaN where it leaves the disk), else
    ``preimages`` from ``guess`` (with the spiral continuation when the map's
    spiral multiplier mu is given)."""
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    closed = _closed_invert(family, params, w)
    if closed is not None:
        return np.where(np.abs(closed) < 1.0, closed, np.nan + 0j)
    return preimages(lambda z: eval_map(family, params, num, den, z),
                     lambda z: eval_deriv(family, params, num, den, z), w, guess, mu)


@lru_cache
def polar_grid(nr, nt):
    """Radii r_k = 1 - (1 - k/nr)^2, k < nr, which concentrate at the rim, and
    the ring of the nt-th roots of unity; both read-only, built once a grid."""
    k = np.arange(nr, dtype=float)
    theta = 2.0 * np.pi * np.arange(nt) / nt
    radii, ring = 1.0 - (1.0 - k / nr) ** 2, np.exp(1j * theta)
    radii.flags.writeable = ring.flags.writeable = False
    return radii, ring


def criterion(abs_dF, radii, ring):
    """The region criterion |F'(x)|(1-|x|^2) on the grid x = radii[:, None] *
    ring, of shape (radii.size, ring.size), built in blocks of
    max(1, SWEEP_BLOCK // nt) whole rings."""
    crit, s = np.empty((radii.size, ring.size)), max(1, SWEEP_BLOCK // ring.size)
    for k in range(0, radii.size, s):
        r = radii[k:k + s, None]
        np.multiply(abs_dF(r * ring), 1.0 - r * r, out=crit[k:k + s])
    return crit


def _edge(below, own, above):
    """Flat ring-major indices of the edge points of a block own of whole
    rings of K: points of K with a neighbour outside K along their ray (the
    ring below is below[-1], the one above above[0]) or their ring (which
    wraps around)."""
    inner = own.copy()
    inner[0] &= below[-1]
    inner[1:] &= own[:-1]
    inner[:-1] &= own[1:]
    inner[-1] &= above[0]
    inner[:, 1:] &= own[:, :-1]
    inner[:, 0] &= own[:, -1]
    inner[:, :-1] &= own[:, 1:]
    inner[:, -1] &= own[:, 0]
    return np.flatnonzero(own & ~inner)


MEMO_MAX_POINTS = 2**18  # largest grid min_distance sweeps whole, and keeps
_memo = None  # (key, read-only criterion) of the last family map swept


def min_distance(F, abs_dF, key, threshold, center, nr, nt, boundary_eps):
    """Covering sweep of a disk map F, with abs_dF the modulus |F'|, on the
    (nr, nt) ``polar_grid``.

    Returns (min |F(x)-center| over the edge of the grid's region complement
    K = {|F'(x)|(1-|x|^2) <= threshold}, witness x, min over the circle
    |x| = 1-boundary_eps, number of grid points in K).  Ties go to the first
    grid point in ring-major order.  An edge point is a point of K with a
    neighbour outside K along its ring or its ray, or a point of K on the
    outermost ring.  F is univalent, so when the centre has no preimage in K,
    |F - center| has its minimum over K on K's boundary (minimum modulus
    principle): F is evaluated on the edge and the rim circle only.

    A grid of at most MEMO_MAX_POINTS points is swept whole, with one F call.
    If the map has a key (None: kept nowhere, and the memo is left alone) its
    read-only criterion grid is kept in a one-entry memo, keyed by
    (*key, nr, nt), which a later sweep of the same map and grid reads.  A
    larger grid streams in blocks of whole rings, each ring's criterion built
    once: a block's edge reads the last ring of the block before it and the
    first of the block after it.
    """
    global _memo
    radii, ring = polar_grid(nr, nt)
    whole, key = nr * nt <= MEMO_MAX_POINTS, None if key is None else (*key, nr, nt)
    hit = _memo is not None and _memo[0] == key
    if key is not None and not hit:
        _memo = None
    if whole:
        crit = _memo[1] if hit else criterion(abs_dF, radii, ring)
        if key is not None and not hit:
            crit.flags.writeable = False
            _memo = (key, crit)
        blocks = iter([crit <= threshold])
    else:
        step = max(1, SWEEP_BLOCK // nt)
        blocks = (criterion(abs_dF, radii[a:a + step], ring) <= threshold
                  for a in range(0, nr, step))
    best, witness, n_out, a = np.inf, complex(np.nan, np.nan), 0, 0
    # below ring 0 counts as in K, beyond the outermost ring as outside
    below, own = np.ones((1, nt), bool), next(blocks)
    for above in itertools.chain(blocks, [np.zeros((1, nt), bool)]):
        n_out += int(np.count_nonzero(own))
        i, j = np.divmod(_edge(below, own, above), nt)
        if i.size:
            x = radii[a + i] * ring[j]
            d = np.abs(F(x) - center)
            k = int(np.argmin(d))
            if d[k] < best:
                best, witness = float(d[k]), complex(x[k])
        a, below, own = a + own.shape[0], own[-1:], above
    bmin = float(np.min(np.abs(F((1.0 - boundary_eps) * ring) - center)))
    return best, witness, bmin, n_out


def covered_min_distance(family, params, num, den, threshold, center, nr, nt, boundary_eps):
    """``min_distance`` of the named family map, keyed by its family and
    parameters."""
    return min_distance(lambda z: eval_map(family, params, num, den, z),
                        lambda z: abs_deriv(family, params, num, den, z),
                        (family, params, num, den), threshold, center, nr, nt, boundary_eps)

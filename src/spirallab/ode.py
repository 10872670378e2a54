"""Adaptive Dormand-Prince 5(4) integration for complex-valued systems.

scipy's solve_ivp is real-valued; flows here are holomorphic vector fields on
the disk/ball, so a small embedded pair over complex ndarrays is simpler than
round-tripping through stacked real coordinates.

Given t_eval, integrate also returns the states at those times from the
free 4th-order continuous extension of each accepted step (Hairer, Norsett
and Wanner, Solving ODEs I, II.6), at no extra right-hand-side evaluations,
so one call with FSAL kept throughout replaces a call per checkpoint.
"""

import numpy as np

# Dormand-Prince tableau.  Row i of _A weights the stages behind stage i's
# point; row 6 is the 5th-order solution, so the last stage is f at the new
# point and serves as the first stage of the next step (FSAL).
_A = np.array([row + [0.0] * (6 - len(row)) for row in [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]])
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                -92097 / 339200, 187 / 2100, 1 / 40])
_E = _B5 - _B4  # weights of the embedded error estimate y5 - y4
# stage weights of the continuous extension's highest-order term (dopri5's d_i)
_D = np.array([-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
               -10690763975 / 1880347072, 701980252875 / 199316789632,
               -1453857185 / 822651844, 69997945 / 29380423])


class StepUnderflow(RuntimeError):
    pass


class LeftDomain(RuntimeError):
    """The integrated trajectory escaped the required invariant domain.

    mask is the domain predicate's negated value at the last rejected state:
    for a predicate returning one flag per row, the rows that left.  dense,
    when integrate was given t_eval, holds the states at the times of t_eval
    passed before the failure."""

    def __init__(self, msg, mask=True, dense=None):
        super().__init__(msg)
        self.mask = mask
        self.dense = dense


def _interpolate(y, y1, k, kr, h, theta):
    """States at the fractions theta of an accepted step of size h from y to
    y1 with stages k (k[6] = f(y1)), by dopri5's continuous extension."""
    dy = y1 - y
    b = h * k[0].reshape(y.shape) - dy
    c = dy - h * k[6].reshape(y.shape) - b
    d = h * (_D @ kr).view(complex).reshape(y.shape)
    th = theta.reshape(theta.shape + (1,) * y.ndim)
    return y + th * (dy + (1 - th) * (b + th * (c + (1 - th) * d)))


def integrate(rhs, y0, t_end, tol=1e-10, max_steps=1_000_000, domain=None,
              t_eval=None):
    """Integrate y' = rhs(y) from 0 to t_end (autonomous).

    domain, if given, is a predicate returning a flag or an array of flags (one
    per row of a batched state); a converged step with any flag false is first
    retried with smaller h, and reported as LeftDomain once h underflows.
    Returns (y, steps_taken, last_error_estimate); given t_eval, increasing
    times in [0, t_end], y is replaced by the states at those times, of shape
    t_eval.shape + y.shape.  A time on an accepted step gets that step's state.
    """
    y = np.atleast_1d(np.asarray(y0, dtype=complex))
    t = 0.0
    t_end = float(t_end)
    if not 0 <= t_end < np.inf:
        raise ValueError(f"t_end must be finite and >= 0, got {t_end}")
    dense = None
    if t_eval is not None:
        t_eval = np.asarray(t_eval, dtype=float)
        if t_eval.size and not (0 <= t_eval[0] and t_eval[-1] <= t_end
                                and np.all(np.diff(t_eval) >= 0)):
            raise ValueError("t_eval must be increasing times in [0, t_end]")
        dense = np.empty(t_eval.shape + y.shape, dtype=complex)
        done = np.searchsorted(t_eval, 0.0, side="right")
        dense[:done] = y
    h = min(0.1, t_end) if t_end > 0 else 0.0
    steps = 0
    err = 0.0
    left = None  # rows outside the domain at the last squeezed step
    k = np.empty((7, y.size), dtype=complex)
    kr = k.view(float)  # real weights act on real and imaginary parts alike
    if t_end > 0:
        k[0] = rhs(y).ravel()
    while t < t_end:
        if steps >= max_steps:
            raise StepUnderflow(f"not converged after {max_steps} steps")
        h = min(h, t_end - t)
        last = h == t_end - t
        if h < 1e-15 * max(1.0, t_end):
            if left is not None:
                raise LeftDomain("trajectory forced against the domain boundary", left,
                                 None if dense is None else dense[:done])
            raise StepUnderflow("step size underflow")
        for i in range(1, 7):
            yi = y + h * (_A[i, :i] @ kr[:i]).view(complex).reshape(y.shape)
            k[i] = rhs(yi).ravel()
        err = h * float(np.abs((_E @ kr).view(complex)).max())
        steps += 1
        if err <= tol:
            ok = True if domain is None else np.asarray(domain(yi))
            if not np.all(ok):
                left = ~ok
                h *= 0.5
                continue
            left = None
            # t + (t_end - t) can round below t_end, leaving an ulp to step
            t_new = t_end if last else t + h
            if dense is not None:
                stop = np.searchsorted(t_eval, t_new, side="right")
                if stop > done:
                    dense[done:stop] = _interpolate(y, yi, k, kr, h,
                                                    (t_eval[done:stop] - t) / h)
                    if t_eval[stop - 1] == t_new:
                        dense[stop - 1] = yi
                    done = stop
            t = t_new
            y = yi
            k[0] = k[6]
        # PI-free step control with the usual safety factor
        scale = 0.9 * (tol / err) ** 0.2 if err > 0 else 5.0
        h *= min(5.0, max(0.1, scale))
    return (y if dense is None else dense), steps, err

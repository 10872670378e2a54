"""Adaptive Dormand-Prince 8(5,3) integration for complex-valued systems.

Flows here are holomorphic vector fields on the disk/ball, integrated directly
over complex ndarrays by DOP853 (Hairer, Norsett and Wanner, Solving ODEs I,
II.5 and II.10): an order-8 step of 12 right-hand-side evaluations, the last
of them f at the new point, which starts the next step (FSAL), with the local
error estimated from the embedded 5th- and 3rd-order solutions together.

Given t_eval, integrate also returns the states at those times from the
7th-order continuous extension of each accepted step.  It costs 3 more f calls,
paid only on a step with a time of t_eval strictly inside it, so one call with
FSAL kept throughout replaces a call per checkpoint.
"""

from bisect import bisect_left, bisect_right

import numpy as np

MAX_STEPS = 1_000_000  # integrate's step cap: StepUnderflow beyond it
TOL = 1e-11  # integrate's local error tolerance, in the max norm

# DOP853 tableau, copied from scipy/integrate/_ivp/dop853_coefficients.py
# (BSD-3), which takes it from Hairer's dop853.f.  Row i of _A weights the stages
# behind stage i's point.  Row 12 is the 8th-order solution, so stage 12 is f at
# the new point (FSAL); rows 13-15 are the dense output's 3 extra stages.
_A = np.array([row + [0] * (16 - len(row)) for row in [
    [],
    [5.26001519587677318785587544488e-2],
    [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2],
    [2.95875854768068491816892993775e-2, 0, 8.87627564304205475450678981324e-2],
    [2.41365134159266685502369798665e-1, 0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1],
    [3.7037037037037037037037037037e-2, 0, 0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1],
    [3.7109375e-2, 0, 0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2],
    [3.70920001185047927108779319836e-2, 0, 0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3],
    [6.24110958716075717114429577812e-1, 0, 0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1],
    [4.77662536438264365890433908527e-1, 0, 0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2],
    [-9.3714243008598732571704021658e-1, 0, 0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022],
    [2.27331014751653820792359768449, 0, 0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1],
    [5.42937341165687622380535766363e-2, 0, 0, 0, 0, 4.45031289275240888144113950566,
     1.89151789931450038304281599044, -5.8012039600105847814672114227,
     3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
     2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2],
    [5.61675022830479523392909219681e-2, 0, 0, 0, 0, 0,
     2.53500210216624811088794765333e-1, -2.46239037470802489917441475441e-1,
     -1.24191423263816360469010140626e-1, 1.5329179827876569731206322685e-1,
     8.20105229563468988491666602057e-3, 7.56789766054569976138603589584e-3, -8.298e-3],
    [3.18346481635021405060768473261e-2, 0, 0, 0, 0, 2.83009096723667755288322961402e-2,
     5.35419883074385676223797384372e-2, -5.49237485713909884646569340306e-2, 0, 0,
     -1.08347328697249322858509316994e-4, 3.82571090835658412954920192323e-4,
     -3.40465008687404560802977114492e-4, 1.41312443674632500278074618366e-1],
    [-4.28896301583791923408573538692e-1, 0, 0, 0, 0, -4.69762141536116384314449447206,
     7.68342119606259904184240953878, 4.06898981839711007970213554331,
     3.56727187455281109270669543021e-1, 0, 0, 0, -1.39902416515901462129418009734e-3,
     2.9475147891527723389556272149, -9.15095847217987001081870187138],
]])

# weights of the embedded 5th-order error estimate (dop853.f's er) and of the
# 3rd-order one, y8 - y3 (b - bhh); stage 12, f at the new point, is not in them
_E = np.array([[
    0.1312004499419488073250102996e-1, 0, 0, 0, 0, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1,
], _A[12, :12] - np.array([
    0.244094488188976377952755905512, 0, 0, 0, 0, 0, 0, 0,
    0.733846688281611857341361741547, 0, 0, 0.220588235294117647058823529412e-1,
])])
# stage weights of the continuous extension's terms of degree 4 to 7
_D = np.array([row[:1] + [0] * 4 + row[1:] for row in [
    [-0.84289382761090128651353491142e+1, 0.56671495351937776962531783590,
     -0.30689499459498916912797304727e+1, 0.23846676565120698287728149680e+1,
     0.21170345824450282767155149946e+1, -0.87139158377797299206789907490,
     0.22404374302607882758541771650e+1, 0.63157877876946881815570249290,
     -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e+2,
     -0.91946323924783554000451984436e+1, -0.44360363875948939664310572000e+1],
    [0.10427508642579134603413151009e+2, 0.24228349177525818288430175319e+3,
     0.16520045171727028198505394887e+3, -0.37454675472269020279518312152e+3,
     -0.22113666853125306036270938578e+2, 0.77334326684722638389603898808e+1,
     -0.30674084731089398182061213626e+2, -0.93321305264302278729567221706e+1,
     0.15697238121770843886131091075e+2, -0.31139403219565177677282850411e+2,
     -0.93529243588444783865713862664e+1, 0.35816841486394083752465898540e+2],
    [0.19985053242002433820987653617e+2, -0.38703730874935176555105901742e+3,
     -0.18917813819516756882830838328e+3, 0.52780815920542364900561016686e+3,
     -0.11573902539959630126141871134e+2, 0.68812326946963000169666922661e+1,
     -0.10006050966910838403183860980e+1, 0.77771377980534432092869265740,
     -0.27782057523535084065932004339e+1, -0.60196695231264120758267380846e+2,
     0.84320405506677161018159903784e+2, 0.11992291136182789328035130030e+2],
    [-0.25693933462703749003312586129e+2, -0.15418974869023643374053993627e+3,
     -0.23152937917604549567536039109e+3, 0.35763911791061412378285349910e+3,
     0.93405324183624310003907691704e+2, -0.37458323136451633156875139351e+2,
     0.10409964950896230045147246184e+3, 0.29840293426660503123344363579e+2,
     -0.43533456590011143754432175058e+2, 0.96324553959188282948394950600e+2,
     -0.39177261675615439165231486172e+2, -0.14972683625798562581422125276e+3],
]])


class StepUnderflow(RuntimeError):
    pass


class LeftDomain(RuntimeError):
    """The integrated trajectory escaped the required invariant domain.

    mask is the domain predicate's negated value at the last rejected state:
    for a predicate returning one flag per row, the rows that left.  dense,
    when integrate was given t_eval, holds the states at the times of t_eval
    passed before the failure.  steps counts the steps taken until then."""

    def __init__(self, msg, mask=True, dense=None, steps=0):
        super().__init__(msg)
        self.mask = mask
        self.dense = dense
        self.steps = steps


def _point(y, h, kr, i, s, s_r):
    """The point y + h sum_j a_ij k_j at which stage i is evaluated, a new
    array; the sum goes into the scratch s (complex, of y's shape), through
    s_r, its flat real view."""
    np.matmul(_A[i, :i], kr[:i], out=s_r)
    return y + h * s


def _dense_states(rhs, y, y1, k, kr, h, theta, s):
    """States at the fractions theta of an accepted step of size h from y to
    y1 with stages k[:13] (k[12] = f(y1)), by DOP853's continuous extension,
    after evaluating its 3 extra stages into k[13:] (s: _point's scratch)."""
    for i in range(13, 16):
        k[i] = rhs(_point(y, h, kr, i, *s)).ravel()
    dy = y1 - y
    hf0, hf1 = (h * k[[0, 12]]).reshape((2,) + y.shape)
    terms = [dy, hf0 - dy, 2 * dy - hf0 - hf1,
             *h * (_D @ kr).view(complex).reshape((4,) + y.shape)]
    th = theta.reshape(theta.shape + (1,) * y.ndim)
    one_th = 1 - th
    # y + th (F0 + (1 - th) (F1 + th (F2 + (1 - th) (F3 + ... + th F6))))
    out = terms[6]
    for i in range(5, -1, -1):
        out = terms[i] + (th if i % 2 else one_th) * out
    return y + th * out


def integrate(rhs, y0, t_end, domain=None, t_eval=None):
    """Integrate y' = rhs(y) from 0 to t_end (autonomous) at local error TOL.

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
        t_list = t_eval.tolist()
        done = bisect_right(t_list, 0.0)
        dense[:done] = y
    h = min(0.1, t_end) if t_end > 0 else 0.0
    steps = 0
    err = 0.0
    left = None  # rows outside the domain at the last squeezed step
    k = np.empty((16, y.size), dtype=complex)
    kr = k.view(float)  # real weights act on real and imaginary parts alike
    scratch = np.empty_like(y)  # each stage's weighted sum of k, in turn
    s = scratch, scratch.reshape(-1).view(float)
    if t_end > 0:
        k[0] = rhs(y).ravel()
    while t < t_end:
        if steps >= MAX_STEPS:
            raise StepUnderflow(f"not converged after {MAX_STEPS} steps")
        h = min(h, t_end - t)
        last = h == t_end - t
        if h < 1e-15 * max(1.0, t_end):
            if left is not None:
                raise LeftDomain("trajectory forced against the domain boundary", left,
                                 None if dense is None else dense[:done], steps)
            raise StepUnderflow("step size underflow")
        for i in range(1, 12):
            k[i] = rhs(_point(y, h, kr, i, *s)).ravel()
        y1 = _point(y, h, kr, 12, *s)
        # dop853.f's error in the max norm: the 5th-order estimate e5 times
        # e5 / hypot(e5, e3 / 10), e3 the 3rd-order one
        e5, e3 = np.abs((_E @ kr[:12]).view(complex)).max(axis=1).tolist()
        err = h * e5 * e5 / (e5 * e5 + 0.01 * e3 * e3) ** 0.5 if e5 > 0 else 0.0
        steps += 1
        if err <= TOL:
            ok = True if domain is None else np.asarray(domain(y1))
            if not np.all(ok):
                left = ~ok
                h *= 0.5
                continue
            left = None
            k[12] = rhs(y1).ravel()
            # t + (t_end - t) can round below t_end, leaving an ulp to step
            t_new = t_end if last else t + h
            if dense is not None:
                inner = bisect_left(t_list, t_new, done)
                if inner > done:
                    dense[done:inner] = _dense_states(rhs, y, y1, k, kr, h,
                                                      (t_eval[done:inner] - t) / h, s)
                done = bisect_right(t_list, t_new, inner)
                dense[inner:done] = y1
            t = t_new
            y = y1
            k[0] = k[12]
        # step control with the safety factor and step ratio bounds of dop853.f
        scale = 0.9 * (TOL / err) ** 0.125 if err > 0 else 6.0
        h *= min(6.0, max(0.333, scale))
    return (y if dense is None else dense), steps, err

"""Tests for the covering-radius machinery."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spirallab import covering, kernels
from spirallab.covering import (
    BOUNDARY_EPS,
    OmegaSpec,
    grid_tolerance,
    omega_region_points,
    verify_covering_bound,
    verify_shifted_covering_bound,
)
from spirallab.families import UnivalentMap, disk_automorphism, disk_map, normalize_at
from spirallab.semigroups import Generator, koenigs

from conftest import ALL_FAMILIES, RATIONAL, random_disk


def in_omega(h, spec, x):
    """Membership of the points x in Omega_alpha, from the |h'| the sweep reads."""
    return h.abs_deriv_array(x) * (1.0 - np.abs(x) ** 2) > spec.threshold


def test_omega_identity_is_annulus_complement():
    """For h = id centered at 0 the region is |x| ... threshold alpha:
    alpha * 1 * 1 < 1 * (1 - |x|^2)  <=>  |x| < sqrt(1 - alpha)."""
    h = UnivalentMap.identity()
    spec = OmegaSpec.build(h, 0.0, 0.36)
    cut = np.sqrt(1 - 0.36)
    assert list(in_omega(h, spec, np.array([0.99, 1.01]) * cut)) == [True, False]


def test_threshold_value():
    h = UnivalentMap.koebe()
    x0 = 0.3
    spec = OmegaSpec.build(h, x0, 0.5)
    expect = 0.5 * abs(h.deriv(x0)) * (1 - x0**2)
    assert abs(spec.threshold - expect) < 1e-14


def assert_within_grid_overshoot(rep, exact):
    """For the identity about 0, whose region complement is |x| >= exact: the
    sweep's edge is the first ring at or beyond exact, so the measured radius
    lies between exact (to rounding) and exact plus that ring's spacing
    r_k - r_(k-1) = (2 sqrt(1 - r_k) + 1/nr)/nr."""
    nr = rep["grid"][0]
    overshoot = (2.0 * np.sqrt(1.0 - exact) + 1.0 / nr) / nr
    assert exact - 1e-15 <= rep["measured_radius_lower"] <= exact + overshoot


def test_covering_bound_identity_exact():
    """id covers the full omega image; predicted (1-alpha)/4 is far inside."""
    rep = verify_covering_bound(UnivalentMap.identity(), 0.0, 0.19)
    assert rep["pass"]
    assert abs(rep["predicted_radius"] - 0.2025) < 1e-14
    # the actual covered radius is sqrt(1 - alpha) = 0.9
    assert_within_grid_overshoot(rep, 0.9)


def test_covering_bound_koebe():
    rep = verify_covering_bound(UnivalentMap.koebe(), 0.0, 0.5)
    assert rep["pass"]
    assert abs(rep["predicted_radius"] - 0.125) < 1e-14
    assert rep["measured_radius_lower"] >= 0.125 - rep["tolerance"]


def test_covering_bound_off_center():
    for x0 in (0.3, 0.5j, -0.6):
        rep = verify_covering_bound(UnivalentMap.koebe(), x0, 0.4)
        assert rep["pass"], (x0, rep)


def test_shifted_bound_identity():
    rep = verify_shifted_covering_bound(UnivalentMap.identity(), 0.0, 0.3, 0.5)
    assert rep["pass"]
    assert abs(rep["predicted_radius"] - 0.1) < 1e-14
    assert abs(rep["secondary_radius"] - 0.05) < 1e-14
    assert rep["predicted_radius"] >= rep["secondary_radius"] - 1e-12
    # centre 0: the actual covered radius is sqrt(1 - alpha)
    assert_within_grid_overshoot(rep, np.sqrt(0.7))


def test_shifted_bound_complex_beta():
    beta = 0.5 * np.exp(0.7j)
    rep = verify_shifted_covering_bound(UnivalentMap.koebe(), 0.2, 0.2, beta)
    assert rep["pass"]
    assert rep["predicted_radius"] >= rep["secondary_radius"] - 1e-12


def test_shifted_bound_rejects_bad_params():
    h = UnivalentMap.koebe()
    with pytest.raises(ValueError):
        verify_shifted_covering_bound(h, 0.0, 0.6, 0.5)  # alpha >= |beta|
    with pytest.raises(ValueError):
        verify_shifted_covering_bound(h, 0.0, 0.3, 1.2)  # |beta| >= 1


# shifted verdicts of the covering-sweep benchmark at seed 1: a koebe and a
# mobius centre, whose radius is closed-form, and a Newton-solved rational one
SHIFTED_CASES = [
    (UnivalentMap.koebe(), -0.13518358847973216 - 0.42921486158536315j,
     0.23530671388685853, 0.5700515287594897),
    (UnivalentMap.mobius_spiral(0.3j), 0.08966590392600256 + 0.2333667192920466j,
     0.73826478521144, 0.9155439906810993),
    (RATIONAL, -0.06520162635843661 - 0.07582049802141122j,
     0.16744667844096756, 0.6166927994825898),
    (UnivalentMap.koebe(), 0.2, 0.2, 0.5 * np.exp(0.7j)),
]


@pytest.mark.parametrize("h, x0, alpha, beta", SHIFTED_CASES,
                         ids=["koebe", "mobius", "rational", "koebe-complex-beta"])
def test_shifted_radius_is_the_conformal_radius_at_the_centre(h, x0, alpha, beta):
    """The shifted check reads delta(x1) = |h'(x1)|(1 - |x1|^2) at the preimage
    x1 of beta h(x0) from h.conformal_radius_array, bit for bit."""
    rep = verify_shifted_covering_bound(h, x0, alpha, beta, grid=(60, 60))
    centre = beta * h.eval(x0)
    d1 = h.conformal_radius_array([centre], guess=x0)[0]
    assert rep["predicted_radius"] == (abs(beta) - alpha) / (4.0 * abs(beta)) * d1
    assert rep["center"] == [centre.real, centre.imag]


@pytest.mark.parametrize("h", ALL_FAMILIES, ids=lambda h: h.family)
def test_plain_check_is_the_shifted_body_at_beta_one(h, monkeypatch):
    """The plain check is the one covering body at beta = 1: centre h(x0),
    radius (1 - alpha)/4 delta(x0) with no solve, and no secondary bound.
    delta(x0) is read once, from the real-arithmetic |h'| the sweep reads
    (abs_deriv_array), and the complex h'(x0) is not evaluated."""

    def refuse(self, z):
        raise AssertionError("complex h'(x0) evaluated")

    monkeypatch.setattr(UnivalentMap, "deriv", refuse)
    x0, alpha = 0.3 + 0.1j, 0.5
    rep = verify_covering_bound(h, x0, alpha, grid=(60, 60))
    assert rep == covering._verdict(h, x0, alpha, 1.0, (60, 60))
    d0 = h.abs_deriv_array([x0])[0] * (1.0 - abs(x0) ** 2)
    assert rep["predicted_radius"] == (1.0 - alpha) / 4.0 * d0
    assert rep["center"] == [h.eval(x0).real, h.eval(x0).imag]
    assert rep["secondary_radius"] is None and "reason" not in rep


def test_measured_radius_monotone_in_alpha():
    """Bigger alpha shrinks the region, so the covered radius shrinks."""
    h = UnivalentMap.koebe()
    vals = [verify_covering_bound(h, 0.0, a)["measured_radius_lower"]
            for a in (0.2, 0.4, 0.6, 0.8)]
    for lo, hi in zip(vals[1:], vals[:-1]):
        assert lo <= hi + 1e-9


def test_transformed_region_equivalence():
    """Omega_alpha is automorphism-covariant: x in Omega_alpha(h, x0) iff
    phi(x) in Omega_alpha(h o phi, 0) for phi the automorphism at x0."""
    h = UnivalentMap.koebe()
    x0 = 0.3 + 0.2j

    @disk_map
    class Composed:
        def deriv_array(self, z):
            dphi = (abs(x0) ** 2 - 1.0) / (1.0 - np.conj(x0) * z) ** 2
            return h.deriv_array(disk_automorphism(x0, z)) * dphi

    g = Composed()
    spec_h = OmegaSpec.build(h, x0, 0.45)
    spec_g = OmegaSpec.build(g, 0.0, 0.45)
    x = random_disk(np.random.default_rng(21), 300, 0.97)
    a = in_omega(h, spec_h, x)
    b = in_omega(g, spec_g, disk_automorphism(x0, x))
    assert a.any() and not a.all()
    np.testing.assert_array_equal(a, b)


def test_grid_tolerance_formula():
    assert abs(grid_tolerance(0.2) - (5e-3 * 0.2 + 1e-6)) < 1e-18


def test_omega_region_points_fractions():
    h = UnivalentMap.identity()
    spec = OmegaSpec.build(h, 0.0, 0.5)
    pts, flags = omega_region_points(h, spec, grid=(60, 60))
    inside = np.abs(pts) < np.sqrt(0.5) - 1e-6
    outside = np.abs(pts) > np.sqrt(0.5) + 1e-6
    assert np.all(flags[inside])
    assert not np.any(flags[outside])


# ---------------------------------------------------------- blocked sweep

# (400, 400): 10 rings a block; (401, 400): a last block of one ring;
# (401, 7): one block of every ring; (3, 5000): nt > SWEEP_BLOCK, a ring a block
SWEEP_GRIDS = [(400, 400), (401, 400), (401, 7), (3, 5000)]


def _per_ring_min_distance(F, abs_dF, threshold, center, nr, nt, boundary_eps):
    """Reference: the covering sweep one ring at a time.  abs_dF is the
    modulus |F'| the sweep reads, so a threshold tied with a grid point's
    criterion counts that point as the sweep does."""
    radii, ring = kernels.polar_grid(nr, nt)
    best, witness, n_out = np.inf, complex(np.nan, np.nan), 0
    for r in radii:
        x = r * ring
        out = abs_dF(x) * (1.0 - r * r) <= threshold
        if out.any():
            n_out += int(out.sum())
            d = np.abs(F(x[out]) - center)
            i = int(np.argmin(d))
            if d[i] < best:
                best, witness = float(d[i]), complex(x[out][i])
    bmin = float(np.min(np.abs(F((1.0 - boundary_eps) * ring) - center)))
    return best, witness, bmin, n_out


@pytest.mark.parametrize("grid", SWEEP_GRIDS, ids=lambda g: "x".join(map(str, g)))
@pytest.mark.parametrize("h", ALL_FAMILIES, ids=lambda h: h.family)
def test_blocked_sweep_matches_per_ring_loop(h, grid):
    """The family sweep visits the grid in blocks of whole rings and returns the
    per-ring result bit for bit, about h(x0) and about the shifted centre."""
    x0 = 0.3 + 0.1j
    spec = OmegaSpec.build(h, x0, 0.5)
    fam = (h.family, h.params, h.num, h.den)
    for center in (h.eval(x0), 0.5 * h.eval(x0)):
        got = kernels.covered_min_distance(*fam, spec.threshold, center, *grid, BOUNDARY_EPS)
        ref = _per_ring_min_distance(lambda z: kernels.eval_map(*fam, z),
                                     lambda z: kernels.abs_deriv(*fam, z),
                                     spec.threshold, center, *grid, BOUNDARY_EPS)
        assert ref[3] > 0
        assert got == ref


@pytest.mark.parametrize("grid", [(100, 100), (3, 5000)], ids=["100x100", "3x5000"])
@pytest.mark.parametrize("h", ALL_FAMILIES, ids=lambda h: h.family)
def test_omega_region_points_match_per_ring_loop(h, grid):
    spec = OmegaSpec.build(h, 0.3 + 0.1j, 0.5)
    radii, ring = kernels.polar_grid(*grid)
    ref_x = np.concatenate([r * ring for r in radii])
    ref_in = np.concatenate([np.abs(h.deriv_array(r * ring)) * (1.0 - r * r)
                             for r in radii]) > spec.threshold
    x, flags = omega_region_points(h, spec, grid=grid)
    assert np.array_equal(x, ref_x)
    assert np.array_equal(flags, ref_in)


@pytest.mark.parametrize("kind", ["normalized", "koenigs"])
def test_generic_map_sweep_matches_per_ring_loop(kind):
    """Maps outside the named families go through ``kernels.min_distance`` with no
    key.  A KoenigsMap sizes its quadrature by the largest |z| of each call, so
    the block size may move its last digits: agreement to 1e-12 relative."""
    if kind == "normalized":
        h, grid = normalize_at(UnivalentMap.koebe(), 0.3 + 0.2j), (400, 400)
    else:
        h = koenigs(Generator([0, 1, -1], kind="dilation", tau=0.0, mu=1.0))
        grid = (120, 64)
    x0 = 0.2 - 0.1j
    spec = OmegaSpec.build(h, x0, 0.5)
    for center in (h.eval(x0), 0.5 * h.eval(x0)):
        best, _, bmin, n_out = kernels.min_distance(
            h.eval_array, h.abs_deriv_array, None, spec.threshold, center, *grid,
            BOUNDARY_EPS)
        ref_best, _, ref_bmin, ref_n_out = _per_ring_min_distance(
            h.eval_array, h.abs_deriv_array, spec.threshold, center, *grid, BOUNDARY_EPS)
        assert n_out == ref_n_out > 0
        assert abs(best - ref_best) <= 1e-12 * ref_best
        assert abs(bmin - ref_bmin) <= 1e-12 * ref_bmin


def test_generic_map_sweep_leaves_the_memo_alone(no_memo):
    """A sweep with no key neither reads nor replaces nor fills the family memo."""
    h = UnivalentMap.koebe()
    spec = OmegaSpec.build(h, 0.3 + 0.1j, 0.5)
    kernels.covered_min_distance(*_family(h), spec.threshold, h.eval(0.3 + 0.1j),
                                 400, 400, BOUNDARY_EPS)
    memo = kernels._memo
    before = [a.copy() for a in memo[1:]]
    g = normalize_at(h, 0.3 + 0.2j)
    got = kernels.min_distance(g.eval_array, g.abs_deriv_array, None, spec.threshold, 0j,
                               400, 400, BOUNDARY_EPS)
    assert got[3] > 0
    assert kernels._memo is memo
    assert all(np.array_equal(a, b) for a, b in zip(memo[1:], before))


def test_covering_verdict_of_a_koenigs_map_sweeps_without_the_memo(no_memo):
    """The covering verdict of a map outside the named families, the Koenigs
    map z/(1 - z) of the logistic generator, passes through the unkeyed sweep:
    the family memo is left as it was, and the predicted radius is that of the
    same map built as a rational family map, to 1e-12 relative."""
    kernels.covered_min_distance(*_family(UnivalentMap.koebe()), 0.1, 0j, 60, 60, BOUNDARY_EPS)
    memo = kernels._memo
    h = koenigs(Generator([0, 1, -1], kind="dilation", tau=0.0, mu=1.0))
    x0, alpha = 0.2 - 0.1j, 0.5
    rep = verify_covering_bound(h, x0, alpha, grid=(60, 60))
    assert rep["pass"]
    assert kernels._memo is memo
    want = verify_covering_bound(UnivalentMap.rational([0, 1], [1, -1]), x0, alpha,
                                 grid=(60, 60))["predicted_radius"]
    assert abs(rep["predicted_radius"] - want) <= 1e-12 * want


# ---------------------------------------------------------- criterion memo

def _family(h):
    return h.family, h.params, h.num, h.den


# the reference sweep reads these, so a test may patch kernels.eval_map
EVAL_MAP, ABS_DERIV = kernels.eval_map, kernels.abs_deriv


def _sweep(h, x0, alpha, shift, grid):
    """(memoized sweep, per-ring reference) about shift * h(x0)."""
    spec = OmegaSpec.build(h, x0, alpha)
    fam = _family(h)
    args = (spec.threshold, shift * complex(EVAL_MAP(*fam, x0)), *grid, BOUNDARY_EPS)
    ref = _per_ring_min_distance(lambda z: EVAL_MAP(*fam, z),
                                 lambda z: ABS_DERIV(*fam, z), *args)
    return kernels.covered_min_distance(*fam, *args), ref


@pytest.fixture
def no_memo(monkeypatch):
    monkeypatch.setattr(kernels, "_memo", None)


def _centre_in_complement(h, x0, alpha, shift):
    """Whether the centre shift * h(x0) has its preimage outside Omega_alpha,
    where the edge sweep's minimum may exceed the all-complement one."""
    spec = OmegaSpec.build(h, x0, alpha)
    centre = shift * complex(EVAL_MAP(*_family(h), x0))
    return h.conformal_radius_array([centre], guess=x0)[0] <= spec.threshold


def _assert_edge_result(got, ref, centre_in_complement):
    """The edge sweep against the per-ring sweep of the whole complement: bit
    for bit, but for a centre with its preimage in the complement, whose edge
    minimum (and its witness) may only be larger."""
    if centre_in_complement:
        assert got[0] >= ref[0] and got[2:] == ref[2:]
    else:
        assert got == ref


@pytest.mark.parametrize("h", ALL_FAMILIES, ids=lambda h: h.family)
def test_memo_sequence_matches_per_ring_loop(h, no_memo):
    """Maps A, B, A, A on each of two grids, each sweep with its own threshold
    and centre: misses and hits alike return the per-ring result bit for bit,
    apart from the minimum about a centre whose preimage is in the complement
    (the half-plane map's shifted steps)."""
    other = ALL_FAMILIES[(ALL_FAMILIES.index(h) + 1) % len(ALL_FAMILIES)]
    steps = [(h, 0.3 + 0.1j, 0.5, 1.0), (other, -0.2j, 0.4, 0.5),
             (h, -0.4 + 0.2j, 0.7, 0.5), (h, 0.1, 0.3, 1.0)]
    for grid in [(400, 400), (401, 7)]:
        for g, x0, alpha, shift in steps:
            inside = _centre_in_complement(g, x0, alpha, shift)
            got, ref = _sweep(g, x0, alpha, shift, grid)
            assert ref[3] > 0
            _assert_edge_result(got, ref, inside)
            assert kernels._memo[0] == (*_family(g), *grid)


@pytest.mark.parametrize("h", ALL_FAMILIES, ids=lambda h: h.family)
def test_memo_hit_evaluates_no_abs_deriv(h, no_memo, monkeypatch):
    """A memo hit reads the criterion grid: the one abs_deriv call left is
    OmegaSpec's |h'(x0)| at its one point."""
    _sweep(h, 0.3 + 0.1j, 0.5, 1.0, (400, 400))
    inside = _centre_in_complement(h, -0.2 + 0.3j, 0.6, 0.5)
    real, calls = kernels.abs_deriv, []

    def counted(*args):
        calls.append(np.size(args[4]))
        return real(*args)

    monkeypatch.setattr(kernels, "abs_deriv", counted)
    got, ref = _sweep(h, -0.2 + 0.3j, 0.6, 0.5, (400, 400))
    _assert_edge_result(got, ref, inside)
    assert calls == [1]


@pytest.mark.parametrize("h", ALL_FAMILIES, ids=lambda h: h.family)
def test_sweep_that_raises_leaves_no_memo_entry(h, no_memo, monkeypatch):
    """A sweep cut short by an exception stores no half-filled grid, and the
    next sweep of that map is a correct miss."""
    other = ALL_FAMILIES[(ALL_FAMILIES.index(h) + 1) % len(ALL_FAMILIES)]
    _sweep(other, 0.3 + 0.1j, 0.5, 1.0, (400, 400))
    real, calls = kernels.abs_deriv, []

    def fail_midway(*args):
        calls.append(None)
        if len(calls) == 5:
            raise FloatingPointError("midway")
        return real(*args)

    monkeypatch.setattr(kernels, "abs_deriv", fail_midway)
    with pytest.raises(FloatingPointError):
        _sweep(h, 0.3 + 0.1j, 0.5, 1.0, (400, 400))
    assert kernels._memo is None
    monkeypatch.setattr(kernels, "abs_deriv", real)
    got, ref = _sweep(h, 0.3 + 0.1j, 0.5, 1.0, (400, 400))
    assert got == ref


@pytest.mark.parametrize("h", ALL_FAMILIES, ids=lambda h: h.family)
def test_stored_criterion_is_read_only(h, no_memo):
    _sweep(h, 0.3 + 0.1j, 0.5, 1.0, (400, 400))
    _, crit = kernels._memo
    radii, ring = kernels.polar_grid(400, 400)
    ref = np.stack([kernels.abs_deriv(*_family(h), r * ring) * (1.0 - r * r) for r in radii])
    assert np.array_equal(crit, ref)
    assert not crit.flags.writeable
    with pytest.raises(ValueError):
        crit[0, 0] = 0.0


@pytest.mark.parametrize("h", ALL_FAMILIES, ids=lambda h: h.family)
def test_grid_above_the_cap_stores_nothing(h, no_memo):
    """Grids of at most MEMO_MAX_POINTS points, the default 400 x 400 among them,
    are kept; a larger grid streams and leaves the memo empty."""
    n = math.isqrt(kernels.MEMO_MAX_POINTS)
    assert 400 * 400 <= n * n == kernels.MEMO_MAX_POINTS
    _sweep(h, 0.3 + 0.1j, 0.5, 1.0, (n, n))
    assert kernels._memo is not None
    got, ref = _sweep(h, 0.3 + 0.1j, 0.5, 1.0, (n + 1, n))
    assert got == ref
    assert kernels._memo is None


@pytest.mark.parametrize("h", ALL_FAMILIES, ids=lambda h: h.family)
def test_grid_above_the_cap_streams_in_block_sized_memory(h, no_memo):
    """A sweep above the cap holds block-sized scratch arrays only: its
    tracemalloc peak stays within sixteen complex blocks (1 MiB), far below the
    25 bytes a point that a kept grid holds."""
    n = math.isqrt(kernels.MEMO_MAX_POINTS)
    tracemalloc.start()
    try:
        got, ref = _sweep(h, 0.3 + 0.1j, 0.5, 1.0, (n + 1, n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == ref
    assert peak <= 16 * 16 * kernels.SWEEP_BLOCK  # a kept grid would hold 6.6 MB


# ------------------------------------------------------------------ edge

X0 = 0.3 + 0.1j


def _edge_points(h, threshold, grid):
    """Reference edge of the grid's region complement, point by point in
    ring-major order: complement points with a neighbour outside the
    complement along the ring or the ray, or on the outermost ring."""
    radii, ring = kernels.polar_grid(*grid)
    out = np.stack([kernels.abs_deriv(*_family(h), r * ring) * (1.0 - r * r) <= threshold
                    for r in radii])
    nr, nt = out.shape
    edge = []
    for k in range(nr):
        for j in range(nt):
            if out[k, j] and (k == nr - 1 or not out[k + 1, j] or (k > 0 and not out[k - 1, j])
                              or not out[k, j - 1] or not out[k, (j + 1) % nt]):
                edge.append(radii[k] * ring[j])
    return np.array(edge)


def _old_edge(below, own, above):
    """The edge mask's first formula, kept as the oracle of ``kernels._edge``:
    the block stacked between its neighbour rings, two rolled copies along
    the ring and a 2-D np.nonzero, as flat ring-major indices."""
    out = np.concatenate([below, own, above[:1]])
    i, j = np.nonzero(own & ~(out[:-2] & out[2:] & np.roll(own, 1, 1) & np.roll(own, -1, 1)))
    return i * own.shape[1] + j


@st.composite
def _edge_blocks(draw):
    """(below, own, above): one ring, 1-5 rings and 1-3 rings of nt in 1-9 points."""
    nt = draw(st.integers(1, 9))

    def rings(k):
        return np.array(draw(st.lists(st.booleans(), min_size=k * nt, max_size=k * nt)),
                        dtype=bool).reshape(k, nt)

    return rings(1), rings(draw(st.integers(1, 5))), rings(draw(st.integers(1, 3)))


@given(_edge_blocks())
@settings(max_examples=300, deadline=None)
def test_edge_mask_matches_the_rolled_formula(blocks):
    """The flat edge mask lists the rolled formula's points, index for index,
    on every block shape down to one ring of one point, where the ring's
    wrap-around neighbours are the point itself."""
    got = kernels._edge(*blocks)
    assert got.dtype.kind == "i"
    assert np.array_equal(got, _old_edge(*blocks))


def test_polar_grid_is_built_once_and_read_only():
    radii, ring = kernels.polar_grid(7, 5)
    again = kernels.polar_grid(7, 5)
    assert again[0] is radii and again[1] is ring
    for a in (radii, ring):
        with pytest.raises(ValueError):
            a[0] = 0.5


def _same(got, expected):
    """Tuple equality that counts a NaN as equal to a NaN (the witness of an
    empty complement)."""
    return len(got) == len(expected) and all(
        a == b or (a != a and b != b) for a, b in zip(got, expected))


@pytest.mark.parametrize("streamed", [False, True], ids=["whole", "streamed"])
@pytest.mark.parametrize("grid", [(1, 1), (2, 1), (1, 2), (2, 2), (5, 2)],
                         ids=lambda g: "x".join(map(str, g)))
@pytest.mark.parametrize("h", ALL_FAMILIES, ids=lambda h: h.family)
def test_sweep_of_tiny_grids_matches_per_ring_loop(h, grid, streamed, no_memo, monkeypatch):
    """Grids of one or two points a ring, whole and streamed a ring a block, at
    a threshold between each two criterion values (K from empty to the whole
    grid): the minimum is the one over the rolled formula's edge, the rim
    minimum and the count of K are the per-ring ones, and the edge minimum is
    at least the per-ring minimum over all of K."""
    if streamed:
        monkeypatch.setattr(kernels, "MEMO_MAX_POINTS", 0)
        monkeypatch.setattr(kernels, "SWEEP_BLOCK", 1)
    fam = _family(h)
    radii, ring = kernels.polar_grid(*grid)
    crit = kernels.criterion(lambda z: kernels.abs_deriv(*fam, z), radii, ring)
    x, u = radii[:, None] * ring, np.unique(crit)
    for threshold in [u[0] - 1.0, *(0.5 * (u[:-1] + u[1:])), u[-1] + 1.0]:
        edge = x.ravel()[_old_edge(np.ones((1, grid[1]), bool), crit <= threshold,
                                   np.zeros((1, grid[1]), bool))]
        for centre in (complex(EVAL_MAP(*fam, X0)), 0.5 * complex(EVAL_MAP(*fam, X0))):
            got = kernels.covered_min_distance(*fam, threshold, centre, *grid, BOUNDARY_EPS)
            ref = _per_ring_min_distance(lambda z: EVAL_MAP(*fam, z),
                                         lambda z: ABS_DERIV(*fam, z),
                                         threshold, centre, *grid, BOUNDARY_EPS)
            best, witness = np.inf, complex(np.nan, np.nan)
            if edge.size:
                d = np.abs(EVAL_MAP(*fam, edge) - centre)
                k = int(np.argmin(d))
                best, witness = float(d[k]), complex(edge[k])
            assert _same(got, (best, witness, *ref[2:]))
            assert got[0] >= ref[0]


def test_per_ring_loop_counts_a_tied_threshold_as_the_sweep_does(no_memo):
    """A threshold equal to a grid point's own criterion puts that point in K,
    in the sweep and in the per-ring loop alike, which reads the same |h'|.
    The complex |h'| differs from it in the last ulp: on Koebe's 5x2 grid,
    at the third smallest criterion, it counts 2 points, not 3."""
    h = UnivalentMap.koebe()
    fam = _family(h)
    radii, ring = kernels.polar_grid(5, 2)
    crit = kernels.criterion(lambda z: kernels.abs_deriv(*fam, z), radii, ring)
    for k, threshold in enumerate(np.unique(crit)):
        got = kernels.covered_min_distance(*fam, threshold, 0j, 5, 2, BOUNDARY_EPS)
        ref = _per_ring_min_distance(lambda z: EVAL_MAP(*fam, z), lambda z: ABS_DERIV(*fam, z),
                                     threshold, 0j, 5, 2, BOUNDARY_EPS)
        assert got[3] == ref[3] == np.sum(crit <= threshold)
        assert got[2] == ref[2]
        if k == 2:
            assert got[3] == 3
            assert np.sum(np.abs(kernels.eval_deriv(*fam, radii[:, None] * ring))
                          * (1.0 - radii[:, None] ** 2) <= threshold) == 2


def _grid_evals(monkeypatch, grid, fail_at=None):
    """Patch kernels.eval_map to record each call's points off the rim circle
    |x| = 1 - BOUNDARY_EPS, which every sweep evaluates; with fail_at the
    fail_at-th such call raises FloatingPointError before it evaluates."""
    rim = (1.0 - BOUNDARY_EPS) * kernels.polar_grid(*grid)[1]
    calls = []

    def counted(family, params, num, den, z):
        if not (np.shape(z) == rim.shape and np.array_equal(z, rim)):
            calls.append(np.array(z))
            if len(calls) == fail_at:
                raise FloatingPointError("midway")
        return EVAL_MAP(family, params, num, den, z)

    monkeypatch.setattr(kernels, "eval_map", counted)
    return calls


@pytest.mark.parametrize("grid", [(400, 400), (401, 7)], ids=["400x400", "401x7"])
@pytest.mark.parametrize("h", ALL_FAMILIES, ids=lambda h: h.family)
def test_image_memo_follows_a_complement_that_grows_shrinks_and_grows(h, grid, no_memo):
    """One map at alpha up, down and up again: the complement grows, shrinks
    and grows past its first size, and every hit on the kept criterion
    returns the per-ring result, bit for bit about a centre in h(Omega_alpha)."""
    sizes = []
    for alpha, shift in [(0.3, 1.0), (0.6, 0.5), (0.4, 1.0), (0.8, 0.5)]:
        inside = _centre_in_complement(h, X0, alpha, shift)
        got, ref = _sweep(h, X0, alpha, shift, grid)
        _assert_edge_result(got, ref, inside)
        sizes.append(ref[3])
    assert 0 < sizes[0] < sizes[2] < sizes[1] < sizes[3]
    assert kernels._memo[0] == (*_family(h), *grid)


@pytest.mark.parametrize("h", ALL_FAMILIES, ids=lambda h: h.family)
def test_miss_evaluates_h_on_no_more_than_its_complement(h, no_memo, monkeypatch):
    """A miss evaluates h in one call, on the edge of its complement: every
    edge point once, in ring-major order, and no other complement point."""
    spec = OmegaSpec.build(h, X0, 0.5)
    calls = _grid_evals(monkeypatch, (400, 400))
    got, ref = _sweep(h, X0, 0.5, 1.0, (400, 400))
    assert got == ref
    assert len(calls) == 1
    assert np.array_equal(calls[0], _edge_points(h, spec.threshold, (400, 400)))
    assert 0 < calls[0].size < ref[3]


@pytest.mark.parametrize("mode", ["hit", "streamed", "no key"])
@pytest.mark.parametrize("h", ALL_FAMILIES, ids=lambda h: h.family)
def test_sweep_evaluates_h_only_on_the_edge_and_the_rim(h, mode, no_memo, monkeypatch):
    """A memo hit, a grid above the cap streamed in blocks of three rings and
    a sweep with no key each evaluate F on the edge of the complement, every
    edge point once in ring-major order, and on the rim circle last; the
    result is the per-ring one about h(x0), which lies in h(Omega_alpha)."""
    grid = (90, 64)
    fam = _family(h)
    spec = OmegaSpec.build(h, X0, 0.5)
    centre = complex(EVAL_MAP(*fam, X0))
    key = None if mode == "no key" else fam
    if mode == "hit":
        kernels.covered_min_distance(*fam, 0.5 * spec.threshold, 0j, *grid, BOUNDARY_EPS)
    if mode == "streamed":
        monkeypatch.setattr(kernels, "MEMO_MAX_POINTS", grid[0] * grid[1] - 1)
        monkeypatch.setattr(kernels, "SWEEP_BLOCK", 3 * grid[1])
    seen = []

    def F(z):
        seen.append(np.array(z))
        return EVAL_MAP(*fam, z)

    got = kernels.min_distance(F, lambda z: kernels.abs_deriv(*fam, z), key,
                               spec.threshold, centre, *grid, BOUNDARY_EPS)
    ref = _per_ring_min_distance(lambda z: EVAL_MAP(*fam, z), lambda z: ABS_DERIV(*fam, z),
                                 spec.threshold, centre, *grid, BOUNDARY_EPS)
    assert got == ref
    assert np.array_equal(np.concatenate(seen[:-1]), _edge_points(h, spec.threshold, grid))
    assert np.array_equal(seen[-1], (1.0 - BOUNDARY_EPS) * kernels.polar_grid(*grid)[1])
    assert len(seen) == 2 or mode == "streamed"
    assert (kernels._memo is not None) == (mode == "hit")


@pytest.mark.parametrize("h", ALL_FAMILIES, ids=lambda h: h.family)
def test_hit_that_raises_leaves_a_sound_memo(h, no_memo, monkeypatch):
    """A hit cut short by an exception in F keeps the memo's criterion, so the
    next sweep of that map is still bit-identical."""
    _sweep(h, X0, 0.3, 1.0, (400, 400))
    _grid_evals(monkeypatch, (400, 400), fail_at=1)
    with pytest.raises(FloatingPointError):
        _sweep(h, X0, 0.5, 1.0, (400, 400))
    assert kernels._memo[0] == (*_family(h), 400, 400)
    monkeypatch.setattr(kernels, "eval_map", EVAL_MAP)
    got, ref = _sweep(h, X0, 0.5, 1.0, (400, 400))
    assert got == ref


def test_centre_outside_omega_measures_zero():
    """A shifted centre whose preimage x1 lies outside Omega_alpha is not in
    h(Omega_alpha): the measured radius is 0.0, and the report fails on the
    radius chain, since delta(x1) <= alpha delta(x0) < |beta| delta(x0)."""
    h, x0, alpha, beta = UnivalentMap.half_plane(), 0.2, 0.3, 0.5 * np.exp(1.3j)
    assert _centre_in_complement(h, x0, alpha, beta)
    rep = verify_shifted_covering_bound(h, x0, alpha, beta)
    assert rep["measured_radius_lower"] == 0.0
    assert not rep["pass"] and rep["reason"] == "radius_chain_violated"
    assert rep["complement_points"] > 0


disk = st.complex_numbers(max_magnitude=0.9, allow_nan=False, allow_infinity=False)


@given(k=st.integers(0, len(ALL_FAMILIES) - 1), x0=disk, c=disk,
       alpha=st.floats(0.05, 0.95))
@settings(max_examples=60, deadline=None)
def test_edge_sweep_is_at_least_the_complement_sweep(k, x0, alpha, c):
    """About any centre h(c), the edge minimum is at least the per-ring minimum
    over the whole complement K, and equal to it when c lies outside K, so
    that h(c) is in h(Omega_alpha) and |h - h(c)| has no zero on K; the rim
    minimum and the complement count are the per-ring ones."""
    h = ALL_FAMILIES[k]
    fam = _family(h)
    spec = OmegaSpec.build(h, x0, alpha)
    args = (spec.threshold, complex(EVAL_MAP(*fam, c)), 48, 40, BOUNDARY_EPS)
    got = kernels.covered_min_distance(*fam, *args)
    ref = _per_ring_min_distance(lambda z: EVAL_MAP(*fam, z), lambda z: ABS_DERIV(*fam, z),
                                 *args)
    c_in_complement = kernels.abs_deriv(*fam, np.array([c]))[0] * (1.0 - abs(c) ** 2) \
        <= spec.threshold
    _assert_edge_result(got, ref, c_in_complement)

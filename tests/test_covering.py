"""Tests for the covering-radius machinery."""

import math
import tracemalloc

import numpy as np
import pytest

from spirallab import kernels
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

from conftest import ALL_CODES, random_disk


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


def test_covering_bound_identity_exact():
    """id covers the full omega image; predicted (1-alpha)/4 is far inside."""
    rep = verify_covering_bound(UnivalentMap.identity(), 0.0, 0.19)
    assert rep.passed
    assert abs(rep.predicted_radius - 0.2025) < 1e-14
    # the actual covered radius is sqrt(1 - alpha) = 0.9
    assert abs(rep.measured_radius_lower - 0.9) < 5e-3


def test_covering_bound_koebe():
    rep = verify_covering_bound(UnivalentMap.koebe(), 0.0, 0.5)
    assert rep.passed
    assert abs(rep.predicted_radius - 0.125) < 1e-14
    assert rep.measured_radius_lower >= 0.125 - rep.tolerance


def test_covering_bound_off_center():
    for x0 in (0.3, 0.5j, -0.6):
        rep = verify_covering_bound(UnivalentMap.koebe(), x0, 0.4)
        assert rep.passed, (x0, rep)


def test_shifted_bound_identity():
    rep = verify_shifted_covering_bound(UnivalentMap.identity(), 0.0, 0.3, 0.5)
    assert rep.passed
    assert abs(rep.predicted_radius - 0.1) < 1e-14
    assert abs(rep.secondary_radius - 0.05) < 1e-14
    assert rep.predicted_radius >= rep.secondary_radius - 1e-12


def test_shifted_bound_complex_beta():
    beta = 0.5 * np.exp(0.7j)
    rep = verify_shifted_covering_bound(UnivalentMap.koebe(), 0.2, 0.2, beta)
    assert rep.passed
    assert rep.predicted_radius >= rep.secondary_radius - 1e-12


def test_shifted_bound_rejects_bad_params():
    h = UnivalentMap.koebe()
    with pytest.raises(ValueError):
        verify_shifted_covering_bound(h, 0.0, 0.6, 0.5)  # alpha >= |beta|
    with pytest.raises(ValueError):
        verify_shifted_covering_bound(h, 0.0, 0.3, 1.2)  # |beta| >= 1


def test_measured_radius_monotone_in_alpha():
    """Bigger alpha shrinks the region, so the covered radius shrinks."""
    h = UnivalentMap.koebe()
    vals = [verify_covering_bound(h, 0.0, a).measured_radius_lower
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


def _per_ring_min_distance(F, dF, threshold, center, nr, nt, boundary_eps):
    """Reference: the covering sweep one ring at a time."""
    radii, ring = kernels.polar_grid(nr, nt)
    best, witness, n_out = np.inf, complex(np.nan, np.nan), 0
    for r in radii:
        x = r * ring
        out = np.abs(dF(x)) * (1.0 - r * r) <= threshold
        if out.any():
            n_out += int(out.sum())
            d = np.abs(F(x[out]) - center)
            i = int(np.argmin(d))
            if d[i] < best:
                best, witness = float(d[i]), complex(x[out][i])
    bmin = float(np.min(np.abs(F((1.0 - boundary_eps) * ring) - center)))
    return best, witness, bmin, n_out


@pytest.mark.parametrize("grid", SWEEP_GRIDS, ids=lambda g: "x".join(map(str, g)))
@pytest.mark.parametrize("h", ALL_CODES, ids=lambda h: h.family)
def test_blocked_sweep_matches_per_ring_loop(h, grid):
    """The family sweep visits the grid in blocks of whole rings and returns the
    per-ring result bit for bit, about h(x0) and about the shifted centre."""
    x0 = 0.3 + 0.1j
    spec = OmegaSpec.build(h, x0, 0.5)
    fam = (h.code, h.params, h.num or None, h.den or None)
    for center in (h.eval(x0), 0.5 * h.eval(x0)):
        got = kernels.covered_min_distance(*fam, spec.threshold, center, *grid, BOUNDARY_EPS)
        ref = _per_ring_min_distance(lambda z: kernels.eval_map(*fam, z),
                                     lambda z: kernels.eval_deriv(*fam, z),
                                     spec.threshold, center, *grid, BOUNDARY_EPS)
        assert ref[3] > 0
        assert got == ref


@pytest.mark.parametrize("grid", [(100, 100), (3, 5000)], ids=["100x100", "3x5000"])
@pytest.mark.parametrize("h", ALL_CODES, ids=lambda h: h.family)
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
    """Maps outside the family codes go through ``kernels.min_distance`` with no
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
            h.eval_array, h.deriv_array, spec.threshold, center, *grid, BOUNDARY_EPS)
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


# ---------------------------------------------------------- criterion memo

def _family(h):
    return h.code, h.params, h.num or None, h.den or None


# the reference sweep reads these, so a test may patch kernels.eval_map
EVAL_MAP, EVAL_DERIV = kernels.eval_map, kernels.eval_deriv


def _sweep(h, x0, alpha, shift, grid):
    """(memoized sweep, per-ring reference) about shift * h(x0)."""
    spec = OmegaSpec.build(h, x0, alpha)
    fam = _family(h)
    args = (spec.threshold, shift * complex(EVAL_MAP(*fam, x0)), *grid, BOUNDARY_EPS)
    ref = _per_ring_min_distance(lambda z: EVAL_MAP(*fam, z),
                                 lambda z: EVAL_DERIV(*fam, z), *args)
    return kernels.covered_min_distance(*fam, *args), ref


@pytest.fixture
def no_memo(monkeypatch):
    monkeypatch.setattr(kernels, "_memo", None)


@pytest.mark.parametrize("h", ALL_CODES, ids=lambda h: h.family)
def test_memo_sequence_matches_per_ring_loop(h, no_memo):
    """Maps A, B, A, A on each of two grids, each sweep with its own threshold
    and centre: misses and hits alike return the per-ring result bit for bit."""
    other = ALL_CODES[(ALL_CODES.index(h) + 1) % len(ALL_CODES)]
    steps = [(h, 0.3 + 0.1j, 0.5, 1.0), (other, -0.2j, 0.4, 0.5),
             (h, -0.4 + 0.2j, 0.7, 0.5), (h, 0.1, 0.3, 1.0)]
    for grid in [(400, 400), (401, 7)]:
        for g, x0, alpha, shift in steps:
            got, ref = _sweep(g, x0, alpha, shift, grid)
            assert ref[3] > 0
            assert got == ref
            assert kernels._memo[0] == (*_family(g), *grid)


@pytest.mark.parametrize("h", ALL_CODES, ids=lambda h: h.family)
def test_memo_hit_evaluates_no_abs_deriv(h, no_memo, monkeypatch):
    _sweep(h, 0.3 + 0.1j, 0.5, 1.0, (400, 400))

    def refuse(*args):
        raise AssertionError("abs_deriv called on a memo hit")

    monkeypatch.setattr(kernels, "abs_deriv", refuse)
    got, ref = _sweep(h, -0.2 + 0.3j, 0.6, 0.5, (400, 400))
    assert got == ref


@pytest.mark.parametrize("h", ALL_CODES, ids=lambda h: h.family)
def test_sweep_that_raises_leaves_no_memo_entry(h, no_memo, monkeypatch):
    """A sweep cut short by an exception stores no half-filled grid, and the
    next sweep of that map is a correct miss."""
    other = ALL_CODES[(ALL_CODES.index(h) + 1) % len(ALL_CODES)]
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


@pytest.mark.parametrize("h", ALL_CODES, ids=lambda h: h.family)
def test_stored_criterion_is_read_only(h, no_memo):
    _sweep(h, 0.3 + 0.1j, 0.5, 1.0, (400, 400))
    _, crit, _, _ = kernels._memo
    radii, ring = kernels.polar_grid(400, 400)
    ref = np.stack([kernels.abs_deriv(*_family(h), r * ring) * (1.0 - r * r) for r in radii])
    assert np.array_equal(crit, ref)
    assert not crit.flags.writeable
    with pytest.raises(ValueError):
        crit[0, 0] = 0.0


@pytest.mark.parametrize("h", ALL_CODES, ids=lambda h: h.family)
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


@pytest.mark.parametrize("h", ALL_CODES, ids=lambda h: h.family)
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


# ------------------------------------------------------------- image memo

X0 = 0.3 + 0.1j


def _grid_evals(monkeypatch, grid, refuse=False, fail_at=None):
    """Patch kernels.eval_map to record the size of each call off the rim
    circle |x| = 1 - BOUNDARY_EPS, which every sweep evaluates; with refuse such
    a call raises AssertionError, and with fail_at the fail_at-th one raises
    FloatingPointError before it evaluates."""
    rim = (1.0 - BOUNDARY_EPS) * kernels.polar_grid(*grid)[1]
    sizes = []

    def counted(code, params, num, den, z):
        if not (np.shape(z) == rim.shape and np.array_equal(z, rim)):
            if refuse:
                raise AssertionError("eval_map called on the grid")
            sizes.append(np.size(z))
            if len(sizes) == fail_at:
                raise FloatingPointError("midway")
        return EVAL_MAP(code, params, num, den, z)

    monkeypatch.setattr(kernels, "eval_map", counted)
    return sizes


def _image_is_the_map(h, grid):
    """Every filled entry of the memo's image is h on its grid point, bit for
    bit.  h is evaluated one ring at a time: numpy runs a product of
    temporaries in place from 2**14 complex entries on, which can move the last
    bit of spiral_koebe's values."""
    _, _, image, filled = kernels._memo
    radii, ring = kernels.polar_grid(*grid)
    ref = np.stack([EVAL_MAP(*_family(h), r * ring) for r in radii])
    assert np.array_equal(image[filled], ref[filled])


@pytest.mark.parametrize("grid", [(400, 400), (401, 7)], ids=["400x400", "401x7"])
@pytest.mark.parametrize("h", ALL_CODES, ids=lambda h: h.family)
def test_image_memo_follows_a_complement_that_grows_shrinks_and_grows(h, grid, no_memo):
    """One map at alpha up, down and up again: the complement grows, shrinks
    inside the filled part and grows past it, and every sweep returns the
    per-ring result bit for bit."""
    sizes = []
    for alpha, shift in [(0.3, 1.0), (0.6, 0.5), (0.4, 1.0), (0.8, 0.5)]:
        got, ref = _sweep(h, X0, alpha, shift, grid)
        assert got == ref
        sizes.append(ref[3])
    assert 0 < sizes[0] < sizes[2] < sizes[1] < sizes[3]
    _image_is_the_map(h, grid)


@pytest.mark.parametrize("h", ALL_CODES, ids=lambda h: h.family)
def test_hit_inside_the_filled_part_evaluates_no_h(h, no_memo, monkeypatch):
    _sweep(h, X0, 0.3, 1.0, (400, 400))
    _sweep(h, X0, 0.8, 1.0, (400, 400))
    _grid_evals(monkeypatch, (400, 400), refuse=True)
    got, ref = _sweep(h, X0, 0.5, 0.5, (400, 400))
    assert got == ref


@pytest.mark.parametrize("h", ALL_CODES, ids=lambda h: h.family)
def test_hit_evaluates_h_only_on_new_points(h, no_memo, monkeypatch):
    """After the miss filled its complement, each hit with a larger complement
    evaluates h only on the points the smaller ones did not hold."""
    _, ref_miss = _sweep(h, X0, 0.3, 1.0, (400, 400))
    sizes = _grid_evals(monkeypatch, (400, 400))
    got, ref = _sweep(h, X0, 0.5, 1.0, (400, 400))
    assert got == ref
    assert 0 < sum(sizes) == ref[3] - ref_miss[3]
    sizes.clear()
    got, ref_big = _sweep(h, X0, 0.8, 0.5, (400, 400))
    assert got == ref_big
    assert 0 < sum(sizes) == ref_big[3] - ref[3]


@pytest.mark.parametrize("h", ALL_CODES, ids=lambda h: h.family)
def test_hit_that_raises_leaves_a_sound_memo(h, no_memo, monkeypatch):
    """A hit cut short by an exception marks only the points it evaluated, so
    the memo stays and the next sweep of that map is still bit-identical."""
    _sweep(h, X0, 0.3, 1.0, (400, 400))
    _sweep(h, X0, 0.5, 1.0, (400, 400))
    _grid_evals(monkeypatch, (400, 400), fail_at=2)
    with pytest.raises(FloatingPointError):
        _sweep(h, X0, 0.8, 1.0, (400, 400))
    assert kernels._memo[0] == (*_family(h), 400, 400)
    _image_is_the_map(h, (400, 400))
    monkeypatch.setattr(kernels, "eval_map", EVAL_MAP)
    got, ref = _sweep(h, X0, 0.8, 0.5, (400, 400))
    assert got == ref
    _image_is_the_map(h, (400, 400))


@pytest.mark.parametrize("h", ALL_CODES, ids=lambda h: h.family)
def test_miss_evaluates_h_on_no_more_than_its_complement(h, no_memo, monkeypatch):
    """A miss evaluates h once on each complement point and fills exactly its
    complement of the image memo."""
    sizes = _grid_evals(monkeypatch, (400, 400))
    got, ref = _sweep(h, X0, 0.5, 1.0, (400, 400))
    assert got == ref
    assert 0 < sum(sizes) == ref[3]
    _, _, _, filled = kernels._memo
    assert np.count_nonzero(filled) == ref[3]
    _image_is_the_map(h, (400, 400))

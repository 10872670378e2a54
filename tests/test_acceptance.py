"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the lines live).
Each test prints exactly one summary line and asserts the criterion at its
stated tolerance.
"""

import json
import time

import numpy as np

from spirallab.cli import main as cli_main
from spirallab.covering import verify_covering_bound, verify_shifted_covering_bound
from spirallab.extensions import (
    BallSpace,
    HomogeneousPolynomial,
    SpiralMatrix,
    automorphism_phi,
    conjugated_action,
    extend_H,
    muir_extend,
    sample_ball,
    semigroup_action,
    verify_invariance,
)
from spirallab.families import UnivalentMap, normalize_at
from spirallab.genext import (
    ExtendedGenerator,
    conjugation_residual,
    dh_tilde_identity_residual,
    flow_ball,
)
from spirallab.semigroups import Generator, koenigs, schroder_residual
from spirallab.sharp_bound import SharpParams, f_sharp, infimum_f, verify_cor_inequality


def report(num, name, ok, detail):
    line = f"[{num:2d}] {'PASS' if ok else 'FAIL'}  {name}: {detail}"
    print(line)
    assert ok, line


def sweep_families():
    return {
        "identity": UnivalentMap.identity(),
        "koebe": UnivalentMap.koebe(),
        "mobius_0.3": UnivalentMap.mobius_spiral(0.3),
        "mobius_0.3i": UnivalentMap.mobius_spiral(0.5j * 0.6),
    }


X0S = (0.0, 0.3, 0.5j, -0.6)


def test_01_covering_sweep():
    t0 = time.perf_counter()
    worst = np.inf
    n = 0
    for name, h in sweep_families().items():
        for x0 in X0S:
            for alpha in np.arange(0.1, 0.95, 0.1):
                rep = verify_covering_bound(h, x0, float(alpha), grid=(400, 400))
                slack = rep["measured_radius_lower"] - (
                    rep["predicted_radius"] - rep["tolerance"])
                worst = min(worst, slack)
                n += 1
                assert rep["pass"], (name, x0, alpha, rep)
    dt = time.perf_counter() - t0
    report(1, "covering-bound sweep", worst >= 0 and dt < 60.0,
           f"{n} cases, worst slack {worst:+.2e}, {dt:.1f}s (< 60s)")


def test_02_shifted_covering_sweep():
    t0 = time.perf_counter()
    worst = np.inf
    chain = np.inf
    n = 0
    for name, h in sweep_families().items():
        for x0 in X0S:
            for t in (0.25, 1.0, 3.0):
                beta = np.exp(-t)
                alpha = 0.5 * abs(beta)
                rep = verify_shifted_covering_bound(h, x0, alpha, beta, grid=(400, 400))
                worst = min(worst, rep["measured_radius_lower"]
                            - (rep["predicted_radius"] - rep["tolerance"]))
                chain = min(chain, rep["predicted_radius"] - rep["secondary_radius"])
                n += 1
                assert rep["pass"], (name, x0, t, rep)
    dt = time.perf_counter() - t0
    report(2, "shifted-center covering sweep",
           worst >= 0 and chain >= -1e-12,
           f"{n} cases, worst slack {worst:+.2e}, "
           f"bound chain min {chain:+.2e} >= -1e-12, {dt:.1f}s")


def test_03_distortion_oracle():
    rng = np.random.default_rng(2024)
    violations = 0
    total = 0
    for name, h in sweep_families().items():
        x0 = np.sqrt(rng.uniform(0, 0.8**2, 100)) * np.exp(
            2j * np.pi * rng.uniform(size=100))
        for c in x0:
            g = normalize_at(h, complex(c))
            z = np.sqrt(rng.uniform(0, 0.98**2, 100)) * np.exp(
                2j * np.pi * rng.uniform(size=100))
            rho = np.abs(z)
            dlo = (1 - rho) / (1 + rho) ** 3
            vlo = rho / (1 + rho) ** 2
            violations += int(np.sum(np.abs(g.deriv_array(z)) < dlo - 1e-12))
            violations += int(np.sum(np.abs(g.eval_array(z)) < vlo - 1e-12))
            total += 2 * len(z)
    report(3, "Koebe distortion oracle", violations == 0,
           f"{total} bound checks over 10^4 (x0, z) per family, "
           f"{violations} violations")


def test_04_koenigs_checkpoints():
    zs = np.sqrt(np.random.default_rng(7).uniform(0, 0.9**2, 400)) * np.exp(
        2j * np.pi * np.random.default_rng(8).uniform(size=400))
    g1 = Generator([0, 1, -1], kind="dilation", tau=0.0, mu=1.0)
    h1 = koenigs(g1)
    r1 = float(np.max(np.abs(h1.eval_array(zs) - zs / (1 - zs))))
    g2 = Generator([-1, 0, 1], kind="hyperbolic", tau=1.0, mu=2.0)
    h2 = koenigs(g2)
    r2 = float(np.max(np.abs(h2.eval_array(zs) - (1 - zs) / (1 + zs))))
    sch = max(schroder_residual(h, g, t, zs[:100])
              for h, g in ((h1, g1), (h2, g2)) for t in (0.25, 1.0, 3.0))
    ok = r1 <= 1e-7 and r2 <= 1e-7 and sch <= 1e-6
    report(4, "Koenigs + Schroeder checkpoints", ok,
           f"grid residuals {r1:.1e}, {r2:.1e} (<= 1e-7); "
           f"Schroeder residual {sch:.1e} (<= 1e-6)")


def test_05_sharp_bound():
    t0 = time.perf_counter()
    worst = 0.0
    for lam in (1 + 1j, 2 - 3j, 0.5 + 5j):
        for r in (1.0, 2.0, 3.0):
            p = SharpParams(lam=lam, r=r)
            ineq = verify_cor_inequality(p)
            worst = max(worst, abs(infimum_f(p, ineq) - p.limit_zero))
            assert ineq["min_margin"] > 0, (lam, r)
            t_tail = max(50.0 / (p.a * r), 20 * np.pi / (abs(p.b) * r))
            assert abs(f_sharp(p, t_tail) - 1.0) <= 1e-6, (lam, r)
    dt = time.perf_counter() - t0
    report(5, "sharp coefficient bound", worst <= 1e-3 and dt < 5.0,
           f"9 (lambda, r) pairs, worst infimum error {worst:.1e} (<= 1e-3), "
           f"margins > 0, tail -> 1, {dt:.2f}s (< 5s)")


def test_06_muir_invariance():
    t0 = time.perf_counter()
    h = UnivalentMap.koebe()
    fails = 0
    checked = 0
    for m in (1, 2):
        sp = BallSpace(r=2.0, m=m)
        for lam in (1.0, 1 + 1j, 2 - 3j):
            lam = complex(lam)
            q = 0.25 * lam.real / abs(lam)
            Q = HomogeneousPolynomial.monomial(2, m, coef=q, index=0)
            out = verify_invariance(h, 1.0, lam, sp, Q,
                                    times=[0.1, 0.5, 1.0, 2.0, 5.0],
                                    n_samples=10_000, mode="muir", seed=99)
            fails += out["failures"]
            checked += out["checked"]
    dt = time.perf_counter() - t0
    report(6, "Muir-shear invariance sweep", fails == 0 and dt < 120.0,
           f"{checked} memberships across m in {{1,2}} x 3 lambda, "
           f"{fails} failures, {dt:.1f}s (< 120s)")


def test_07_gamma_disk():
    h = UnivalentMap.koebe()
    sp = BallSpace(r=2.0, m=1)
    Q = HomogeneousPolynomial.zero(2, 1)
    out = verify_invariance(h, 1.0, 1.0, sp, Q,
                            times=[0.1, 0.5, 1.0, 2.0, 5.0],
                            n_samples=1000, mode="gamma", seed=17,
                            n_gamma=16, gamma_frac=0.999)
    report(7, "covering gamma-disk at 0.999 R_t",
           out["failures"] == 0,
           f"{out['checked']} perturbed memberships, "
           f"{out['failures']} failures")


def test_08_generator_extension():
    bases = (
        Generator([0, 1], kind="dilation", tau=0.0, mu=1.0),
        Generator([0, 1, -1], kind="dilation", tau=0.0, mu=1.0),
        Generator([-1, 0, 1], kind="hyperbolic", tau=1.0, mu=2.0),
    )
    worst_conj = 0.0
    worst_dh = 0.0
    exits = 0
    flows = 0
    rng = np.random.default_rng(23)
    for base in bases:
        h = koenigs(base)
        for r in (1, 2):
            sp = BallSpace(r=float(r), m=1)
            for q in (0.0, r * 1.0 / 4.0):
                Q = (HomogeneousPolynomial.monomial(r, 1, coef=q, index=0)
                     if q else HomogeneousPolynomial.zero(r, 1))
                g = ExtendedGenerator(base=base, lam=1.0, space=sp, Q=Q)
                xs, ys = sample_ball(sp, 500, rng)
                x8 = 0.8 * xs
                worst_conj = max(worst_conj, conjugation_residual(g, h, x8, ys))
                worst_dh = max(worst_dh,
                               dh_tilde_identity_residual(g, h, x8[:25], ys[:25]))
                # nine scaled starts and the last unscaled sample
                starts = (np.r_[x8[:9], xs[-1]], np.r_[ys[:9], ys[-1:]])
                flow = flow_ball(g, *starts, T=5.0)
                exits += int(np.sum(flow.exited))
                flows += len(flow.reached)
    ok = worst_conj <= 1e-8 and worst_dh <= 1e-9 and exits == 0
    report(8, "perturbed generator extension", ok,
           f"conjugation residual {worst_conj:.1e} (<= 1e-8), "
           f"DH.DH^-1 residual {worst_dh:.1e} (<= 1e-9), "
           f"ball exits {exits}/{flows} flows over T=5")


def test_09_algebraic_identities():
    rng = np.random.default_rng(31)
    h = UnivalentMap.koebe()
    sp = BallSpace(r=2.0, m=1)
    Q = HomogeneousPolynomial.monomial(2, 1, coef=0.25, index=0)
    A = SpiralMatrix(mu=1 + 0.5j, lam=0.7 - 0.2j, r=2.0)
    worst = 0.0
    for _ in range(200):
        z = complex(*rng.normal(size=2)) * 0.3
        w = (rng.normal(size=1) + 1j * rng.normal(size=1)) * 0.3
        s, t = rng.uniform(0.05, 2.0, size=2)
        # diagonal action semigroup law
        z1, w1 = semigroup_action(A, s, *semigroup_action(A, t, z, w))
        z2, w2 = semigroup_action(A, s + t, z, w)
        worst = max(worst, abs(z1 - z2), float(np.max(np.abs(w1 - w2))))
        # conjugated action semigroup law
        z1, w1 = conjugated_action(A, Q, s, *conjugated_action(A, Q, t, z, w))
        z2, w2 = conjugated_action(A, Q, s + t, z, w)
        worst = max(worst, abs(z1 - z2), float(np.max(np.abs(w1 - w2))))
        # shear round trip
        zr, wr = automorphism_phi(Q, *automorphism_phi(Q, z, w), inverse=True)
        worst = max(worst, abs(zr - z), float(np.max(np.abs(wr - w))))
    # muir_extend == shear after plain extension
    xs, ys = sample_ball(sp, 200, rng)
    for i in range(len(xs)):
        zm, wm = muir_extend(h, sp, Q, xs[i], ys[i])
        zc, wc = automorphism_phi(Q, *extend_H(h, sp, xs[i], ys[i]))
        worst = max(worst, abs(zm - zc), float(np.max(np.abs(wm - wc))))
    report(9, "algebraic identities", worst <= 1e-14,
           f"semigroup laws, shear round trip, muir = shear o H: "
           f"worst deviation {worst:.1e} (<= 1e-14)")


def test_10_cli_determinism(tmp_path):
    q = tmp_path / "q.json"
    q.write_text(json.dumps(
        {"degree": 2, "terms": [{"exps": [2], "coef": [0.25, 0]}]}))
    hashes = []
    for trial in (1, 2):
        out = tmp_path / f"rep{trial}.json"
        code = cli_main([
            "extend", "--fn", "koebe", "--r", "2", "--m", "1",
            "--Q", str(q), "--mu", "1,0", "--lambda", "1,0",
            "--samples", "2000", "--times", "0.1,1,5", "--seed", "42",
            "--out", str(out)])
        assert code == 0
        hashes.append(json.loads(out.read_text())["determinism_hash"])
    sb = []
    for trial in (1, 2):
        out = tmp_path / f"sb{trial}.json"
        assert cli_main(["sharp-bound", "--lambda", "2,-3", "--r", "2",
                         "--out", str(out)]) == 0
        sb.append(json.loads(out.read_text())["determinism_hash"])
    ok = hashes[0] == hashes[1] and sb[0] == sb[1]
    report(10, "CLI determinism", ok,
           f"extend hash {hashes[0][:12]}.. and sharp-bound hash "
           f"{sb[0][:12]}.. stable across reruns")

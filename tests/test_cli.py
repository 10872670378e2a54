"""End-to-end tests of the spirallab command line interface."""

import csv
import json
import re

import numpy as np
import pytest

from spirallab.cli import build_parser, main
from spirallab.extensions import (BallSpace, HomogeneousPolynomial, sample_ball, sup_norm_Q,
                                  sup_norm_Q_bound)
from spirallab.genext import ExtendedGenerator, flow_ball
from spirallab.semigroups import Generator
from spirallab.report import SCHEMA, canonical_bytes, determinism_hash, write_report
from spirallab.sharp_bound import SharpParams, f_sharp


def run(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main([*argv, "--out", str(out)])
    payload = json.loads(out.read_text()) if out.exists() else None
    return code, payload


def test_covering_pass(tmp_path):
    code, rep = run(tmp_path, "covering", "--fn", "koebe",
                    "--x0", "0,0", "--alpha", "0.5")
    assert code == 0
    assert rep["schema"] == SCHEMA
    assert rep["pass"] is True
    assert abs(rep["predicted_radius"] - 0.125) < 1e-12
    assert rep["measured_radius_lower"] >= 0.125 - rep["tolerance"]


def test_covering_shifted(tmp_path):
    code, rep = run(tmp_path, "covering", "--fn", "identity",
                    "--x0", "0,0", "--alpha", "0.3", "--beta", "0.5,0")
    assert code == 0
    assert abs(rep["predicted_radius"] - 0.1) < 1e-12
    assert abs(rep["secondary_radius"] - 0.05) < 1e-12
    assert "reason" not in rep  # passing shifted reports keep their hashes


@pytest.mark.parametrize("fn,x0,alpha,beta", [
    ("half_plane", "0.3,0", "0.2", "0.3,0.3"),
    ("spiral_koebe", "0.5854,-0.1318", "0.5723", "0.7449,0"),
], ids=["complex_beta", "not_starlike"])
def test_covering_shifted_radius_chain_violated(tmp_path, fn, x0, alpha, beta):
    """A complex beta, or a spirallike map that is not starlike, can put the
    shifted radius below its secondary bound: a failed verdict with a reason."""
    if fn == "spiral_koebe":
        fn = str(tmp_path / "spiral.json")
        (tmp_path / "spiral.json").write_text(
            json.dumps({"family": "spiral_koebe", "theta": 0.5}))
    code, rep = run(tmp_path, "covering", "--fn", fn, f"--x0={x0}",
                    "--alpha", alpha, f"--beta={beta}")
    assert code == 1
    assert rep["pass"] is False
    assert rep["reason"] == "radius_chain_violated"
    assert rep["predicted_radius"] < rep["secondary_radius"]
    assert rep["complement_points"] > 0


def test_covering_region_csv(tmp_path):
    """--dump-region writes the grid the verdict swept: one row per point of
    --grid, and its rows outside Omega_alpha are the report's
    complement_points."""
    csv_path = tmp_path / "region.csv"
    code, rep = run(tmp_path, "covering", "--fn", "koebe", "--x0", "0,0",
                    "--alpha", "0.5", "--grid", "40,40", "--dump-region", str(csv_path))
    assert code == 0
    with open(csv_path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["x_re", "x_im", "in_omega"]
    assert len(rows) == 1600
    assert rep["complement_points"] > 0
    assert sum(row[2] == "0" for row in rows) == rep["complement_points"]


@pytest.mark.parametrize("den,code", [([0, 1], 2), ([1, -2], 2), ([1, -1], 0)],
                         ids=["pole_at_0", "pole_at_half", "pole_on_circle"])
def test_covering_refuses_a_rational_map_with_a_pole_in_the_disk(tmp_path, capsys, den, code):
    """z / den(z) with a root of den inside the disk is not a disk map: a usage
    error, not a verdict.  A pole on the circle, as in z / (1 - z), is allowed."""
    spec = tmp_path / "rational.json"
    spec.write_text(json.dumps({"family": "rational", "num": [0, 1], "den": den}))
    got, rep = run(tmp_path, "covering", "--fn", str(spec), "--x0", "0.3,0", "--alpha", "0.5")
    assert got == code
    if code == 2:
        assert rep is None
        assert "root inside the disk" in capsys.readouterr().err
    else:
        assert rep["pass"]


def test_koenigs(tmp_path):
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps(
        {"poly": [[0, 0], [1, 0], [-1, 0]], "kind": "dilation",
         "tau": [0, 0], "mu": [1, 0]}))
    csv_path = tmp_path / "h.csv"
    code, rep = run(tmp_path, "koenigs", "--gen", str(gen),
                    "--out-csv", str(csv_path))
    assert code == 0 and rep["pass"]
    assert rep["linearization_residual"] <= 1e-8
    assert csv_path.exists()


def test_flow_exponential(tmp_path):
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps(
        {"poly": [[0, 0], [1, 0]], "kind": "dilation",
         "tau": [0, 0], "mu": [1, 0]}))
    code, rep = run(tmp_path, "flow", "--gen", str(gen),
                    "--z0", "0.5,0", "--t", "1.0")
    assert code == 0
    import math
    assert abs(rep["endpoint"][0] - 0.5 * math.exp(-1)) < 1e-8
    assert abs(rep["endpoint"][1]) < 1e-10


def test_spiral_check(tmp_path):
    code, rep = run(tmp_path, "spiral-check", "--fn", "koebe", "--mu", "1,0")
    assert code == 0 and rep["margin"] > 0
    code, rep = run(tmp_path, "spiral-check", "--fn", "koebe",
                    "--mu", "0.05,1")
    assert code == 1 and rep["margin"] < 0


def test_sharp_bound(tmp_path):
    code, rep = run(tmp_path, "sharp-bound", "--lambda", "1,1", "--r", "1")
    assert code == 0 and rep["pass"]
    assert abs(rep["infimum"] - 0.5) < 1e-3
    assert abs(rep["limit_zero"] - 0.5) < 1e-12


@pytest.mark.parametrize("lam", ["1e-3,1", "1e-6,1"])
def test_sharp_bound_passes_for_a_small_real_part(tmp_path, lam):
    """At Re lambda = 1e-3 and 1e-6 the strict margin is ~4e-17 and ~4e-20,
    below the rounding of 1 - |e| and |1 - e|; from expm1 it stays positive and
    the true bound passes."""
    code, rep = run(tmp_path, "sharp-bound", f"--lambda={lam}")
    assert code == 0 and rep["pass"]
    assert rep["inequality_margin"]["min_margin"] > 0
    assert rep["infimum"] == rep["limit_zero"]


@pytest.mark.parametrize("lam", ["1,1e-6", "2,1e-5", "0.8,-0.4", "0.8,0.4", "1,0.5",
                                 "1,-0.5", "1,0.001", "1,0.001 --r=2", "1,0.001 --r=3"])
def test_sharp_bound_passes_for_a_nearly_real_lambda(tmp_path, lam):
    """At Im lambda = 1e-6 and 1e-5 the strict margin is ~4e-26 and ~8e-24, the
    O((Im lambda)^2) difference of two O(1e-4) terms, far below their rounding;
    in closed form it stays positive and the true bound passes.  The infimum
    reported is the limit itself, never a value rounded a few ulp below it."""
    code, rep = run(tmp_path, "sharp-bound", *f"--lambda={lam}".split())
    assert code == 0 and rep["pass"]
    assert rep["inequality_margin"]["min_margin"] > 0
    assert rep["infimum"] == rep["limit_zero"]


def test_sharp_bound_margin_below_the_smallest_double_is_undecided(tmp_path, capsys):
    """At Im lambda = 1e-300 the true margin, ~4e-614, reads 0.0: undecided
    (exit 3), not failed; at 1e-150 it is ~4.2e-314, a subnormal, and passes."""
    code, rep = run(tmp_path, "sharp-bound", "--lambda=1,1e-300")
    assert code == 3 and rep is None
    assert capsys.readouterr().err.startswith(
        "error: undecided: MarginUnderflow: the margin underflows to 0.0 at t = ")
    code, rep = run(tmp_path, "sharp-bound", "--lambda=1,1e-150")
    assert code == 0 and rep["pass"]
    assert 0 < rep["inequality_margin"]["min_margin"] < 1e-300


def test_sharp_bound_dump_curve(tmp_path):
    """--dump-curve writes f on 2000 log-spaced times from 1e-6 to 50/(Re lambda r)."""
    curve = tmp_path / "f.csv"
    code, rep = run(tmp_path, "sharp-bound", "--lambda", "1,0.5", "--r", "2",
                    "--dump-curve", str(curve))
    assert code == 0 and rep["pass"]
    with open(curve, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["t", "f"]
    ts = np.geomspace(1e-6, 50.0 / (1.0 * 2), 2000)
    want = np.column_stack([ts, f_sharp(SharpParams(lam=1 + 0.5j, r=2), ts)])
    assert np.array(rows, dtype=float).tolist() == want.tolist()


@pytest.mark.parametrize("tmax", ["5", "nan", "-1"])
def test_sharp_bound_refuses_tmax(tmax):
    """The search window follows from lambda and r: --tmax is no option."""
    with pytest.raises(SystemExit) as e:
        main(["sharp-bound", "--lambda", "1,0.5", f"--tmax={tmax}"])
    assert e.value.code == 2


ENVELOPE = {"schema", "tool_version", "subcommand", "inputs", "pass", "timing_s",
            "determinism_hash"}


@pytest.mark.parametrize("argv,findings", [
    (("covering", "--fn", "koebe", "--x0", "0.2,0.1", "--alpha", "0.5", "--grid", "60,60"),
     {"predicted_radius", "measured_radius_lower", "center", "grid", "min_witness",
      "tolerance", "secondary_radius", "complement_points"}),
    (("koenigs", "--gen", None), {"linearization_residual", "n_samples"}),
    (("flow", "--gen", None, "--z0", "0.5,0", "--t", "1"),
     {"endpoint", "steps", "local_error_estimate"}),
    (("spiral-check", "--gen", None), {"criterion", "margin"}),
    (("extend", "--fn", "koebe", "--r", "1", "--mu", "1,0", "--lambda", "1,0",
      "--samples", "50"),
     {"mode", "n_samples", "times", "checked", "failures", "witnesses", "sup_norm_Q",
      "bound"}),
    (("sharp-bound", "--lambda", "1,0.5"),
     {"infimum", "limit_zero", "inequality_margin", "f_at_tmax"}),
    (("gen-extend", "--gen", None, "--lambda", "1,0", "--r", "2", "--samples", "10",
      "--flows", "2", "--T", "1"),
     {"conjugation_residual", "dh_identity_residual", "ball_exits", "flows", "ode_steps"}),
], ids=["covering", "koenigs", "flow", "spiral-check", "extend", "sharp-bound",
        "gen-extend"])
def test_report_envelope_and_stdout(tmp_path, capsys, argv, findings):
    """Each report is the one envelope around its subcommand's own findings, and
    the report printed without --out is the report written with it."""
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps(
        {"poly": [[0, 0], [1, 0], [-1, 0]], "kind": "dilation",
         "tau": [0, 0], "mu": [1, 0]}))
    argv = [str(gen) if a is None else a for a in argv]
    code, written = run(tmp_path, *argv)
    assert code == 0
    assert set(written) == ENVELOPE | findings
    assert written["subcommand"] == argv[0]
    capsys.readouterr()
    assert main(argv) == 0
    printed = _strict_loads(capsys.readouterr().out)
    assert printed["determinism_hash"] == written["determinism_hash"]
    for rep in (written, printed):
        rep.pop("timing_s")
        rep["inputs"].pop("out", None)
    assert printed == written


def test_extend_and_determinism(tmp_path):
    q = tmp_path / "q.json"
    q.write_text(json.dumps(
        {"degree": 2, "terms": [{"exps": [2], "coef": [0.25, 0]}]}))
    args = ("extend", "--fn", "koebe", "--r", "2", "--m", "1",
            "--Q", str(q), "--mu", "1,0", "--lambda", "1,0",
            "--samples", "300", "--times", "0.5,2", "--seed", "11")
    code1, rep1 = run(tmp_path, *args)
    code2, rep2 = run(tmp_path, *args)
    assert code1 == code2 == 0
    assert rep1["failures"] == 0
    assert rep1["determinism_hash"] == rep2["determinism_hash"]
    # and the hash actually covers the payload
    assert rep1["determinism_hash"] == determinism_hash(
        {k: v for k, v in rep1.items() if k != "determinism_hash"})


def test_parser_is_built_once_and_reports_do_not_leak(tmp_path):
    """main reuses one parser per process; a covering report after an extend
    hashes the same as before it."""
    cover = ("covering", "--fn", "half_plane", "--x0", "0.3,0.1", "--alpha", "0.4",
             "--grid", "60,60")
    code1, rep1 = run(tmp_path, *cover)
    code2, rep2 = run(tmp_path, "extend", "--fn", "koebe", "--r", "1", "--mu", "1,0",
                      "--lambda", "1,0", "--samples", "50", "--seed", "3")
    code3, rep3 = run(tmp_path, *cover)
    assert code1 == code2 == code3 == 0
    assert rep1["determinism_hash"] == rep3["determinism_hash"]
    assert rep1["inputs"] == rep3["inputs"]
    assert build_parser() is build_parser()


@pytest.mark.parametrize("r", [1, 2])
def test_extend_reports_exact_sup_norm_of_one_term(tmp_path, r):
    """sup |c y1^r| over the Euclidean unit sphere of C^2 is |c|, reported
    exactly; a sum of two terms is still sampled, below the upper bound."""
    c = complex(0.15, -0.2)
    argv = ("extend", "--fn", "half_plane", "--r", str(r), "--m", "2", "--mu", "1,0",
            "--lambda", "1,0", "--samples", "50", "--times", "0.5", "--seed", "5")
    q = tmp_path / "q.json"
    one = [{"exps": [r, 0], "coef": [c.real, c.imag]}]
    q.write_text(json.dumps({"degree": r, "terms": one}))
    code, rep = run(tmp_path, *argv, "--Q", str(q))
    assert code == 0
    assert rep["sup_norm_Q"] == abs(c)
    two = one + [{"exps": [r - 1, 1], "coef": [0.05, 0.0]}]
    q.write_text(json.dumps({"degree": r, "terms": two}))
    code, rep = run(tmp_path, *argv, "--Q", str(q))
    Q = HomogeneousPolynomial.from_spec({"degree": r, "terms": two})
    sp = BallSpace(r=r, m=2)
    assert code == 0
    assert rep["sup_norm_Q"] == sup_norm_Q(Q, sp, samples=20_000, seed=5)
    assert rep["sup_norm_Q"] <= sup_norm_Q_bound(Q, sp)


def test_gen_extend(tmp_path):
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps(
        {"poly": [[0, 0], [1, 0], [-1, 0]], "kind": "dilation",
         "tau": [0, 0], "mu": [1, 0]}))
    q = tmp_path / "q.json"
    q.write_text(json.dumps(
        {"degree": 2, "terms": [{"exps": [2], "coef": [0.25, 0]}]}))
    code, rep = run(tmp_path, "gen-extend", "--gen", str(gen),
                    "--lambda", "1,0", "--r", "2", "--Q", str(q),
                    "--samples", "40", "--flows", "3", "--T", "2")
    assert code == 0 and rep["pass"]
    assert rep["conjugation_residual"] <= 1e-8
    assert rep["dh_identity_residual"] <= 1e-9
    assert rep["ball_exits"] == 0


@pytest.mark.parametrize("flows", [0, 3, 7])
def test_gen_extend_dump_traj(tmp_path, flows):
    """--dump-traj writes one block of checkpoint rows per flow, the rows of
    flow_ball on the command's own seeded samples."""
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps(
        {"poly": [[0, 0], [1, 0], [-1, 0]], "kind": "dilation",
         "tau": [0, 0], "mu": [1, 0]}))
    q = tmp_path / "q.json"
    q.write_text(json.dumps(
        {"degree": 2, "terms": [{"exps": [2, 0], "coef": [0.25, 0]}]}))
    traj = tmp_path / "traj.csv"
    code, rep = run(tmp_path, "gen-extend", "--gen", str(gen), "--lambda", "1,0",
                    "--r", "2", "--m", "2", "--Q", str(q), "--samples", "5",
                    "--flows", str(flows), "--T", "1.5", "--seed", "4",
                    "--dump-traj", str(traj))
    assert code == 0 and rep["ball_exits"] == 0
    assert rep["flows"] == min(flows, 5)
    with open(traj, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["t", "x_re", "x_im", "y0_re", "y0_im", "y1_re", "y1_im"]
    rows = [[float(v) for v in row] for row in rows]
    starts = [k for k, row in enumerate(rows) if row[0] == 0.0]
    assert len(starts) == rep["flows"]
    assert not rows or starts[0] == 0
    for a, b in zip(starts, starts[1:] + [len(rows)]):
        ts = np.array([row[0] for row in rows[a:b]])
        assert np.allclose(ts, 1.5 / 50 * np.arange(b - a), rtol=0, atol=1e-14)
    space = BallSpace(r=2, m=2)
    g = ExtendedGenerator(
        base=Generator([0, 1, -1], kind="dilation", tau=0, mu=1), lam=1.0,
        space=space, Q=HomogeneousPolynomial.build(2, 2, {(2, 0): 0.25}))
    xs, ys = sample_ball(space, 5, np.random.default_rng(4))
    flow = flow_ball(g, xs[:flows], ys[:flows], 1.5)
    assert rows == [[flow.t[k], *flow.v[k, i].view(float)]
                    for i, n in enumerate(flow.reached) for k in range(n)]


def test_usage_errors_exit_2(tmp_path):
    assert main(["covering", "--fn", "koebe", "--x0", "2,0",
                 "--alpha", "0.5"]) == 2
    assert main(["covering", "--fn", "koebe", "--x0", "0,0",
                 "--alpha", "0.9", "--beta", "0.5,0"]) == 2
    assert main(["flow", "--gen", "/nonexistent.json",
                 "--z0", "0,0", "--t", "1"]) == 2


@pytest.mark.parametrize("argv", [
    ("flow", "--z0", "0.3,0", "--t", "nan"),
    ("flow", "--z0", "0.3,0", "--t", "inf"),
    ("gen-extend", "--lambda", "1,0", "--r", "2", "--samples", "5", "--T", "nan"),
    ("gen-extend", "--lambda", "1,0", "--r", "2", "--samples", "5", "--T", "nan",
     "--flows", "0"),
    ("gen-extend", "--lambda", "1,0", "--r", "2", "--samples", "5", "--flows=-1"),
    ("gen-extend", "--lambda", "1,0", "--r", "2", "--samples", "0"),
    ("koenigs", "--grid", "0"),
    ("koenigs", "--grid=-8"),
    ("koenigs", "--grid", "1"),
    ("koenigs", "--grid", "9"),
    ("koenigs", "--grid", "15"),
    ("koenigs", "--grid", "17"),
], ids=["flow_t_nan", "flow_t_inf", "gen_extend_T_nan", "gen_extend_T_nan_no_flows",
        "gen_extend_negative_flows", "gen_extend_no_samples", "koenigs_grid_zero",
        "koenigs_grid_negative", "koenigs_grid_1", "koenigs_grid_9", "koenigs_grid_15",
        "koenigs_grid_17"])
def test_bad_times_and_counts_exit_2(tmp_path, capsys, argv):
    """A non-finite time or a count out of range is an input error (exit 2, no
    report), not a pass over an empty or NaN flow or a silently resized grid:
    koenigs --grid is a sample count, a multiple of 8 that is at least 16."""
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps({"poly": [[0, 0], [1, 0], [-1, 0]], "kind": "dilation",
                               "tau": [0, 0], "mu": [1, 0]}))
    code, rep = run(tmp_path, argv[0], "--gen", str(gen), *argv[1:])
    assert code == 2
    assert rep is None
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("mu", ["0", "-1,0", "0,1"])
def test_spiral_check_refuses_re_mu_not_positive(tmp_path, capsys, mu):
    """The margin is at most Re mu, so koebe with mu = 0 passed with margin
    -0.0: a multiplier with Re mu <= 0 is an input error (exit 2, no report)."""
    code, rep = run(tmp_path, "spiral-check", "--fn", "koebe", f"--mu={mu}")
    assert code == 2
    assert rep is None
    assert capsys.readouterr().err.startswith("error: spiral multiplier needs Re mu > 0")


@pytest.mark.parametrize("cmd,option,spec", [
    ("covering", "--fn", {"family": "mobius_spiral", "c": "0.3"}),
    ("covering", "--fn", {"family": "mobius_spiral", "c": [0.3]}),
    ("covering", "--fn", {"family": "mobius_spiral", "c": None}),
    ("covering", "--fn", [1, 2]),
    ("koenigs", "--gen", {"poly": 5}),
    ("koenigs", "--gen", {"poly": [[0, 0], [1, 0], [-1, 0]], "tau": "x"}),
    ("extend", "--Q", {"degree": 2, "terms": [{"exps": 2, "coef": [1, 0]}]}),
], ids=["c_string", "c_one_number", "c_null", "not_an_object", "poly_number",
        "tau_string", "exps_number"])
def test_malformed_specs_exit_2(tmp_path, capsys, cmd, option, spec):
    """A spec of the wrong JSON shape is an input error (exit 2, no report),
    not a traceback that exits 1 as a checked failure would."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    args = {"covering": ("--x0", "0,0", "--alpha", "0.5"),
            "koenigs": (),
            "extend": ("--fn", "koebe", "--r", "2", "--mu", "1,0", "--lambda", "1,0")}[cmd]
    code, rep = run(tmp_path, cmd, option, str(path), *args)
    assert code == 2
    assert rep is None
    assert capsys.readouterr().err.startswith("error: bad ")


@pytest.mark.parametrize("cmd,option,spec", [
    ("covering", "--fn", '{"family": "mobius_spiral", "c": NaN}'),
    ("covering", "--fn", '{"family": "spiral_koebe", "theta": NaN}'),
    ("covering", "--fn", '{"family": "spiral_koebe", "theta": -Infinity}'),
    ("covering", "--fn", '{"family": "mobius_spiral", "c": [1e999, 0]}'),
    ("koenigs", "--gen", '{"poly": [[0, 0], [1, 0], [-1, 0]], "kind": "dilation",'
                         ' "tau": [0, 0], "mu": [NaN, 0]}'),
], ids=["mobius_c_nan", "spiral_theta_nan", "spiral_theta_minus_inf", "mobius_c_overflow",
        "generator_mu_nan"])
def test_non_finite_spec_numbers_exit_2(tmp_path, capsys, cmd, option, spec):
    """Python's json reads NaN and Infinity (and 1e999 as inf): in a spec they
    are an input error (exit 2, no report), not a verdict that checked and
    failed with null radii."""
    path = tmp_path / "spec.json"
    path.write_text(spec)
    args = ("--x0", "0,0", "--alpha", "0.5") if cmd == "covering" else ()
    code, rep = run(tmp_path, cmd, option, str(path), *args)
    assert code == 2
    assert rep is None
    assert capsys.readouterr().err.startswith("error: non-finite number ")


@pytest.mark.parametrize("grid", [16, 24, 64])
def test_koenigs_grid_is_the_sample_count(tmp_path, grid):
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps({"poly": [[0, 0], [1, 0], [-1, 0]], "kind": "dilation",
                               "tau": [0, 0], "mu": [1, 0]}))
    code, rep = run(tmp_path, "koenigs", "--gen", str(gen), "--grid", str(grid))
    assert code == 0 and rep["n_samples"] == grid


@pytest.mark.parametrize("extra", [
    ("--fn", "koebe", "--mu", "0.05,1"),
    ("--fn", "koebe"),
    ("--mu", "1,0"),
], ids=["fn_and_mu", "fn", "mu"])
def test_spiral_check_refuses_gen_with_fn_or_mu(tmp_path, capsys, extra):
    """--gen checks a generator and --fn with --mu a map: given both, neither
    is silently dropped, the call is an input error (exit 2, no report)."""
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps({"poly": [[0, 0], [1, 0], [-1, 0]], "kind": "dilation",
                               "tau": [0, 0], "mu": [1, 0]}))
    code, rep = run(tmp_path, "spiral-check", "--gen", str(gen), *extra)
    assert code == 2
    assert rep is None
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("extra", [
    ("--mu=-1,0", "--lambda", "1,0"),
    ("--mu", "0,1", "--lambda", "1,0"),
    ("--mu", "1,0", "--lambda=-1,0", "--mode", "gamma"),
    ("--mu", "1,0", "--lambda", "1,0", "--times=-0.5,1"),
    ("--mu", "1,0", "--lambda", "1,0", "--times=-0.5,1", "--mode", "gamma"),
    ("--mu", "1,0", "--lambda", "1,0", "--Q", "cubic"),
    ("--mu", "1,0", "--lambda", "1,0", "--Q", "cubic", "--mode", "gamma"),
    ("--mu", "1,0", "--lambda", "1,0", "--times", "nan"),
    ("--mu", "1,0", "--lambda", "1,0", "--times", "0.5,inf", "--mode", "gamma"),
    ("--mu", "1,0", "--lambda", "1,0", "--samples", "0"),
    ("--mu", "1,0", "--lambda", "1,0", "--samples=-5", "--mode", "gamma"),
    ("--mu", "nan,0", "--lambda", "1,0"),
    ("--mu", "1,0", "--lambda", "1,0", "--r", "inf"),
    ("--mu", "1,0", "--lambda", "1,0", "--r", "nan"),
], ids=["negative_mu", "imaginary_mu", "negative_lambda", "negative_time_muir",
        "negative_time_gamma", "Q_degree_muir", "Q_degree_gamma", "nan_time", "inf_time",
        "no_samples", "negative_samples", "nan_mu", "inf_r", "nan_r"])
def test_extend_rejects_invalid_action(tmp_path, capsys, extra):
    """Re mu <= 0, Re lambda <= 0, a negative or non-finite time, a Q whose
    degree is not r, a non-finite mu or r or fewer than one sample is an input error
    (exit 2, no report), not a verdict on the points the invalid action moves
    or on no points at all."""
    q = tmp_path / "q3.json"
    q.write_text(json.dumps({"degree": 3, "terms": [{"exps": [3], "coef": [0.2, 0]}]}))
    extra = [str(q) if a == "cubic" else a for a in extra]
    code, rep = run(tmp_path, "extend", "--fn", "koebe", "--r", "1", *extra)
    assert code == 2
    assert rep is None
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ("covering", "--fn", "koebe", "--x0", "0.1,0", "--alpha", "0.5", "--grid", "10,-1"),
    ("covering", "--fn", "koebe", "--x0", "0.1,0", "--alpha", "0.5", "--grid", "0,10"),
    ("covering", "--fn", "koebe", "--x0", "0.1,0", "--alpha", "0.5", "--grid", "10"),
    ("covering", "--fn", "koebe", "--x0", "nan", "--alpha", "0.5"),
    ("covering", "--fn", "koebe", "--x0", "0.1,0,0", "--alpha", "0.5"),
    ("covering", "--fn", "half_plane", "--x0", "0.3,0", "--alpha", "0.2", "--beta", "inf"),
    ("sharp-bound", "--lambda", "nan,1"),
    ("sharp-bound", "--lambda", "1,inf"),
], ids=["grid_negative", "grid_zero", "grid_one_number", "x0_nan", "x0_three_numbers",
        "beta_inf", "lambda_nan", "lambda_inf"])
def test_non_finite_and_empty_inputs_exit_2(tmp_path, capsys, argv):
    """A non-finite number or an empty or non-positive grid is an input error
    (exit 2, no report), not a traceback, a failed check or a pass over no
    grid."""
    code, rep = run(tmp_path, *argv)
    assert code == 2
    assert rep is None
    assert capsys.readouterr().err.startswith("error: ")


def test_solver_fault_exits_3_undecided(tmp_path, capsys):
    """A generator with a negative Berkson-Porta margin forces the flow from
    -0.9 against the boundary: the ODE solver gives up, which is undecided
    (exit 3), not a checked failure and not a traceback."""
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps({"poly": [[0, 0], [1, 0], [1.5, 0]], "kind": "dilation",
                               "tau": [0, 0], "mu": [1, 0]}))
    code, rep = run(tmp_path, "flow", "--gen", str(gen), "--z0=-0.9,0", "--t", "5")
    assert code == 3
    assert rep is None
    assert capsys.readouterr().err.startswith("error: undecided: LeftDomain: ")


def test_shifted_center_outside_the_image_exits_3_undecided(tmp_path, capsys):
    """beta h(x0) = -0.06 + 0.22i lies outside half_plane's image Re w > 0, so
    it has no preimage in the disk: undecided (exit 3), not an input error."""
    code, rep = run(tmp_path, "covering", "--fn", "half_plane", "--x0", "0.5,0.5",
                    "--alpha", "0.2", "--beta=-0.5,0.1")
    assert code == 3
    assert rep is None
    assert capsys.readouterr().err.startswith(
        "error: undecided: NoConvergence: no preimage in the disk for w = ")


def test_complex_encoding_is_re_im_pairs(tmp_path):
    code, rep = run(tmp_path, "covering", "--fn", "koebe",
                    "--x0", "0.2,0.1", "--alpha", "0.4")
    assert code == 0
    assert isinstance(rep["center"], list) and len(rep["center"]) == 2


def _strict_loads(text):
    def refuse(token):
        raise ValueError(f"non-JSON token {token}")

    return json.loads(text, parse_constant=refuse)


def test_reports_are_strict_json(tmp_path):
    """Non-finite floats (a NaN witness coordinate) are written as null, both
    in the written report and in the bytes the determinism hash covers."""
    nan = float("nan")
    payload = {"witnesses": [{"z": [nan, nan], "w": [[np.float64("inf"), 1.5]]}],
               "margin": -float("inf"), "n": 3, "inputs": {"seed": "1"}}
    want = {"witnesses": [{"z": [None, None], "w": [[None, 1.5]]}],
            "margin": None, "n": 3, "inputs": {"seed": "1"}}
    path = tmp_path / "r.json"
    write_report(path, payload)
    assert _strict_loads(path.read_text()) == want
    assert _strict_loads(canonical_bytes(payload).decode()) == want
    assert determinism_hash(payload) == determinism_hash(want)


CONJ_LOGISTIC = {"poly": [[0.3 * -1 / 1.3, 0], [-0.7 * -1 / 1.3, 0], [1 / 1.3, 0]],
                 "kind": "dilation", "tau": [0.3, 0], "mu": [1, 0]}


def test_gen_extend_conjugated_generator(tmp_path):
    """Denjoy-Wolff point tau = 0.3: the conjugated logistic generator
    f(z) = -(0.3 - z)(1 + z)/1.3 with Q at the bound r Re lambda / 4, a pass
    with no ball exit whose flows took steps."""
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps(CONJ_LOGISTIC))
    q = tmp_path / "q.json"
    q.write_text(json.dumps(
        {"degree": 2, "terms": [{"exps": [2], "coef": [0.5, 0]}]}))
    code, rep = run(tmp_path, "gen-extend", "--gen", str(gen),
                    "--lambda", "1,0", "--r", "2", "--Q", str(q),
                    "--samples", "40", "--flows", "3", "--T", "2")
    assert code == 0 and rep["pass"]
    assert rep["conjugation_residual"] <= 1e-8
    assert rep["ball_exits"] == 0 and rep["ode_steps"] > 0


def test_koenigs_conjugated_logistic_csv_matches_closed_form(tmp_path):
    """tau = 0.3: the dumped h is (tau - z)/((1 - tau)(1 + z)) to 1e-12 relative."""
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps(CONJ_LOGISTIC))
    out_csv = tmp_path / "h.csv"
    code, rep = run(tmp_path, "koenigs", "--gen", str(gen), "--out-csv", str(out_csv))
    assert code == 0 and rep["pass"]
    rows = np.loadtxt(out_csv, delimiter=",", skiprows=1)
    z, h = rows[:, 0] + 1j * rows[:, 1], rows[:, 2] + 1j * rows[:, 3]
    exact = (0.3 - z) / (0.7 * (1 + z))
    assert len(rows) == rep["n_samples"]
    assert np.max(np.abs(h - exact) / np.abs(exact)) <= 1e-12


@pytest.mark.parametrize("tau", [0.9995, 1 - 1e-9])
def test_koenigs_tau_near_the_circle_csv_matches_closed_form(tmp_path, tau):
    """f = (z - tau)(1 - tau z) linearizes via (tau - z)/(1 - tau z).  Rounding
    its coefficients moves mu = 1 - tau^2 by about an ulp of 1, so h is good
    to a small multiple of eps/(1 - tau^2), and no better, as tau nears the
    circle."""
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps({"poly": [[-tau, 0], [1 + tau**2, 0], [-tau, 0]],
                               "kind": "dilation", "tau": [tau, 0]}))
    out_csv = tmp_path / "h.csv"
    code, rep = run(tmp_path, "koenigs", "--gen", str(gen), "--out-csv", str(out_csv))
    assert code == 0 and rep["pass"]
    rows = np.loadtxt(out_csv, delimiter=",", skiprows=1)
    z, h = rows[:, 0] + 1j * rows[:, 1], rows[:, 2] + 1j * rows[:, 3]
    exact = (tau - z) / (1 - tau * z)
    assert np.max(np.abs(h - exact) / np.abs(exact)) <= 20 * np.finfo(float).eps / (1 - tau**2)


@pytest.mark.parametrize("spec, message", [
    ({**CONJ_LOGISTIC, "mu": [1.01, 0]}, "error: bad generator spec .*: mu = "),
    ({"poly": [[-1, 0], [0, 0], [1.1, 0]], "kind": "hyperbolic", "tau": [1, 0]},
     r"error: bad generator spec .*: f\(tau\) != 0"),
], ids=["mu_not_f_prime", "hyperbolic_f_tau_nonzero"])
@pytest.mark.parametrize("cmd", ["koenigs", "gen-extend"])
def test_generator_spec_off_its_fixed_point_exits_2(tmp_path, capsys, spec, message, cmd):
    """A mu other than f'(tau), or an f that does not vanish at tau, is an
    input error: exit 2 and one error line, no report and no traceback."""
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps(spec))
    extra = ("--lambda", "1,0", "--r", "1") if cmd == "gen-extend" else ()
    code, rep = run(tmp_path, cmd, "--gen", str(gen), *extra)
    assert code == 2 and rep is None
    err = capsys.readouterr().err
    assert re.match(message, err) and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("flow", "--gen", None, "--z0", "-0.7,0.1", "--t", "1"),
    ("covering", "--fn", "half_plane", "--x0", "-0.6,0", "--alpha", "0.5",
     "--grid", "60,60"),
    ("covering", "--fn", "identity", "--x0", "-0.2,-0.1", "--alpha", "0.3",
     "--beta", "-.5,0", "--grid", "60,60"),
])
def test_negative_complex_values(tmp_path, argv):
    """'--z0 -0.7,0.1' parses like '--z0=-0.7,0.1' and gives the same report."""
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps(
        {"poly": [[0, 0], [1, 0], [-1, 0]], "kind": "dilation",
         "tau": [0, 0], "mu": [1, 0]}))
    spaced = [str(gen) if a is None else a for a in argv]
    glued = []
    for a in spaced:
        if glued and glued[-1] in ("--z0", "--x0", "--beta"):
            glued[-1] += "=" + a
        else:
            glued.append(a)
    reports = []
    for args in (spaced, glued):
        code, rep = run(tmp_path, *args)
        assert code in (0, 1)
        rep.pop("timing_s")
        reports.append(rep)
    assert reports[0] == reports[1]


def test_cli_import_leaves_scipy_out():
    """numpy is the only runtime dependency: importing the CLI loads no scipy."""
    import os
    import subprocess
    import sys

    import spirallab

    src = os.path.dirname(os.path.dirname(spirallab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, spirallab.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "False"

"""Command-line front end.

Subcommands: covering, koenigs, flow, spiral-check, extend, sharp-bound,
gen-extend.  Complex values on the command line are "re,im" pairs (a bare
real is accepted); complex values in JSON are [re, im] arrays.  Exit codes:
0 pass, 1 verified failure, 2 usage/input error, 3 undecided (a solver gave up:
no Newton convergence, a lost branch, a step underflow, a trajectory forced out
of its domain, an unresolved singularity or a sharp-bound margin below the
smallest double).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
import time

import numpy as np

from . import __version__, covering, extensions, genext, report, semigroups, sharp_bound
from .families import BranchTrackingError, NoConvergence, UnivalentMap
from .ode import LeftDomain, StepUnderflow

UNDECIDED = (NoConvergence, BranchTrackingError, StepUnderflow, LeftDomain,
             semigroups.UnresolvedSingularity, sharp_bound.MarginUnderflow)

FAMILY_SHORTCUTS = ("identity", "koebe", "half_plane")
COMPLEX_OPTIONS = ("--x0", "--beta", "--z0", "--mu", "--lambda")
_NEGATIVE_VALUE = re.compile(r"-\.?\d")
CSV_BATCH = 1 << 12  # rows per write of a dump built in batches (--dump-region)


class UsageError(ValueError):
    pass


def _parse_complex(s):
    vals = _parse_floats(s)
    if len(vals) > 2:
        raise UsageError(f"cannot parse complex value {s!r} (expected re,im)")
    return complex(*vals)


def _parse_floats(s):
    try:
        vals = [float(v) for v in str(s).split(",")]
    except ValueError:
        vals = [math.nan]
    if not all(map(math.isfinite, vals)):
        raise UsageError(f"cannot parse finite number list {s!r}")
    return vals


def _parse_grid(s):
    parts = str(s).split(",")
    if len(parts) != 2 or not all(p.strip().isdigit() and int(p) >= 1 for p in parts):
        raise UsageError(f"grid must be NR,NT with NR, NT >= 1, got {s!r}")
    return int(parts[0]), int(parts[1])


def _load_json(path):
    """The JSON value at path.  Python's json reads NaN and Infinity, and an
    overflowing number such as 1e999 as inf; each is a usage error."""
    def finite(s):
        v = float(s)
        if not math.isfinite(v):
            raise UsageError(f"non-finite number {s} in {path}")
        return v

    try:
        with open(path) as fh:
            return json.load(fh, parse_float=finite, parse_constant=finite)
    except FileNotFoundError:
        raise UsageError(f"no such file: {path}")
    except json.JSONDecodeError as e:
        raise UsageError(f"malformed JSON in {path}: {e}")


def _load_spec(arg, build, what):
    """build(spec) of the JSON object at arg; any other JSON value, or a KeyError,
    ValueError, TypeError or IndexError from build, is a usage error."""
    spec = _load_json(arg)
    if not isinstance(spec, dict):
        raise UsageError(f"bad {what} spec {arg}: expected a JSON object")
    try:
        return build(spec)
    except (KeyError, ValueError, TypeError, IndexError) as e:
        raise UsageError(f"bad {what} spec {arg}: {e}")


def _load_map(arg):
    if arg in FAMILY_SHORTCUTS:
        return UnivalentMap.from_spec({"family": arg})
    return _load_spec(arg, UnivalentMap.from_spec, "function")


def _load_poly(arg, m, r):
    """The degree-r polynomial spec at arg, or the zero polynomial of degree int(r)."""
    if arg is None:
        return extensions.HomogeneousPolynomial.zero(int(r), m)
    q = _load_spec(arg, extensions.HomogeneousPolynomial.from_spec, "polynomial")
    if q.m != m:
        raise UsageError(f"polynomial has {q.m} variables, expected m={m}")
    if q.degree != r:
        raise UsageError(f"polynomial has degree {q.degree}, expected r={r}")
    return q


def _write_csv(path, header, chunks):
    """header, then the rows of each chunk, one field per header name, byte for
    byte as csv.writer writes them: fields by str, comma-separated,
    CRLF-terminated, none quoted (no number needs it).  Each chunk's text is
    built in one pass and written at once."""
    row = ",".join(["%s"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for rows in chunks:
            fh.write("".join([row % tuple(r) for r in rows]))


def _region_rows(pts, inside):
    """The rows (x_re, x_im, in_omega) of --dump-region, CSV_BATCH at a time."""
    for a in range(0, pts.size, CSV_BATCH):
        x, i = pts[a:a + CSV_BATCH], inside[a:a + CSV_BATCH]
        yield zip(x.real.tolist(), x.imag.tolist(), i.astype(int).tolist())


# -- subcommands ------------------------------------------------------------
# Each returns (findings, passed): the report keys of its own claim.  main
# wraps them in the report envelope, times, hashes and writes the report.


def cmd_covering(args):
    h = _load_map(args.fn)
    grid = _parse_grid(args.grid)
    x0 = _parse_complex(args.x0)
    if args.beta is not None:
        rep = covering.verify_shifted_covering_bound(h, x0, args.alpha, _parse_complex(args.beta),
                                       grid=grid)
    else:
        rep = covering.verify_covering_bound(h, x0, args.alpha, grid=grid)
    if args.dump_region:
        spec = covering.OmegaSpec.build(h, x0, args.alpha)
        pts, inside = covering.omega_region_points(h, spec, grid)
        _write_csv(args.dump_region, ["x_re", "x_im", "in_omega"], _region_rows(pts, inside))
    return rep, rep["pass"]


def cmd_koenigs(args):
    if args.grid < 16 or args.grid % 8:
        raise UsageError(f"--grid must be a multiple of 8 and >= 16, got {args.grid}")
    gen = _load_spec(args.gen, semigroups.Generator.from_spec, "generator")
    h = semigroups.koenigs(gen)
    r = np.linspace(0.1, 0.9, args.grid // 8)
    th = 2.0 * np.pi * np.arange(8) / 8
    zs = (r[:, None] * np.exp(1j * th[None, :])).ravel()
    hv = h.eval_array(zs)
    resid = float(np.max(np.abs(h.deriv_array(zs) * gen.f(zs) - gen.mu * hv)))
    if args.out_csv:
        _write_csv(args.out_csv, ["z_re", "z_im", "h_re", "h_im"],
                   [np.column_stack((zs.real, zs.imag, hv.real, hv.imag)).tolist()])
    return {"linearization_residual": resid, "n_samples": int(zs.size)}, resid <= 1e-8


def cmd_flow(args):
    gen = _load_spec(args.gen, semigroups.Generator.from_spec, "generator")
    res = semigroups.flow(gen, _parse_complex(args.z0), args.t)
    return {"endpoint": [res.endpoint.real, res.endpoint.imag], "steps": res.steps,
            "local_error_estimate": res.local_error_estimate}, True


def cmd_spiral_check(args):
    if args.gen:
        if args.fn or args.mu is not None:
            raise UsageError("spiral-check takes --gen alone, or --fn with --mu")
        gen = _load_spec(args.gen, semigroups.Generator.from_spec, "generator")
        margin = semigroups.berkson_porta_margin(gen)
        criterion = "berkson_porta"
    else:
        if not args.fn or args.mu is None:
            raise UsageError("spiral-check needs --fn with --mu, or --gen")
        h = _load_map(args.fn)
        margin = semigroups.spirallike_margin(h, _parse_complex(args.mu))
        criterion = "spirallike_margin"
    return {"criterion": criterion, "margin": margin}, margin >= -1e-9


def cmd_extend(args):
    h = _load_map(args.fn)
    space = extensions.BallSpace(r=args.r, m=args.m)
    q = _load_poly(args.Q, args.m, args.r)
    mu = _parse_complex(args.mu)
    lam = _parse_complex(args.lam)
    times = _parse_floats(args.times)
    rep = extensions.verify_invariance(
        h, mu, lam, space, q, times, n_samples=args.samples,
        mode=args.mode, seed=args.seed)
    # the bound is exact for at most one term; only a sum of terms is sampled
    sup_q = (extensions.sup_norm_Q_bound(q, space) if len(q.terms) <= 1
             else extensions.sup_norm_Q(q, space, seed=args.seed))
    return {**rep, "sup_norm_Q": sup_q, "bound": extensions.q_bound(lam)}, rep["pass"]


def cmd_sharp_bound(args):
    p = sharp_bound.SharpParams(lam=_parse_complex(args.lam), r=args.r)
    ineq = sharp_bound.verify_cor_inequality(p)
    inf = sharp_bound.infimum_f(p, ineq)
    t_tail = 50.0 / (p.a * p.r)
    tail = float(sharp_bound.f_sharp(p, t_tail))
    if args.dump_curve:
        ts = np.geomspace(1e-6, t_tail, 2000)
        _write_csv(args.dump_curve, ["t", "f"],
                   [np.column_stack((ts, sharp_bound.f_sharp(p, ts))).tolist()])
    ok = ineq["min_margin"] >= 0 and abs(tail - 1.0) <= 1e-6
    return {"infimum": inf, "limit_zero": p.limit_zero, "inequality_margin": ineq,
            "f_at_tmax": tail}, ok


def cmd_gen_extend(args):
    if args.samples < 1 or args.flows < 0:
        raise UsageError("gen-extend needs --samples >= 1 and --flows >= 0")
    if not 0 <= args.T < np.inf:
        raise UsageError(f"--T must be finite and >= 0, got {args.T}")
    gen = _load_spec(args.gen, semigroups.Generator.from_spec, "generator")
    lam = _parse_complex(args.lam)
    space = extensions.BallSpace(r=args.r, m=args.m)
    q = _load_poly(args.Q, args.m, args.r)
    g = genext.ExtendedGenerator(base=gen, lam=lam, space=space, Q=q)
    h = semigroups.koenigs(gen)
    rng = np.random.default_rng(args.seed)
    xs, ys = extensions.sample_ball(space, args.samples, rng)
    resid = genext.conjugation_residual(g, h, xs, ys)
    dh_res = genext.dh_tilde_identity_residual(g, h, xs[:50], ys[:50])
    flow = genext.flow_ball(g, xs[:args.flows], ys[:args.flows], args.T)
    exits = int(np.sum(flow.exited))
    if args.dump_traj:
        # each flow's reached checkpoints in turn: t, then the state's real view
        rows = [np.column_stack((flow.t[:n], flow.v[:n, i].view(float)))
                for i, n in enumerate(flow.reached)]
        _write_csv(args.dump_traj, ["t", "x_re", "x_im"]
                   + [f"y{k}_{p}" for k in range(space.m) for p in ("re", "im")],
                   [np.concatenate(rows).tolist()] if rows else [])
    findings = {"conjugation_residual": resid, "dh_identity_residual": dh_res,
                "ball_exits": exits, "flows": min(args.flows, len(xs)),
                "ode_steps": flow.steps}
    return findings, resid <= 1e-8 and dh_res <= 1e-9 and exits == 0


# -- parser -------------------------------------------------------------------


@functools.cache
def build_parser():
    """The argument parser, built once per process; parse_args leaves it unchanged."""
    ap = argparse.ArgumentParser(
        prog="spirallab",
        description="Numerical verification of disk covering bounds, Koenigs "
                    "functions and extension operators on the ball.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("covering", help="covered-disk radius vs predicted bound")
    c.add_argument("--fn", required=True, help="function spec JSON path or family name")
    c.add_argument("--x0", required=True, help="base point re,im")
    c.add_argument("--alpha", type=float, required=True)
    c.add_argument("--beta", help="contraction factor re,im (shifted-center check)")
    c.add_argument("--grid", default="400,400", help="NR,NT polar grid")
    c.add_argument("--out", help="report JSON path")
    c.add_argument("--dump-region", dest="dump_region",
                   help="CSV of (x_re,x_im,in_omega) samples")
    c.set_defaults(func=cmd_covering)

    k = sub.add_parser("koenigs", help="solve h' f = mu h and dump samples")
    k.add_argument("--gen", required=True, help="generator spec JSON path")
    k.add_argument("--grid", type=int, default=64,
                   help="samples: 8 angles on grid/8 radii (a multiple of 8, >= 16)")
    k.add_argument("--out", help="report JSON path")
    k.add_argument("--out-csv", dest="out_csv", help="CSV of h samples")
    k.set_defaults(func=cmd_koenigs)

    f = sub.add_parser("flow", help="integrate dz/dt = -f(z)")
    f.add_argument("--gen", required=True)
    f.add_argument("--z0", required=True, help="start point re,im")
    f.add_argument("--t", type=float, required=True)
    f.add_argument("--out")
    f.set_defaults(func=cmd_flow)

    s = sub.add_parser("spiral-check", help="spirallike / generator margin oracle")
    s.add_argument("--fn", help="function spec (with --mu)")
    s.add_argument("--mu", help="spiral multiplier re,im")
    s.add_argument("--gen", help="generator spec (Berkson-Porta margin)")
    s.add_argument("--out")
    s.set_defaults(func=cmd_spiral_check)

    e = sub.add_parser("extend", help="ball extension invariance sweep")
    e.add_argument("--fn", required=True)
    e.add_argument("--r", type=float, required=True)
    e.add_argument("--m", type=int, default=1)
    e.add_argument("--Q", help="homogeneous polynomial JSON path")
    e.add_argument("--mu", required=True)
    e.add_argument("--lambda", dest="lam", required=True)
    e.add_argument("--samples", type=int, default=1000)
    e.add_argument("--times", default="0.1,0.5,1,2")
    e.add_argument("--mode", choices=("muir", "gamma"), default="muir")
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--out")
    e.set_defaults(func=cmd_extend)

    b = sub.add_parser("sharp-bound", help="tightness of the perturbation bound")
    b.add_argument("--lambda", dest="lam", required=True)
    b.add_argument("--r", type=int, default=1)
    b.add_argument("--dump-curve", dest="dump_curve")
    b.add_argument("--out")
    b.set_defaults(func=cmd_sharp_bound)

    g = sub.add_parser("gen-extend", help="generator extension verification")
    g.add_argument("--gen", required=True)
    g.add_argument("--lambda", dest="lam", required=True)
    g.add_argument("--r", type=int, required=True)
    g.add_argument("--m", type=int, default=1)
    g.add_argument("--Q")
    g.add_argument("--samples", type=int, default=200)
    g.add_argument("--flows", type=int, default=20)
    g.add_argument("--T", type=float, default=5.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--dump-traj", dest="dump_traj")
    g.add_argument("--out")
    g.set_defaults(func=cmd_gen_extend)

    return ap


def _glue_negative_values(argv):
    """argparse reads a value such as '-0.7,0.1' as an option name; join it to
    its complex-valued option as '--z0=-0.7,0.1'."""
    out = []
    for arg in argv:
        if out and out[-1] in COMPLEX_OPTIONS and _NEGATIVE_VALUE.match(arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(_glue_negative_values(sys.argv[1:] if argv is None else argv))
    t0 = time.time()
    try:
        findings, passed = args.func(args)
        echo = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
        payload = {
            "schema": report.SCHEMA,
            "tool_version": __version__,
            "subcommand": args.cmd,
            "inputs": {k: str(v) for k, v in sorted(echo.items())},
            **findings,
            "pass": bool(passed),
            "timing_s": time.time() - t0,
        }
        payload["determinism_hash"] = report.determinism_hash(payload)
        if args.out:
            report.write_report(args.out, payload)
        else:
            report.dump(payload, sys.stdout)
        return 0 if passed else 1
    except (ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except UNDECIDED as e:
        print(f"error: undecided: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

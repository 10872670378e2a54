#!/usr/bin/env python3
"""Verdict benchmark of spirallab: in-process CLI verdicts, end to end and per layer.

    python3 verdictbench/run.py --workload covering-sweep --seed 1 --seconds 20 --trace 0

Run from the repository root.  One process builds the workload's inputs from
the seed, then runs whole rounds of the same ``spirallab.cli.main`` calls, one
verdict after another (closed loop, one client), until the time is up.  Every
report is checked against references computed in ``oracles.py``.  The first
round warms caches and is left out of the timings.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates plain
and traced rounds and prints the per-layer metrics of ``tracing.py``, the import
times of one ``-X importtime`` start, and the tracing overhead (traced minus
plain ``campaign_s``).  The last line of standard output is the result JSON;
per-run results and traces are written under ``verdictbench/out/``.
"""

import os

# One BLAS/OpenMP thread, set before numpy is imported here or in any child.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.getcwd(), "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_LAUNCHES = 5
MIN_TIMED_ROUNDS = 2  # per kind of round (plain, and traced with --trace 1)
# Median time of calibrate() on the 2-CPU machine of the README's reference
# figures.  Other tenants of a shared host slow every CPU-bound step by up to
# a third for seconds to minutes; timing the same fixed loop after every
# verdict measures that factor, and dividing it out keeps the end-to-end
# times comparable between runs (see README, "Calibration").
CALIBRATION_REFERENCE_S = 0.9e-3
_CAL_X = np.linspace(-1.0, 1.0, 4000) * (1 + 1j)


def calibrate():
    """Wall time of a fixed mix of interpreted and small-array numpy work,
    the two kinds of work a verdict does."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(3000):
        acc += i * i
    for _ in range(5):
        np.abs(np.exp(_CAL_X * 0.1) / (2.0 + _CAL_X)).sum()
    return time.perf_counter() - t0


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(workload, seed, workdir):
    """Wall times of fresh interpreters that import spirallab.cli and write
    the workload's input specs, and their median scaled to the reference
    machine speed by calibration loops timed around each launch."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"), workload, str(seed), workdir]
    times, scaled = [], []
    cal = statistics.median(calibrate() for _ in range(5))
    for _ in range(SETUP_LAUNCHES):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=child_env(), check=True, timeout=120)
        times.append(time.perf_counter() - t0)
        cal_after = statistics.median(calibrate() for _ in range(5))
        scaled.append(times[-1] * CALIBRATION_REFERENCE_S / ((cal + cal_after) / 2))
        cal = cal_after
    return statistics.median(scaled), times


class Campaign:
    """Runs rounds of the workload's ops and keeps what the metrics need."""

    def __init__(self, cli, ops):
        self.cli = cli
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.errors = []       # check failures of ops that did not fail
        self.rel_errors = []   # relative errors of every comparison
        self.hashes = {}       # op name -> set of determinism hashes
        self.calibration = []  # calibration loop times (s)

    def run_op(self, op):
        t0 = time.perf_counter()
        try:
            rc = self.cli.main(list(op.argv))
        except (Exception, SystemExit):
            rc = None
            print(f"{op.name}: raised\n{traceback.format_exc()}", file=sys.stderr)
        dt = time.perf_counter() - t0
        self.attempted += 1
        report = None
        out = op.argv[op.argv.index("--out") + 1]
        if rc is not None and os.path.exists(out):
            with open(out) as fh:
                report = json.load(fh)
            os.unlink(out)
            self.hashes.setdefault(op.name, set()).add(report["determinism_hash"])
        if rc != 0:
            self.failed += 1
            if not op.expect_fail:
                print(f"{op.name}: failed with exit code {rc}", file=sys.stderr)
            return dt
        try:
            self.rel_errors.extend(op.check(report))
        except Exception as e:  # a broken check is reported, not raised
            self.errors.append(f"{op.name}: {type(e).__name__}: {e}")
        return dt

    def run_round(self):
        """Verdict times of one round, each scaled to the reference machine
        speed by the calibration loop timed right after it."""
        times, cal = [], []
        for op in self.ops:
            times.append(self.run_op(op))
            cal.append(calibrate())
        self.calibration.extend(cal)
        scaled = [t * CALIBRATION_REFERENCE_S / c for t, c in zip(times, cal)]
        return {"scaled": scaled, "wall": times, "cal": cal}

    def check_hashes(self):
        for name, hashes in self.hashes.items():
            if len(hashes) != 1:
                self.errors.append(f"{name}: determinism hash differs between rounds")


def run_rounds(campaign, seconds, tracer=None):
    """Whole rounds until ``seconds`` is up; returns the plain and the traced
    rounds (verdict times, without the warm-up round) and the traced rounds'
    spans."""
    start = time.perf_counter()
    campaign.run_round()  # warm-up
    plain, traced, spans = [], [], []
    while True:
        if tracer is not None and len(traced) < len(plain):
            tracer.enabled = True
            traced.append(campaign.run_round())
            tracer.enabled = False
            spans.append(tracer.take())
        else:
            plain.append(campaign.run_round())
        n_rounds = 1 + len(plain) + len(traced)
        elapsed = time.perf_counter() - start
        enough = len(plain) >= MIN_TIMED_ROUNDS and (
            tracer is None or len(traced) >= MIN_TIMED_ROUNDS)
        if enough and elapsed * (n_rounds + 1) / n_rounds > seconds:
            return plain, traced, spans


def thread_count():
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:  # no procfs: count the interpreter's own threads
        return threading.active_count()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC_DIR, "spirallab", "cli.py")):
        print(f"error: no spirallab sources under {SRC_DIR}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC_DIR, BENCH_DIR]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        result, rounds = measure(args, workloads, workdir, tag)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w") as fh:
        json.dump(dict(result, rounds=rounds), fh, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0


def measure(args, workloads, workdir, tag):
    setup_s, setup_wall = (None, []) if args.trace else measure_setup(
        args.workload, args.seed, workdir)

    from spirallab import cli
    import tracing as tr
    from oracles import digits

    wl = workloads.build(args.workload, args.seed, workdir)
    for fname, spec in wl.specs.items():
        with open(os.path.join(workdir, fname), "w") as fh:
            json.dump(spec, fh)
    campaign = Campaign(cli, wl.ops)
    tracer = None
    if args.trace:
        tracer = tr.Tracer()
        tracer.install()
    try:
        plain, traced, spans = run_rounds(campaign, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    campaign.check_hashes()
    for err in campaign.errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    threads = thread_count()
    if threads != 1:
        print(f"warning: {threads} threads in the benchmark process", file=sys.stderr)

    if args.trace:
        metrics = trace_metrics(spans, plain, traced, campaign.calibration, tr)
        with open(os.path.join(OUT_DIR, f"trace-{tag}.jsonl"), "w") as fh:
            for k, round_spans in enumerate(spans):
                for s in round_spans:
                    fh.write(json.dumps([k] + s) + "\n")
    else:
        verdicts = sorted(t for r in plain for t in r["scaled"])
        q = statistics.quantiles(verdicts, n=10, method="inclusive")
        # each verdict's median over the timed rounds, summed over a round
        per_op = zip(*(r["scaled"] for r in plain))
        metrics = {
            "setup_s": (setup_s, "s"),
            "campaign_s": (sum(statistics.median(ts) for ts in per_op), "s"),
            "verdict_p50_s": (statistics.median(verdicts), "s"),
            "verdict_p90_s": (q[8], "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "min_digits": (min(map(digits, campaign.rel_errors)), "digits"),
        }
    result = {
        "correct": not campaign.errors,
        "attempted": campaign.attempted,
        "failed": campaign.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    rounds = {"ops": [op.name for op in wl.ops], "plain": plain, "traced": traced,
              "setup_wall": setup_wall}
    return result, rounds


UNITS = {"_s": "s", ".s": "s", "_points": "points", "_calls": "calls", ".steps": "steps",
         ".bytes": "bytes", "_nan": "points", ".spans": "spans"}


def trace_metrics(spans, plain, traced, calibration, tr):
    """Per-layer metrics: medians over the traced rounds, in wall seconds."""
    per_round = [tr.layer_metrics(s) for s in spans]
    metrics = {}
    for name in per_round[0]:
        unit = next(u for suffix, u in UNITS.items() if name.endswith(suffix))
        metrics[name] = (statistics.median(m[name] for m in per_round), unit)
    traced_s = statistics.median(sum(r["wall"]) for r in traced)
    plain_s = statistics.median(sum(r["wall"]) for r in plain)
    metrics["trace.campaign_s"] = (traced_s, "s")
    metrics["trace.untraced_campaign_s"] = (plain_s, "s")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    metrics["machine.calibration_s"] = (statistics.median(calibration), "s")
    cmd = [sys.executable, "-X", "importtime", "-c", "import spirallab.cli"]
    for name, v in tr.import_times(cmd, child_env(), os.getcwd()).items():
        metrics[name] = (v, "s")
    return metrics


if __name__ == "__main__":
    sys.exit(main())

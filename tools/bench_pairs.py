#!/usr/bin/env python3
"""Parent-versus-change runs of the verdict benchmark, written to one JSON file.

    python3 tools/bench_pairs.py --parent <base commit> --out BENCH_<n>.json \\
        --pairs ball-invariance:1:10 --pairs covering-sweep:1:1 \\
        --traced ball-invariance:1 --hashes ball-invariance:1

The change is the repository's working tree, uncommitted edits included; the
parent is the given revision (the commit the change is based on, e.g.
``HEAD~1`` once the change is committed), exported with ``git archive`` into a
temporary directory (the repository's own git metadata is left alone).  The
tool refuses a parent whose tracked files equal the working tree's, and warns
when the working tree has uncommitted edits.  Both sides run their own
``verdictbench/run.py`` from their own root, one process at a time, each run
``run_seconds`` of ``BENCHMARK.json`` long.

- ``--pairs W:S:N`` runs N pairs of ``--trace 0`` runs of workload W at seed S,
  alternating which side runs first, records each run's minor page faults
  (``minor_faults``, beside the result objects and not judged), and
  summarises every end-to-end metric of ``BENCHMARK.json``: each side's
  quartiles, the pairs the change won, and the verdict on the metric (its
  bound, the relative ``worse_by`` of the medians, ``within_bound``,
  ``unresolved`` when the runs spread wider than the bound,
  ``gain_rule_met``), plus each side's worst failed share
  (failed/attempted) and whether every run was correct.
- ``--traced W:S`` runs one ``--trace 1`` run of each side and stores both
  sides' minor page faults and ``machine.calibration_s`` with the ratio of
  the larger to the smaller; above CALIBRATION_WARN it warns on stderr,
  since a slow spell on one side reads as a change in every layer of that
  one run.
- ``--hashes W:S`` runs every op of one round once per side, both in the same
  work directory (reports hash their input paths), and lists the ops whose
  ``determinism_hash`` differs, with the report keys that moved and the
  largest move of each one's numbers in ulp (``differ_keys``), the ops whose
  dumped files (``--dump-traj``, ``--out-csv``, ``--dump-region``,
  ``--dump-curve``) differ, with the largest absolute difference of the
  numeric cells of each differing dump that has the same header and shape on
  both sides, the ops that ran on one side only, the ops that raised an
  uncaught exception on either side, and the other ops that wrote no report
  on either side.

The output file is rewritten after every run, and sections already in it are
kept, so several invocations can fill one file.
"""

import argparse
import csv
import json
import math
import os
import platform
import resource
import shutil
import statistics
import struct
import subprocess
import sys
import tempfile
import urllib.parse

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CALIBRATION_WARN = 1.2  # the traced sides' largest calibration ratio without a warning

# One round of ops, run once from the tree given as argv[1] in the work
# directory argv[4], moving each report and dumped file to
# keep_path(argv[5], op, option), the report's option being --out;
# prints {"hashes": {op name: determinism hash or None},
# "dumps": {op name: {dump option: sha256 of the file or None}},
# "raised": {op name: exception}}.  An op that raises is recorded and the
# round goes on, so a broken signature shows up as a result, not a crash.
HASH_SCRIPT = r"""
import hashlib, json, os, sys, traceback, urllib.parse
tree, workload, seed, workdir, keep = sys.argv[1], sys.argv[2], int(sys.argv[3]), *sys.argv[4:6]
sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "verdictbench")]
from spirallab import cli
import workloads
wl = workloads.build(workload, seed, workdir)
for fname, spec in wl.specs.items():
    with open(os.path.join(workdir, fname), "w") as fh:
        json.dump(spec, fh)
hashes, dumps, raised = {}, {}, {}
for op in wl.ops:
    out = op.argv[op.argv.index("--out") + 1]
    hashes[op.name] = None
    try:
        cli.main(list(op.argv))
    except (Exception, SystemExit) as e:
        traceback.print_exc()
        raised[op.name] = f"{type(e).__name__}: {e}"
    if os.path.exists(out):
        with open(out) as fh:
            hashes[op.name] = json.load(fh)["determinism_hash"]
        os.replace(out, os.path.join(keep, urllib.parse.quote(op.name + "--out", safe="")))
    for opt in ("--dump-traj", "--out-csv", "--dump-region", "--dump-curve"):
        if opt in op.argv:
            path = op.argv[op.argv.index(opt) + 1]
            digest = None
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                os.replace(path, os.path.join(keep, urllib.parse.quote(op.name + opt, safe="")))
            dumps.setdefault(op.name, {})[opt] = digest
print(json.dumps({"hashes": hashes, "dumps": dumps, "raised": raised}))
"""


def bench_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_bench(tree, workload, seed, seconds, trace):
    """The run's result object and the minor page faults of its whole process
    tree, setup launches included (the RUSAGE_CHILDREN delta: every process
    the run started has been waited for when it ends)."""
    cmd = [sys.executable, "verdictbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    out = subprocess.run(cmd, cwd=tree, env=bench_env(), check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    return json.loads(out.strip().splitlines()[-1]), faults


def keep_path(keep, op, opt):
    """Where the hash round keeps op's dump for option opt (HASH_SCRIPT)."""
    return os.path.join(keep, urllib.parse.quote(op + opt, safe=""))


def run_hashes(tree, workload, seed, workdir, keep):
    out = subprocess.run([sys.executable, "-c", HASH_SCRIPT, tree, workload, str(seed), workdir,
                          keep],
                         cwd=tree, env=bench_env(), check=True, stdout=subprocess.PIPE,
                         text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def max_abs_diff(a, b):
    """Largest absolute difference of the numeric cells of two CSV files, or
    None unless they have the same header and shape and equal non-numeric
    cells (NaN equals NaN)."""
    with open(a, newline="") as fa, open(b, newline="") as fb:
        ra, rb = list(csv.reader(fa)), list(csv.reader(fb))
    if not ra or not rb or ra[0] != rb[0] or [len(r) for r in ra] != [len(r) for r in rb]:
        return None
    worst = 0.0
    for row_a, row_b in zip(ra[1:], rb[1:]):
        for u, v in zip(row_a, row_b):
            try:
                x, y = float(u), float(v)
            except ValueError:
                if u != v:
                    return None
                continue
            if math.isnan(x) or math.isnan(y):
                if not (math.isnan(x) and math.isnan(y)):
                    return None
                continue
            worst = max(worst, abs(x - y))
    return worst


def ulps(x, y):
    """How many doubles lie from x to y: 0 for equal values, 1 for neighbours."""
    a, b = (struct.unpack("<q", struct.pack("<d", float(v)))[0] for v in (x, y))
    a, b = (i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF) for i in (a, b))  # -0.0 is 0.0
    return abs(a - b)


def report_moves(a, b, key="", moves=None):
    """{key: largest move in ulp of its numeric leaves} for every key whose
    value differs between the parsed reports a and b, dotted through nested
    objects (list items share their list's key), timing_s and the hash left
    out; None where a differing leaf is not a number on both sides (a bool,
    a string, a null, a missing key or a list of another length)."""
    moves = {} if moves is None else moves
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(a.keys() | b.keys()):
            if k not in ("timing_s", "determinism_hash"):
                report_moves(a.get(k), b.get(k), f"{key}.{k}" if key else k, moves)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for u, v in zip(a, b):
            report_moves(u, v, key, moves)
    elif a != b:
        num = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
        old = moves.get(key, 0)
        moves[key] = max(old, ulps(a, b)) if num and old is not None else None
    return moves


def compare_hashes(parent, change, keep):
    """Ops whose report hash differs, ops whose dumped files differ (a dump
    missing on one side counts as different) with the largest absolute
    difference of each one's numeric cells (max_abs_diff over its differing
    dumps, kept under keep[side]), for each op whose hash differs the
    report_moves of its two reports (kept there too), ops run on one side
    only, ops that raised an uncaught exception on either side (with each
    side's exception), and the other ops that wrote no report; ops without a
    report on a side count as neither equal nor different."""
    ph, ch = parent["hashes"], change["hashes"]
    both = ph.keys() & ch.keys()
    raised = {}
    for side, got in (("parent", parent), ("change", change)):
        for op, exc in got["raised"].items():
            raised.setdefault(op, {})[side] = exc
    missing = sorted(k for k in both if ph[k] is None or ch[k] is None)
    pd, cd = parent["dumps"], change["dumps"]
    dumps_differ = sorted(k for k in both if pd.get(k) != cd.get(k))
    diffs = {}
    for op in dumps_differ:
        got = [max_abs_diff(*(keep_path(keep[side], op, opt) for side in ("parent", "change")))
               if pd[op][opt] and cd[op][opt] else None
               for opt in pd.get(op, {}).keys() & cd.get(op, {}).keys()
               if pd[op][opt] != cd[op][opt]]
        diffs[op] = max(got) if got and None not in got else None
    differ = sorted(k for k in both if k not in missing and ph[k] != ch[k])
    moved = {}
    for op in differ:
        reports = []
        for side in ("parent", "change"):
            with open(keep_path(keep[side], op, "--out")) as fh:
                reports.append(json.load(fh))
        moved[op] = report_moves(*reports)
    return {"ops": len(both),
            "differ": differ,
            "differ_keys": moved,
            "dumps": sum(len(pd.get(k, {})) for k in both),
            "dumps_differ": dumps_differ,
            "dumps_max_abs_diff": diffs,
            "raised": dict(sorted(raised.items())),
            "no_report": [k for k in missing if k not in raised],
            "parent_only": sorted(ph.keys() - ch.keys()),
            "change_only": sorted(ch.keys() - ph.keys())}


def same_tracked_files(rev):
    """Do the tracked files of the working tree equal those of rev?"""
    return subprocess.run(["git", "diff", "--quiet", rev, "--"], cwd=ROOT).returncode == 0


def quartiles(xs):
    return statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3


def summarize(runs, end_to_end):
    """Quartiles of each side and the pairs the change won, per metric, with
    the verdict on it: its bound; worse_by, how much worse the change's median
    is than the parent's, relative to it (positive when worse; None at a parent
    median of 0, where within_bound admits no worsening at all); within_bound;
    unresolved, when either side's interquartile range is wider than the bound
    allows, unless every change run beats every parent run; and gain_rule_met,
    when the change won at least 9/10 of the pairs, its median is better by
    more than the parent's interquartile range, and its worst failed share is
    no larger than the parent's.  Per side, the largest failed share
    (failed/attempted) of any run and whether every run was correct."""
    out = {
        "failed_share_worst": {side: max(r[side]["failed"] / max(1, r[side]["attempted"])
                                         for r in runs) for side in ("parent", "change")},
        "all_correct": {side: all(r[side]["correct"] for r in runs)
                        for side in ("parent", "change")},
    }
    fails_more = out["failed_share_worst"]["change"] > out["failed_share_worst"]["parent"]
    for m in end_to_end:
        name, sign = m["name"], (1 if m["better"] == "lower" else -1)
        par = [r["parent"]["metrics"][name]["value"] for r in runs]
        chg = [r["change"]["metrics"][name]["value"] for r in runs]
        pq, cq = quartiles(par), quartiles(chg)
        worse = sign * (cq[1] - pq[1])
        won = sum(sign * (c - p) < 0 for p, c in zip(par, chg))
        allowed = m["bound"] * abs(pq[1])
        separated = max(sign * c for c in chg) < min(sign * p for p in par)
        out[name] = {
            "parent_quartiles": pq,
            "change_quartiles": cq,
            "change_better_in": won,
            "pairs": len(runs),
            "bound": m["bound"],
            "worse_by": worse / abs(pq[1]) if pq[1] else None,
            "within_bound": worse <= allowed,
            "unresolved": max(pq[2] - pq[0], cq[2] - cq[0]) > allowed and not separated,
            "gain_rule_met": (not fails_more and 10 * won >= 9 * len(runs)
                              and -worse > pq[2] - pq[0]),
        }
    return out


def traced_pair(parent, change):
    """The traced run of each side with calibration_s: each side's
    machine.calibration_s and their ratio, larger over smaller; warns on
    stderr when that ratio is above CALIBRATION_WARN."""
    cal = {side: run["metrics"]["machine.calibration_s"]["value"]
           for side, run in (("parent", parent), ("change", change))}
    ratio = max(cal.values()) / min(cal.values())
    if ratio > CALIBRATION_WARN:
        slow = max(cal, key=cal.get)
        print(f"warning: the {slow} side's calibration loop ran {ratio:.2f}x the other's; "
              f"its traced layers read slower for it", file=sys.stderr)
    return {"parent": parent, "change": change, "calibration_s": {**cal, "ratio": ratio}}


def spec(text, parts):
    fields = text.split(":")
    if len(fields) != parts:
        raise argparse.ArgumentTypeError(f"expected {parts} colon-separated fields: {text!r}")
    return [fields[0]] + [int(f) for f in fields[1:]]


def machine():
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return f"{os.cpu_count()} CPU, {model}; times scaled by the benchmark's calibration loop"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    ap.add_argument("--claim", default=None, help="one line: the claimed gain")
    ap.add_argument("--pairs", action="append", default=[], type=lambda t: spec(t, 3))
    ap.add_argument("--traced", action="append", default=[], type=lambda t: spec(t, 2))
    ap.add_argument("--hashes", action="append", default=[], type=lambda t: spec(t, 2))
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    rev = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=ROOT, check=True,
                         stdout=subprocess.PIPE, text=True).stdout.strip()
    if same_tracked_files(rev):
        sys.exit(f"error: the working tree equals {rev}; pass the commit the change is based on")
    if not same_tracked_files("HEAD"):
        print("warning: uncommitted edits are measured as part of the change", file=sys.stderr)
    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    if doc.get("parent", rev) != rev:
        sys.exit(f"error: {args.out} holds runs against parent {doc['parent']}, not {rev}")
    doc.update(parent=rev, machine=machine(),
               what="verdictbench result objects of the parent commit and of the change, "
                    "same seeds and benchmark code, one process at a time",
               command="python3 verdictbench/run.py --workload <workload> --seed <seed> "
                       "--seconds <seconds> --trace <0|1>")
    if args.claim:
        doc["claim"] = args.claim

    def save():
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")

    with tempfile.TemporaryDirectory() as tmp:
        parent = os.path.join(tmp, "parent")
        os.mkdir(parent)
        archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                                 stdout=subprocess.PIPE).stdout
        subprocess.run(["tar", "-x", "-C", parent], input=archive, check=True)
        trees = {"parent": parent, "change": ROOT}

        for workload, seed, n in args.pairs:
            key = f"{workload}/seed{seed}"
            runs = []
            for k in range(n):
                first = "parent" if k % 2 == 0 else "change"
                run = {"first": first, "minor_faults": {}}
                for side in (first, "change" if first == "parent" else "parent"):
                    run[side], run["minor_faults"][side] = run_bench(trees[side], workload,
                                                                     seed, seconds, 0)
                    print(f"{key} pair {k + 1}/{n} {side}: campaign_s "
                          f"{run[side]['metrics']['campaign_s']['value']:.4f}", file=sys.stderr)
                runs.append(run)
                doc.setdefault("pairs", {})[key] = {
                    "seconds": seconds, "runs": runs,
                    "summary": summarize(runs, bench["end_to_end"])}
                save()

        for workload, seed in args.traced:
            key = f"{workload}/seed{seed}"
            got = {side: run_bench(trees[side], workload, seed, seconds, 1)
                   for side in ("parent", "change")}
            doc.setdefault("traced", {})[key] = {
                **traced_pair(got["parent"][0], got["change"][0]),
                "minor_faults": {side: faults for side, (_, faults) in got.items()}}
            save()

        for workload, seed in args.hashes:
            workdir = os.path.join(tmp, "work")
            keep = {side: os.path.join(tmp, f"dumps-{side}") for side in ("parent", "change")}
            for d in (workdir, *keep.values()):
                os.mkdir(d)
            got = {side: run_hashes(trees[side], workload, seed, workdir, keep[side])
                   for side in ("parent", "change")}
            doc.setdefault("hashes", {})[f"{workload}/seed{seed}"] = compare_hashes(**got,
                                                                                    keep=keep)
            for d in (workdir, *keep.values()):
                shutil.rmtree(d)
            save()


if __name__ == "__main__":
    main()

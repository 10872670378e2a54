"""The parent-versus-change summary of tools/bench_pairs.py on synthetic runs."""

import importlib.util
import json
import math
import os

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "bench_pairs.py")


@pytest.fixture
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def result(campaign_s, digits, failed=0, attempted=100, correct=True):
    return {"metrics": {"campaign_s": {"value": campaign_s},
                        "min_digits": {"value": digits}},
            "failed": failed, "attempted": attempted, "correct": correct}


def test_summarize_reports_quartiles_wins_failed_share_and_correctness(bench_pairs):
    end_to_end = [{"name": "campaign_s", "better": "lower", "bound": 0.2},
                  {"name": "min_digits", "better": "higher", "bound": 0.1}]
    runs = [{"parent": result(0.40, 9.0, failed=3), "change": result(0.30, 9.0)},
            {"parent": result(0.42, 9.0, failed=5, attempted=50),
             "change": result(0.43, 9.5, correct=False)},
            {"parent": result(0.41, 9.0), "change": result(0.31, 8.0, failed=1, attempted=200)}]
    out = bench_pairs.summarize(runs, end_to_end)
    assert out["campaign_s"] == {"parent_quartiles": pytest.approx([0.405, 0.41, 0.415]),
                                 "change_quartiles": pytest.approx([0.305, 0.31, 0.37]),
                                 "change_better_in": 2, "pairs": 3, "bound": 0.2,
                                 "worse_by": pytest.approx(-0.10 / 0.41),
                                 "within_bound": True, "unresolved": False,
                                 "gain_rule_met": False}
    assert out["min_digits"]["change_better_in"] == 1
    assert out["min_digits"]["worse_by"] == 0.0 and out["min_digits"]["within_bound"]
    assert out["failed_share_worst"] == {"parent": 0.1, "change": 0.005}
    assert out["all_correct"] == {"parent": True, "change": False}


def test_summarize_gain_rule_and_bound_verdicts(bench_pairs):
    """The gain rule needs 9/10 pairs won and a median gain beyond the parent's
    interquartile range; a metric is out of bound when its median is worse by
    more than the bound, relative to the parent's."""
    end_to_end = [{"name": "campaign_s", "better": "lower", "bound": 0.2},
                  {"name": "min_digits", "better": "higher", "bound": 0.1}]
    par = [0.40 + 0.001 * k for k in range(10)]
    runs = [{"parent": result(p, 9.0), "change": result(p - 0.05, 7.0)} for p in par]
    out = bench_pairs.summarize(runs, end_to_end)
    assert out["campaign_s"]["change_better_in"] == 10
    assert out["campaign_s"]["gain_rule_met"] and out["campaign_s"]["within_bound"]
    assert out["min_digits"]["worse_by"] == pytest.approx(2.0 / 9.0)
    assert not out["min_digits"]["within_bound"] and not out["min_digits"]["gain_rule_met"]
    # 8/10 pairs won is not enough, nor is a median gain inside the parent's spread
    runs[0]["change"] = result(0.50, 9.0)
    runs[1]["change"] = result(0.50, 9.0)
    assert not bench_pairs.summarize(runs, end_to_end)["campaign_s"]["gain_rule_met"]
    small = [{"parent": result(p, 9.0), "change": result(p - 0.001, 9.0)} for p in par]
    got = bench_pairs.summarize(small, end_to_end)["campaign_s"]
    assert got["change_better_in"] == 10 and not got["gain_rule_met"]


def test_summarize_unresolved_spread_failed_share_and_zero_median(bench_pairs):
    """A metric whose runs spread wider than its bound allows is unresolved
    unless every change run beats every parent run; a gain does not count when
    the change fails a larger share of operations; at a parent median of 0 no
    worsening is within bound."""
    end_to_end = [{"name": "campaign_s", "better": "lower", "bound": 0.2},
                  {"name": "min_digits", "better": "higher", "bound": 0.1}]
    par = [0.40, 0.20, 0.60, 0.30, 0.50]
    wide = [{"parent": result(p, 9.0), "change": result(p - 0.01, 9.0)} for p in par]
    got = bench_pairs.summarize(wide, end_to_end)["campaign_s"]
    assert got["within_bound"] and got["unresolved"]
    apart = [{"parent": result(p, 9.0), "change": result(p - 0.5, 9.0)} for p in par]
    assert not bench_pairs.summarize(apart, end_to_end)["campaign_s"]["unresolved"]

    runs = [{"parent": result(0.40 + 0.001 * k, 9.0), "change": result(0.30, 9.0)}
            for k in range(10)]
    assert bench_pairs.summarize(runs, end_to_end)["campaign_s"]["gain_rule_met"]
    runs[3]["change"] = result(0.30, 9.0, failed=1)
    got = bench_pairs.summarize(runs, end_to_end)
    assert got["failed_share_worst"]["change"] > got["failed_share_worst"]["parent"]
    assert not got["campaign_s"]["gain_rule_met"]

    zero = [{"parent": result(0.4, 0.0), "change": result(0.4, d)} for d in (0.0, -1.0, 0.0)]
    got = bench_pairs.summarize(zero, end_to_end)["min_digits"]
    assert got["worse_by"] is None and got["within_bound"]
    zero[0]["change"] = zero[2]["change"] = result(0.4, -1.0)
    got = bench_pairs.summarize(zero, end_to_end)["min_digits"]
    assert got["worse_by"] is None and not got["within_bound"]


def traced(calibration_s):
    return {"metrics": {"machine.calibration_s": {"value": calibration_s, "unit": "s"},
                        "cli.self_s": {"value": 0.02, "unit": "s"}}}


def test_traced_pair_stores_both_calibrations_and_warns_on_a_wide_ratio(bench_pairs, capsys):
    """A traced pair keeps both runs and both sides' calibration loop times
    with their ratio, larger over smaller, and warns on stderr when one side's
    loop ran more than CALIBRATION_WARN times the other's, whichever side."""
    par, chg = traced(1.0e-3), traced(1.1e-3)
    got = bench_pairs.traced_pair(par, chg)
    assert got["parent"] is par and got["change"] is chg
    assert got["calibration_s"] == {"parent": 1.0e-3, "change": 1.1e-3,
                                    "ratio": pytest.approx(1.1)}
    assert capsys.readouterr().err == ""
    for slow, (p, c) in (("change", (1.0e-3, 1.6e-3)), ("parent", (1.3e-3, 1.0e-3))):
        got = bench_pairs.traced_pair(traced(p), traced(c))
        assert got["calibration_s"]["ratio"] == pytest.approx(max(p, c) / min(p, c))
        err = capsys.readouterr().err
        assert err.startswith(f"warning: the {slow} side's calibration loop")
    assert bench_pairs.CALIBRATION_WARN == 1.2
    bench_pairs.traced_pair(traced(1.0e-3), traced(1.19e-3))
    assert capsys.readouterr().err == ""


# A stand-in for verdictbench/run.py: one setup launch that touches --seed
# pages of memory, small pages only, then a result line.
FAKE_RUN = r'''
import json, subprocess, sys
touch = """
import mmap, sys
n = int(sys.argv[1]) * mmap.PAGESIZE
m = mmap.mmap(-1, n + mmap.PAGESIZE)
m.madvise(mmap.MADV_NOHUGEPAGE)
for i in range(0, n, mmap.PAGESIZE):
    m[i] = 1
"""
pages = sys.argv[sys.argv.index("--seed") + 1]
subprocess.run([sys.executable, "-c", touch, pages], check=True)
print("setup done")
print(json.dumps({"metrics": {"campaign_s": {"value": 0.1}}, "pages": int(pages)}))
'''


def test_run_bench_counts_the_minor_faults_of_the_whole_process_tree(bench_pairs, tmp_path):
    """run_bench returns the run's result and, beside it, the minor faults of
    the run and of the processes it launched: a setup launch that touches
    4096 more pages adds at least that many faults.  summarize judges the
    result objects only, so faults kept beside them change no verdict."""
    (tmp_path / "verdictbench").mkdir()
    (tmp_path / "verdictbench" / "run.py").write_text(FAKE_RUN)
    small, small_faults = bench_pairs.run_bench(str(tmp_path), "w", 0, 1, 0)
    big, big_faults = bench_pairs.run_bench(str(tmp_path), "w", 4096, 1, 0)
    assert small == {"metrics": {"campaign_s": {"value": 0.1}}, "pages": 0}
    assert big["pages"] == 4096
    assert big_faults - small_faults >= 0.9 * 4096

    end_to_end = [{"name": "campaign_s", "better": "lower", "bound": 0.2}]
    runs = [{"parent": result(0.40, 9.0), "change": result(0.30, 9.0)} for _ in range(3)]
    want = bench_pairs.summarize(runs, end_to_end)
    for run in runs:
        run["minor_faults"] = {"parent": 10 ** 6, "change": 0}
    assert bench_pairs.summarize(runs, end_to_end) == want


def up(v, n):
    """The n-th double above v."""
    for _ in range(n):
        v = math.nextafter(v, math.inf)
    return v


def test_compare_hashes_names_the_report_keys_that_moved_in_ulp(bench_pairs, tmp_path):
    """For each op whose hash differs, the keys of its two kept reports whose
    values differ, dotted through objects, list items under their list's key,
    with the largest move of their numbers in ulp; a differing bool, string or
    list length reads None, timing_s and the hash are left out, and an op
    whose hashes are equal lists nothing."""
    x = 0.1
    parent = {"determinism_hash": "p", "timing_s": {"total": 1.0}, "tolerance": x,
              "witnesses": [{"z": [x, -1.0]}, {"z": [2.0, 3.0]}], "pass": True,
              "checked": 4, "mode": "gamma", "times": [1.0], "same": 5.0}
    change = {"determinism_hash": "c", "timing_s": {"total": 2.0}, "tolerance": up(x, 2),
              "witnesses": [{"z": [up(x, 1), -1.0]}, {"z": [2.0, up(3.0, 7)]}], "pass": False,
              "checked": 5, "mode": "muir", "times": [1.0, 2.0], "same": 5.0}
    keep = {side: tmp_path / side for side in ("parent", "change")}
    for side, rep in (("parent", parent), ("change", change)):
        keep[side].mkdir()
        for op in ("moved", "equal"):
            with open(bench_pairs.keep_path(str(keep[side]), op, "--out"), "w") as fh:
                json.dump(rep if op == "moved" else parent, fh)
    got = bench_pairs.compare_hashes(
        {"hashes": {"moved": "p", "equal": "p"}, "dumps": {}, "raised": {}},
        {"hashes": {"moved": "c", "equal": "p"}, "dumps": {}, "raised": {}},
        {side: str(path) for side, path in keep.items()})
    assert got["differ"] == ["moved"]
    assert got["differ_keys"] == {"moved": {"tolerance": 2, "witnesses.z": 7, "pass": None,
                                            "checked": bench_pairs.ulps(4, 5), "mode": None,
                                            "times": None}}
    assert bench_pairs.ulps(-0.0, 0.0) == 0
    assert bench_pairs.ulps(-5e-324, 5e-324) == 2
    assert bench_pairs.ulps(1.0, up(1.0, 3)) == 3

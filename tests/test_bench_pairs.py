"""The parent-versus-change summary of tools/bench_pairs.py on synthetic runs."""

import importlib.util
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
    end_to_end = [{"name": "campaign_s", "better": "lower"},
                  {"name": "min_digits", "better": "higher"}]
    runs = [{"parent": result(0.40, 9.0, failed=3), "change": result(0.30, 9.0)},
            {"parent": result(0.42, 9.0, failed=5, attempted=50),
             "change": result(0.43, 9.5, correct=False)},
            {"parent": result(0.41, 9.0), "change": result(0.31, 8.0, failed=1, attempted=200)}]
    out = bench_pairs.summarize(runs, end_to_end)
    assert out["campaign_s"] == {"parent_quartiles": pytest.approx([0.405, 0.41, 0.415]),
                                 "change_quartiles": pytest.approx([0.305, 0.31, 0.37]),
                                 "change_better_in": 2, "pairs": 3}
    assert out["min_digits"]["change_better_in"] == 1
    assert out["failed_share_worst"] == {"parent": 0.1, "change": 0.005}
    assert out["all_correct"] == {"parent": True, "change": False}

"""The no-regression verdict of ``tools/bench_pairs.py`` on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools"
    / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

# Parent runs with a median of 100 and an IQR of 2.5 (98.75-101.25), and
# with an IQR of 25 (87.5-112.5): narrower and wider than a 0.2 bound's 20.
TIGHT = [97, 98, 99, 100, 100, 101, 102, 103]
WIDE = [60, 80, 90, 100, 100, 110, 120, 140]


@pytest.mark.parametrize("parent,change,sign,want", [
    (TIGHT, [101, 103, 104, 110, 115, 118], -1, "within bound"),
    (TIGHT, [115, 118, 119, 120, 122, 125], -1, "within bound"),  # +19.5%
    (TIGHT, [118, 119, 121, 122, 124, 130], -1, "worse beyond bound"),
    (TIGHT, [70, 75, 78, 79, 90, 99], 1, "worse beyond bound"),
    (TIGHT, [70, 75, 80, 81, 90, 99], 1, "within bound"),  # -19.5%
    (WIDE, [100, 101, 99, 100, 98, 102], -1, "unresolved"),
    (WIDE, [300, 310, 320, 330, 340, 350], -1, "unresolved"),
    (WIDE, [50, 51, 52, 53, 54, 59], -1, "within bound"),
    (WIDE, [141, 150, 160, 170, 180, 190], 1, "within bound"),
    (WIDE, [140, 150, 160, 170, 180, 190], 1, "unresolved"),  # a tie
])
def test_verdict(parent, change, sign, want):
    assert bench_pairs.verdict(parent, change, 0.2, sign) == want


def test_summary_gives_a_verdict_only_to_bounded_metrics():
    pairs = [{"parent": {"metrics": {"setup_s": a, "wall_s": a}},
              "change": {"metrics": {"setup_s": b, "wall_s": b}}}
             for a, b in zip(TIGHT, [130] * len(TIGHT))]
    summary = bench_pairs.summarize(pairs, {"setup_s": {
        "name": "setup_s", "better": "lower", "bound": 0.25}})
    assert summary["setup_s"]["verdict"] == "worse beyond bound"
    assert "verdict" not in summary["wall_s"]

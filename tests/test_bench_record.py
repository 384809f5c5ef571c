"""The benchmark recorder's arithmetic, on synthetic run lists (no benchmark runs)."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from bench_record import parse_seeds, summary, verdict, wins  # noqa: E402

WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.2}
HITS = {"name": "hits", "unit": "count", "better": "higher", "bound": 0.2}


def test_parse_seeds_reads_ranges_and_single_seeds():
    assert parse_seeds("1-4,7") == [1, 2, 3, 4, 7]
    assert parse_seeds("11") == [11]
    assert parse_seeds("3-3,5-6") == [3, 5, 6]


def test_summary_takes_inclusive_quartiles():
    s = summary([5.0, 1.0, 3.0, 2.0, 4.0])
    assert (s["median"], s["q1"], s["q3"], s["iqr"]) == (3.0, 2.0, 4.0, 2.0)
    assert s["values"] == [5.0, 1.0, 3.0, 2.0, 4.0]
    one = summary([7.0])  # a single run has no spread
    assert (one["median"], one["iqr"]) == (7.0, 0.0)


def test_wins_counts_ties_for_neither_side():
    base, new = [1.0, 2.0, 3.0, 4.0], [0.5, 2.0, 3.5, 4.0]
    assert wins(base, new, "lower") == 1
    assert wins(base, new, "higher") == 1
    assert wins(new, base, "lower") == 1


def test_a_gain_needs_nine_tenths_of_the_pairs_and_a_gap_wider_than_the_iqr():
    base = summary([10.0 + 0.1 * i for i in range(10)])  # median 10.45, IQR 0.45
    new = summary([9.0 + 0.1 * i for i in range(10)])
    assert verdict(base, new, WALL) == {"median_change": pytest.approx(-1 / 10.45),
                                        "verdict": "gain"}
    # the same medians, but two of the ten pairs go to the base
    lost = summary([9.0 + 0.1 * i for i in range(8)] + [20.0, 20.0])
    assert verdict(base, lost, WALL)["verdict"] == "within_bound"
    # nine ties and one win: the ties count for neither side
    tied = summary([10.0 + 0.1 * i for i in range(9)] + [10.0])
    assert verdict(base, tied, WALL)["verdict"] == "within_bound"
    # every pair won, but by less than the base IQR
    close = summary([9.99 + 0.1 * i for i in range(10)])
    assert verdict(base, close, WALL)["verdict"] == "within_bound"
    # higher is better: the direction flips
    assert verdict(new, base, HITS)["verdict"] == "gain"
    assert verdict(base, new, HITS)["verdict"] == "within_bound"


def test_worse_is_a_median_beyond_the_bound():
    base = summary([10.0] * 10)
    assert verdict(base, summary([12.5] * 10), WALL) == {"median_change": 0.25,
                                                         "verdict": "worse"}
    assert verdict(base, summary([11.9] * 10), WALL)["verdict"] == "within_bound"
    assert verdict(base, summary([7.5] * 10), HITS)["verdict"] == "worse"


def test_a_base_spread_wider_than_the_bound_leaves_the_metric_unresolved():
    base = summary([5.0, 8.0, 10.0, 12.0, 15.0])  # IQR 4 > 0.2 * 10
    assert verdict(base, summary([9.0, 10.0, 11.0, 12.0, 13.0]), WALL)["verdict"] == "unresolved"
    # unless every new run reads better than every base run
    wide = summary([5.0, 5.0, 10.0, 15.0, 15.0])  # IQR 10: no gain of 5.5 counts
    assert verdict(wide, summary([4.5] * 5), WALL)["verdict"] == "within_bound"
    # a median worse by more than the bound is worse, however wide the spread
    assert verdict(base, summary([13.0] * 5), WALL)["verdict"] == "worse"

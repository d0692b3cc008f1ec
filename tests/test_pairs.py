"""The verdict of tools/pairs.py on synthetic paired runs; no benchmark runs here."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parent.parent / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]


def _verdict(change, base=BASE, better="higher", bound=0.25):
    return pairs.verdict(base, change, better, bound)


def test_quartiles_are_the_inclusive_ones():
    assert pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_a_gain_wins_nine_tenths_and_clears_the_parent_spread():
    result = _verdict([b + 5.0 for b in BASE])
    assert (result["wins"], result["losses"], result["ties"]) == (10, 0, 0)
    assert result["verdict"] == "gain"
    # The same runs, read as a metric where lower is better, are a 5 % loss: within the bound.
    assert _verdict([b + 5.0 for b in BASE], better="lower")["verdict"] == "not_met"


def test_eight_wins_in_ten_are_no_gain():
    change = [b + 5.0 for b in BASE[:8]] + [b - 1.0 for b in BASE[8:]]
    result = _verdict(change)
    assert result["wins"] == 8 and result["verdict"] == "not_met"


def test_ties_count_for_neither_side():
    change = [b + 5.0 for b in BASE[:9]] + [BASE[9]]
    result = _verdict(change)
    assert (result["wins"], result["ties"]) == (9, 1)
    assert result["verdict"] == "gain"
    change = [b + 5.0 for b in BASE[:8]] + BASE[8:]
    assert _verdict(change)["verdict"] == "not_met"


def test_a_median_shift_inside_the_parent_quartiles_is_no_gain():
    # The change wins every pair, but by less than the parent's interquartile range.
    base = [90.0, 95.0, 100.0, 105.0, 110.0] * 2
    result = _verdict([b + 1.0 for b in base], base=base)
    assert result["wins"] == 10 and result["verdict"] == "not_met"


def test_a_regression_is_worse_than_the_bound():
    assert _verdict([b * 0.74 for b in BASE])["verdict"] == "regression"
    assert _verdict([b * 0.76 for b in BASE])["verdict"] == "not_met"
    # Lower is better: a median 30 % higher is a regression.
    assert _verdict([b * 1.3 for b in BASE], better="lower")["verdict"] == "regression"


def test_a_wide_spread_is_unresolved_unless_the_sides_separate():
    wide = [50.0, 150.0, 60.0, 140.0, 100.0, 100.0, 70.0, 130.0, 90.0, 110.0]
    assert _verdict(wide)["verdict"] == "unresolved"
    assert _verdict(BASE, base=wide)["verdict"] == "unresolved"
    # Every run of the change above every run of the parent, though the change spreads widely.
    apart = [400.0 + 4.0 * (w - 100.0) for w in wide]
    result = _verdict(apart)
    assert result["spread_frac"] > 0.25 and result["verdict"] == "gain"


def test_a_zero_median_is_compared_without_dividing_by_it():
    zeros = [0.0] * 4
    assert _verdict(zeros, base=zeros, better="lower")["verdict"] == "not_met"
    assert _verdict([1.0] * 4, base=zeros, better="lower")["verdict"] == "regression"


@pytest.mark.parametrize("base, change, better, message", [
    ([1.0], [1.0, 2.0], "higher", "one base and one change value per pair"),
    ([], [], "higher", "one base and one change value per pair"),
    ([1.0], [1.0], "faster", "better must be 'higher' or 'lower'"),
])
def test_malformed_runs_are_rejected(base, change, better, message):
    with pytest.raises(ValueError, match=message):
        pairs.verdict(base, change, better, 0.25)

"""The verdict of tools/pairs.py on synthetic paired runs, and its warm-up, --seed and
--workload with the benchmark stubbed out; no benchmark runs here."""

import importlib.util
import json
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


def _stub_runs(monkeypatch, value=lambda n, side: 1.0):
    """Stub the benchmark out of pairs.main; return the (tree side, workload, seed) of each run.
    Every metric of run n, counted from 0 over both sides, reads value(n, side)."""
    spec = json.loads((pairs.ROOT / pairs.SPEC).read_text())
    calls = []

    def run_once(tree, workload, seed, seconds):
        calls.append(("base" if tree != pairs.ROOT else "change", workload, seed))
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {m["name"]: {"value": value(len(calls) - 1, calls[-1][0])}
                            for m in spec["end_to_end"]}}

    monkeypatch.setattr(pairs, "run_once", run_once)
    monkeypatch.setattr(pairs, "export", lambda rev, into: into.mkdir() or "0" * 40)
    monkeypatch.setattr(pairs, "same_benchmark", lambda a, b: [])
    return [w["name"] for w in spec["workloads"]], calls


def test_seed_and_workloads_default_to_one_and_every_workload(monkeypatch, tmp_path):
    names, calls = _stub_runs(monkeypatch)
    assert pairs.main(["--out", str(tmp_path / "out.json")]) == 0
    report = json.loads((tmp_path / "out.json").read_text())
    assert report["seed"] == 1 and list(report["workloads"]) == names
    assert [c[1] for c in calls] == [n for n in names for _ in range(2 * pairs.PAIRS + 2)]
    assert {c[2] for c in calls} == {1}


def test_seed_and_repeated_workloads_select_the_runs(monkeypatch, tmp_path):
    names, calls = _stub_runs(monkeypatch)
    chosen = [names[-1], names[0]]
    argv = ["--seed", "90217", "--out", str(tmp_path / "out.json")]
    assert pairs.main([*argv, "--workload", chosen[0], "--workload", chosen[1]]) == 0
    report = json.loads((tmp_path / "out.json").read_text())
    assert report["seed"] == 90217 and list(report["workloads"]) == chosen
    assert [c[1] for c in calls] == [n for n in chosen for _ in range(2 * pairs.PAIRS + 2)]
    assert {c[2] for c in calls} == {90217}


def test_a_warm_up_run_of_each_side_precedes_the_pairs_and_enters_no_verdict(monkeypatch,
                                                                              tmp_path):
    # A warm-up run reads 1000 on the change and 0 on the parent; the pairs all read 1.
    names, calls = _stub_runs(monkeypatch, lambda n, side: 1.0 if n >= 2 else
                              {"base": 0.0, "change": 1000.0}[side])
    assert pairs.main(["--workload", names[0], "--out", str(tmp_path / "out.json")]) == 0
    # Each side once, then the parent first in even pairs and the change first in odd ones.
    alternating = ["base", "change", "change", "base"] * (pairs.PAIRS // 2)
    assert [c[0] for c in calls] == ["base", "change"] + alternating
    report = json.loads((tmp_path / "out.json").read_text())["workloads"][names[0]]
    assert [(r["pair"], r["side"], r["metrics"]["ops_per_s"]) for r in report["warmup"]] == [
        (None, "base", 0.0), (None, "change", 1000.0)]
    assert [r["pair"] for r in report["runs"]] == [i for i in range(pairs.PAIRS) for _ in "ab"]
    for m in report["metrics"].values():
        assert m["base"] == m["change"] == {"q1": 1.0, "median": 1.0, "q3": 1.0}
        assert (m["ties"], m["verdict"]) == (pairs.PAIRS, "not_met")


def test_an_unknown_workload_is_a_usage_error(monkeypatch, tmp_path, capsys):
    _, calls = _stub_runs(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        pairs.main(["--workload", "nonesuch", "--out", str(tmp_path / "out.json")])
    assert exc.value.code == 2 and "invalid choice: 'nonesuch'" in capsys.readouterr().err
    assert calls == []

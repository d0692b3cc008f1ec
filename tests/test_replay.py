"""The comparison of tools/replay.py on a few ops run in process; no git and no subprocess here."""

import importlib.util
import math
import sys
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "replay", Path(__file__).resolve().parent.parent / "tools" / "replay.py")
replay = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(replay)

_SCAN = ["scan", "--axis", "tau", "--from", "0.5", "--to", "1", "--points"]
ARGVS = [["threshold", "--omega-delta", "0"],
         ["crossing", "--omega1", "0", "--omega2", "1"],
         ["concurrence", "--omega-sigma", "2", "--omega-delta", "0"],  # no temperature: exit 2
         _SCAN + ["2"]]


def test_the_replayed_ops_are_the_benchmark_command_lines():
    argvs = replay.replay_argvs()
    assert len(argvs) == 3 * 1200 + 45
    assert all(argv[0] == "scan" and len(argv) > 10 for argv in argvs[-45:])
    assert replay.replay_argvs() == argvs


def test_the_same_tree_replays_the_same():
    results = replay.run_ops(ARGVS)
    assert [r[0] for r in results] == [0, 0, 2, 0]
    assert results[0][2] == '{"tau_t": 0.910239226627}\n'
    assert results[2][2] == ""
    assert replay.differing(results, replay.run_ops(ARGVS)) == []


def test_a_changed_exit_code_or_stdout_differs():
    base = replay.run_ops(ARGVS)
    # Op 2 now exits 0 with output; op 3 prints three rows instead of two.
    change = replay.run_ops(ARGVS[:2] + [ARGVS[2] + ["--tau", "1"], _SCAN + ["3"]])
    assert replay.differing(base, change) == [2, 3]
    shown = replay.describe(ARGVS[3], base[3], change[3])
    assert shown.startswith("spinpair scan --axis tau") and "exit 0 -> 0" in shown
    assert "stdout line 3:" in shown
    # The same stdout under another exit code.
    assert replay.differing(base, [base[0], [3, *base[1][1:]], *base[2:]]) == [1]
    assert "stdout is the same" in replay.describe(ARGVS[1], base[1], [3, *base[1][1:]])


def test_library_draws_are_seeded_and_replay_the_same():
    draws = replay.library_draws(200)
    assert draws == replay.library_draws(200) != replay.library_draws(200, seed=2)
    corner = [d for d in draws if max(d[0], d[1]) <= replay.CORNER_UNITS * 5e-324]
    assert 40 <= len(corner) <= 80
    for wd, j, beta, sigmas in draws:
        assert 0.0 < beta <= sys.float_info.max and sigmas[:2] == [0.0, 5e-324]
        assert len(set(sigmas)) == len(sigmas) and max(sigmas) < math.inf
        # Both crossings with their float neighbours: the E1/E2 one, |D - J|, is always finite.
        t21_crossing = abs(math.hypot(wd, j) - j)
        assert {math.nextafter(t21_crossing, 0.0), t21_crossing} <= set(sigmas)
    outcomes = replay.run_draws(draws[:20])
    assert replay.differing_draws(outcomes, replay.run_draws(draws[:20])) == []
    # Each point's _gaps, _ground, and populations, Z and C at beta and at beta = inf.
    assert all(len(o) == 8 * len(d[3]) for o, d in zip(outcomes, draws) if "Error" not in str(o))
    changed = [*outcomes[:3], outcomes[3][:5] + ["ArithmeticError: x"] + outcomes[3][6:]]
    assert replay.differing_draws(outcomes[:4], changed) == [3]
    shown = replay.describe_draw(draws[3], outcomes[3], changed[3])
    assert shown.startswith(f"library draw omega_delta={draws[3][0]!r}") and ": call 5" in shown


def test_a_library_draw_where_t43_rounds_to_float_max_is_finite():
    (outcomes,) = replay.run_draws([[6.915936136574687e298, sys.float_info.max, 1e-308,
                                     [1.716325371635124e150]]])
    assert outcomes[0].startswith(f"({sys.float_info.max!r}, ")  # T43 rounds to float max
    assert not any(word in o for o in outcomes[1:] for word in ("nan", "inf"))

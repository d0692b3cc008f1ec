import hashlib
import json
import math

import numpy as np
import pytest

from spinpair import cli, entangle, model, observe, thermo
from spinpair.cli import main


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse-level usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_concurrence_zero_temp_singlet(capsys):
    code, out, _ = run_cli(
        capsys, "concurrence", "--omega-sigma", "0", "--omega-delta", "0", "--zero-temp"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["concurrence"] == 1.0
    assert payload["populations"] == [0.0, 0.0, 1.0, 0.0]


def test_concurrence_thermal_value(capsys):
    code, out, _ = run_cli(
        capsys, "concurrence", "--omega-sigma", "2", "--omega-delta", "0", "--tau", "0.5"
    )
    assert code == 0
    payload = json.loads(out)
    expected = (math.exp(2.0) - 3.0) / (2.0 * math.cosh(2.0) + math.exp(2.0) + 1.0)
    assert math.isclose(payload["concurrence"], expected, rel_tol=1e-9)
    assert math.isclose(sum(payload["populations"]), 1.0, rel_tol=1e-9)


def test_concurrence_invalid_tau(capsys):
    code, _, err = run_cli(
        capsys, "concurrence", "--omega-sigma", "2", "--omega-delta", "0", "--tau", "-1"
    )
    assert code == 2
    assert "tau" in err


def test_concurrence_requires_temperature(capsys):
    code, _, _ = run_cli(capsys, "concurrence", "--omega-sigma", "2", "--omega-delta", "0")
    assert code == 2


@pytest.mark.parametrize(
    "command",
    [
        "concurrence --omega-sigma 2 --omega-delta 0 --tau 0.5 --zero-temp",
        "spectrum --omega-sigma 2 --omega-delta 0 --tau 0.5 --zero-temp",
        "threshold --omega-delta 1 --j-hz 7",
        "crossing --preset hc --omega1 4 --omega2 1",
        "crossing --preset hc --omega2 1",
        "threshold --j-hz 7 --coupling 2",
        "scan --axis tau --from 0 --to 1 --points 5 --omega-sigma 2 --omega-delta 1 --tau 7",
        "scan --axis field --from 1 --to 3 --points 5 --omega-delta 1 --tau 0.5 --omega-sigma 9",
    ],
)
def test_conflicting_flags_are_usage_errors(capsys, command):
    code, out, _ = run_cli(capsys, *command.split())
    assert (code, out) == (2, "")


@pytest.mark.parametrize(
    "implicit, explicit",
    [
        ("threshold --omega-delta 1", "--coupling 1"),
        ("scan --axis tau --from 0 --to 1 --points 5 --omega-delta 1", "--omega-sigma 0"),
    ],
)
def test_absent_mode_flags_take_their_defaults(capsys, implicit, explicit):
    code, out, _ = run_cli(capsys, *implicit.split())
    assert code == 0
    assert run_cli(capsys, *implicit.split(), *explicit.split()) == (code, out, "")


def test_concurrence_agrees_with_scan_beyond_the_crossing(capsys):
    # Far beyond the crossing the population form cancels; both commands use
    # the ratio form. 60-digit reference: 4.03546793523e-180.
    mpmath = pytest.importorskip("mpmath")
    ws, tau = "553.7013048759595", "0.6696219470040682"
    code, out, _ = run_cli(
        capsys, "concurrence", "--omega-sigma", ws, "--omega-delta", "0", "--tau", tau
    )
    assert code == 0
    c = json.loads(out)["concurrence"]
    code, out, _ = run_cli(
        capsys, "scan", "--axis", "field", "--from", ws, "--to", ws, "--points", "1",
        "--omega-delta", "0", "--tau", tau,
    )
    assert code == 0
    assert float(out.split("\n")[1].split(",")[1]) == c
    with mpmath.workdps(60):
        b, w = 1 / mpmath.mpf(tau), mpmath.mpf(ws) / 2
        want = (mpmath.exp(b) - 3) / (2 * mpmath.cosh(b * w) + mpmath.exp(b) + 1)
    assert abs(c - float(want)) <= 1e-11 * float(want)


def test_scan_temperature_axis(capsys):
    code, out, _ = run_cli(
        capsys,
        "scan",
        "--axis", "tau",
        "--from", "0.01",
        "--to", "1.2",
        "--points", "120",
        "--omega-sigma", "0",
        "--omega-delta", "0",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,concurrence"
    assert len(lines) == 121
    rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
    values = [c for _, c in rows]
    assert all(b <= a for a, b in zip(values, values[1:]))
    tau_t = 1.0 / math.log(3.0)
    for tau, c in rows:
        assert (c == 0.0) == (tau > tau_t)


def test_scan_field_axis_drop(capsys):
    code, out, _ = run_cli(
        capsys,
        "scan",
        "--axis", "field",
        "--from", "3.0",
        "--to", "4.4",
        "--points", "141",
        "--omega-delta", "2.5",
        "--tau", "0.01",
    )
    assert code == 0
    rows = [tuple(map(float, line.split(","))) for line in out.strip().split("\n")[1:]]
    drops = [a[1] - b[1] for a, b in zip(rows, rows[1:])]
    steepest = max(range(len(drops)), key=drops.__getitem__)
    crit = 0.5 * (2.0 + math.sqrt(29.0))
    assert rows[steepest][0] <= crit <= rows[steepest + 1][0]


def test_scan_single_point(capsys):
    code, out, _ = run_cli(
        capsys,
        "scan",
        "--axis", "tau",
        "--from", "0.5",
        "--to", "0.5",
        "--points", "1",
        "--omega-sigma", "2",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    assert lines[1].startswith("0.5,")


def test_scan_invalid_range(capsys):
    code, _, _ = run_cli(
        capsys, "scan", "--axis", "tau", "--from", "1", "--to", "0", "--points", "5"
    )
    assert code == 2
    code, _, _ = run_cli(
        capsys, "scan", "--axis", "field", "--from", "0", "--to", "1", "--points", "5"
    )
    assert code == 2  # missing --tau


def test_scan_determinism(capsys):
    argv = (
        "scan", "--axis", "tau", "--from", "0.05", "--to", "1.0",
        "--points", "40", "--omega-sigma", "1.5", "--omega-delta", "1.0",
    )
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_threshold_dimensionless(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--omega-delta", "0")
    assert code == 0
    payload = json.loads(out)
    assert math.isclose(payload["tau_t"], 1.0 / math.log(3.0), rel_tol=1e-9)


def test_threshold_never(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--omega-delta", "1", "--coupling", "0")
    assert code == 0
    assert json.loads(out)["tau_t"] == "never"


def test_threshold_si_rows(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--j-hz", "7")
    assert code == 0
    t = json.loads(out)["t_kelvin"]
    assert math.isclose(t, 3.057922e-10, rel_tol=1e-5)
    assert abs(t - 0.31e-9) / 0.31e-9 <= 0.02
    code, out, _ = run_cli(capsys, "threshold", "--j-hz", "14500")
    t = json.loads(out)["t_kelvin"]
    assert abs(t - 0.63e-6) / 0.63e-6 <= 0.02


def test_threshold_bad_input(capsys):
    assert run_cli(capsys, "threshold")[0] == 2
    for j_hz in ("0", "inf", "nan"):
        code, out, _ = run_cli(capsys, "threshold", "--j-hz", j_hz)
        assert code == 2
        assert out == ""


def test_threshold_rejects_infinite_coupling(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--omega-delta", "1", "--coupling", "inf")
    assert code == 2
    assert out == ""


def test_linalg_error_exits_numerical(capsys, monkeypatch):
    # LinAlgError subclasses ValueError but is a numerical failure, not usage.
    def fail(*args):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr(entangle, "threshold_tau", fail)
    code, _, err = run_cli(capsys, "threshold", "--omega-delta", "1")
    assert code == 3
    assert "numerical failure" in err


def test_spectrum_silent_ground(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--omega-sigma", "1", "--omega-delta", "0", "--zero-temp"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "transition,frequency,amplitude"
    assert len(lines) == 5
    for line in lines[1:]:
        assert abs(float(line.split(",")[2])) <= 1e-12


def test_spectrum_heteronuclear_lines(capsys):
    wd = 1.0 / math.tan(math.radians(60.0))
    code, out, _ = run_cli(
        capsys,
        "spectrum",
        "--omega-sigma", "1",
        "--omega-delta", f"{wd!r}",
        "--zero-temp",
    )
    assert code == 0
    amps = {}
    for line in out.strip().split("\n")[1:]:
        name, _, amp = line.split(",")
        amps[name] = float(amp)
    assert abs(amps["T31"]) > 1e-3 and abs(amps["T43"]) > 1e-3
    assert abs(amps["T21"]) < 1e-4 and abs(amps["T42"]) < 1e-4


def test_spectrum_render_section(capsys):
    code, out, _ = run_cli(
        capsys,
        "spectrum",
        "--omega-sigma", "1.5",
        "--omega-delta", "0.5",
        "--tau", "0.2",
        "--render", "0", "3", "61",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "transition,frequency,amplitude"
    assert lines[5] == "f,intensity"
    assert len(lines) == 5 + 1 + 61


def test_spectrum_rejects_zero_flip_angle(capsys):
    code, _, _ = run_cli(
        capsys, "spectrum", "--omega-sigma", "1", "--omega-delta", "0",
        "--zero-temp", "--phi", "0",
    )
    assert code == 2


def test_crossing_presets(capsys):
    code, out, _ = run_cli(capsys, "crossing", "--preset", "hh")
    assert code == 0
    payload = json.loads(out)
    assert payload["field_ratio"] == 1.0
    assert payload["j_cross"] == 1.0

    code, out, _ = run_cli(capsys, "crossing", "--preset", "hyperfine")
    payload = json.loads(out)
    assert payload["j_cross"] == "none"
    assert "field_ratio" not in payload

    code, out, _ = run_cli(capsys, "crossing", "--preset", "positronium")
    assert json.loads(out)["j_cross"] == "none"


def test_crossing_explicit_frequencies(capsys):
    code, out, _ = run_cli(capsys, "crossing", "--omega1", "4", "--omega2", "1")
    assert code == 0
    assert json.loads(out)["j_cross"] == 1.6
    # 2 w1 w2 / (w1 + w2) = 8/3 solves only the squared condition: omega_sigma = -3.
    code, out, _ = run_cli(capsys, "crossing", "--omega1", "1", "--omega2=-4")
    assert (code, out) == (0, '{"j_cross": "none"}\n')


@pytest.mark.parametrize(
    "omega1, omega2, want",
    [("1e300", "1e10", 2e10), ("1e200", "1e200", 1e200),
     ("1e308", "1e308", 1e308), ("1e-200", "1e-200", 1e-200)],
)
def test_crossing_extreme_frequencies(capsys, omega1, omega2, want):
    code, out, _ = run_cli(capsys, "crossing", "--omega1", omega1, "--omega2", omega2)
    assert code == 0
    assert json.loads(out) == {"j_cross": want}


# One valid command per float flag; each flag is given -1e0 in turn.
FLOAT_FLAGS = [
    ("concurrence --omega-sigma 2 --omega-delta 0 --tau 0.5", "--omega-sigma --omega-delta --tau"),
    ("scan --axis tau --from 1 --to 3 --points 5 --omega-sigma 2 --omega-delta 1",
     "--from --to --omega-sigma --omega-delta"),
    ("scan --axis field --from 1 --to 3 --points 5 --omega-delta 1 --tau 0.5", "--tau"),
    ("threshold --omega-delta 1 --coupling 1", "--omega-delta --coupling"),
    ("threshold --j-hz 3096", "--j-hz"),
    ("spectrum --omega-sigma 1 --omega-delta 0.5 --tau 1 --phi 5 --linewidth 0.05",
     "--omega-sigma --omega-delta --tau --phi --linewidth"),
    ("crossing --omega1 4 --omega2 1", "--omega1 --omega2"),
    ("reconstruct --p1z 1 --p2z 1 --p1z2z 1 --theta-deg 30", "--p1z --p2z --p1z2z --theta-deg"),
]


@pytest.mark.parametrize(
    "command, flag", [(c, f) for c, flags in FLOAT_FLAGS for f in flags.split()]
)
def test_negative_exponent_form_is_a_value(capsys, command, flag):
    argv = command.split()
    at = argv.index(flag)
    spaced = argv[:at] + [flag, "-1e0"] + argv[at + 2:]
    joined = argv[:at] + [f"{flag}=-1e0"] + argv[at + 2:]
    # stdout, exit code and stderr: a usage error from argparse differs in stderr.
    assert run_cli(capsys, *spaced) == run_cli(capsys, *joined)


def test_negative_exponent_form_values_parse(capsys):
    code, out, _ = run_cli(capsys, "crossing", "--omega1", "1e300", "--omega2", "-1e300")
    assert (code, out) == (0, '{"j_cross": "none"}\n')
    base = ("spectrum", "--omega-sigma", "1", "--omega-delta", "0", "--tau", "1", "--render")
    assert run_cli(capsys, *base, "-1e0", "1", "3") == run_cli(capsys, *base, "-1", "1", "3")


def test_spectrum_default_flip_angle_is_five_degrees(capsys):
    argv = ("spectrum", "--omega-sigma", "1.5", "--omega-delta", "0.5", "--tau", "0.2")
    assert run_cli(capsys, *argv)[1] == run_cli(capsys, *argv, "--phi", "5")[1]


def test_crossing_usage_errors(capsys):
    assert run_cli(capsys, "crossing", "--preset", "bogus")[0] == 2
    assert run_cli(capsys, "crossing", "--omega1", "4")[0] == 2
    for omega1, omega2 in (("nan", "1"), ("1", "inf")):
        code, out, _ = run_cli(capsys, "crossing", "--omega1", omega1, "--omega2", omega2)
        assert code == 2
        assert out == ""


def test_reconstruct_pure_and_mixed(capsys):
    code, out, _ = run_cli(
        capsys, "reconstruct", "--p1z", "1", "--p2z", "1", "--p1z2z", "1",
        "--theta-deg", "30",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["populations"] == [1.0, 0.0, 0.0, 0.0]
    assert payload["concurrence"] == 0.0

    code, out, _ = run_cli(
        capsys, "reconstruct", "--p1z", "0", "--p2z", "0", "--p1z2z", "0",
        "--theta-deg", "30",
    )
    payload = json.loads(out)
    assert payload["populations"] == [0.25, 0.25, 0.25, 0.25]
    assert payload["concurrence"] == 0.0


def test_reconstruct_errors(capsys):
    assert run_cli(
        capsys, "reconstruct", "--p1z", "0.1", "--p2z", "0.1", "--p1z2z", "0",
        "--theta-deg", "45",
    )[0] == 2
    assert run_cli(
        capsys, "reconstruct", "--p1z", "1", "--p2z", "1", "--p1z2z", "-1",
        "--theta-deg", "30",
    )[0] == 2


def test_reconstruct_rejects_theta_out_of_range(capsys):
    for theta_deg in ("200", "-5"):
        code, out, _ = run_cli(
            capsys, "reconstruct", "--p1z", "0.1", "--p2z", "0.05", "--p1z2z", "0.2",
            "--theta-deg", theta_deg,
        )
        assert code == 2
        assert out == ""


def test_reconstruct_chained_from_thermal_state(capsys):
    params = model.derive_from_sigma_delta(2.0, 1.0, 1.0)
    pops = thermo.populations(thermo.energies(params, 1.0), 2.0)
    obs = observe.polarizations(pops, params.theta)
    code, out, _ = run_cli(
        capsys,
        "reconstruct",
        "--p1z", repr(obs.p1z),
        "--p2z", repr(obs.p2z),
        "--p1z2z", repr(obs.p1z2z),
        "--theta-deg", repr(math.degrees(params.theta)),
    )
    assert code == 0
    payload = json.loads(out)
    direct = entangle.concurrence_for_params(params, 1.0, 2.0)
    assert math.isclose(payload["concurrence"], direct, rel_tol=1e-9)


def test_precision_env_override(capsys, monkeypatch):
    monkeypatch.setenv("SPINPAIR_PRECISION", "5")
    code, out, _ = run_cli(capsys, "threshold", "--omega-delta", "0")
    assert code == 0
    assert json.loads(out)["tau_t"] == 0.91024


def test_precision_env_invalid(capsys, monkeypatch):
    monkeypatch.setenv("SPINPAIR_PRECISION", "lots")
    assert run_cli(capsys, "threshold", "--omega-delta", "0")[0] == 2


def test_threshold_far_detuned_and_weak_coupling_are_finite(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--omega-delta", "1e30")
    assert code == 0
    assert math.isclose(json.loads(out)["tau_t"], 7.16633200200e27, rel_tol=1e-11)
    code, out, _ = run_cli(capsys, "threshold", "--omega-delta", "1", "--coupling", "1e-300")
    assert code == 0
    assert math.isclose(json.loads(out)["tau_t"], 7.23098555322e296, rel_tol=1e-11)


def test_threshold_underflowed_coupling_exits_numerical(capsys):
    code, out, err = run_cli(capsys, "threshold", "--omega-delta", "1", "--coupling", "1e-320")
    assert code == 3
    assert out == ""
    assert "numerical failure" in err


def test_tau_overflow_exits_numerical(capsys):
    code, out, _ = run_cli(
        capsys, "concurrence", "--omega-sigma", "1", "--omega-delta", "1", "--tau", "1e-320"
    )
    assert code == 3 and out == ""
    code, out, _ = run_cli(
        capsys, "scan", "--axis", "tau", "--from", "0", "--to", "1e-310", "--points", "3",
        "--omega-sigma", "1", "--omega-delta", "1",
    )
    assert code == 3 and out == ""


def test_spectrum_rejects_bad_flip_angle_and_render(capsys):
    base = ("spectrum", "--omega-sigma", "1", "--omega-delta", "0", "--tau", "1")
    for extra in (
        ("--phi", "0"),
        ("--phi", "181"),
        ("--phi", "nan"),
        ("--render", "0", "1", "2.7"),
        ("--render", "nan", "1", "1"),
    ):
        code, out, _ = run_cli(capsys, *base, *extra)
        assert code == 2, extra
        assert out == ""


def test_threshold_kelvin_underflow_exits_numerical(capsys):
    # Below about 3.4e-275 Hz the energy scale hbar 2 pi j_hz is subnormal.
    for j_hz in ("1e-280", "1e-300"):
        code, out, err = run_cli(capsys, "threshold", "--j-hz", j_hz)
        assert code == 3, j_hz
        assert out == ""
        assert "numerical failure" in err
    code, out, _ = run_cli(capsys, "threshold", "--j-hz", "1e-270")
    assert code == 0
    assert 0.0 < json.loads(out)["t_kelvin"] < math.inf


# stdout of each README example at the default precision: the full text of
# the JSON commands, the sha256 of the CSV ones.
README_OUTPUT = {
    "concurrence --omega-sigma 2 --omega-delta 0 --tau 0.5":
        '{"concurrence": 0.275807998496, "populations": '
        '[0.0085044603564, 0.0628399346646, 0.46432780249, 0.46432780249]}\n',
    "concurrence --omega-sigma 0 --omega-delta 0 --zero-temp":
        '{"concurrence": 1.0, "populations": [0.0, 0.0, 1.0, 0.0]}\n',
    "scan --axis tau --from 0.01 --to 1.2 --points 200 --omega-sigma 0":
        "e6db98d146fbbb3eae03723d2c0edc7f1822a8490458e255032b7f59abfd6b88",
    "scan --axis field --from 3.0 --to 4.4 --points 141 --omega-delta 2.5 --tau 0.01":
        "586742cd739a212df39d6df886b45409c46955775c93cbec17e81cee490d624e",
    "threshold --omega-delta 0": '{"tau_t": 0.910239226627}\n',
    "threshold --j-hz 3096": '{"t_kelvin": 1.35247499953e-07}\n',
    "spectrum --omega-sigma 1 --omega-delta 0.577 --zero-temp --phi 5 --linewidth 0.05 "
    "--render 0 3 301":
        "f8c947afc6a993388d02e0b064ecf76d78f47608d8d4adbbec4bbc3da89dbc83",
    "crossing --preset hc": '{"j_cross": 0.4, "field_ratio": 2.5}\n',
    "crossing --omega1 4 --omega2 1": '{"j_cross": 1.6}\n',
    "reconstruct --p1z 1 --p2z 1 --p1z2z 1 --theta-deg 30":
        '{"populations": [1.0, 0.0, 0.0, 0.0], "concurrence": 0.0}\n',
}


@pytest.mark.parametrize("command", sorted(README_OUTPUT))
def test_readme_examples_are_byte_identical(capsys, monkeypatch, command):
    monkeypatch.delenv("SPINPAIR_PRECISION", raising=False)
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0
    expected = README_OUTPUT[command]
    if expected.startswith("{"):
        assert out == expected
    else:
        assert hashlib.sha256(out.encode()).hexdigest() == expected


def test_scan_chunks_match_row_by_row_format(capsys, monkeypatch):
    # More rows than one write chunk, and a partial last chunk.
    monkeypatch.setenv("SPINPAIR_PRECISION", "17")
    points = 2 * cli._CHUNK_ROWS + 3
    code, out, _ = run_cli(
        capsys, "scan", "--axis", "field", "--from", "0", "--to", "5",
        "--points", str(points), "--omega-delta", "1", "--tau", "0.3",
    )
    assert code == 0
    grid = cli._grid(0.0, 5.0, points)
    rows = entangle.sweep("field", grid, omega_delta=1.0, tau=0.3)
    assert out == "x,concurrence\n" + "".join(f"{x:.17g},{c:.17g}\n" for x, c in rows)

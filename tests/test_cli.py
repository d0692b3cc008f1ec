"""The spinpair command: its JSON and CSV output, its exit codes and its process wiring.

OUTPUTS has one row per command line whose whole stdout a test fixes: the command as one
whitespace-split string, the exact stdout or, for a long CSV output, sha256: and its digest,
and the environment where a row sets SPINPAIR_PRECISION. One test gives every row the same
checks, exit 0, empty stderr and the row's stdout byte for byte, with thermo.energies made to
raise, so no CLI route forms the levels, which cancel at high field: every printed number comes
from the gaps. A new printed output is one row; a README example with a '# ->' line is checked
by test_readme instead. In a subprocess, importing spinpair.cli loads no dataclasses, and
python -m spinpair.cli exits 0, 2 and 3 as main returns them.
"""

import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import spinpair
from spinpair import cli, entangle, model, observe, spectrum, thermo
from spinpair.cli import main


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse-level usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_concurrence_thermal_value(capsys):
    code, out, _ = run_cli(
        capsys, "concurrence", "--omega-sigma", "2", "--omega-delta", "0", "--tau", "0.5"
    )
    assert code == 0
    payload = json.loads(out)
    expected = (math.exp(2.0) - 3.0) / (2.0 * math.cosh(2.0) + math.exp(2.0) + 1.0)
    assert math.isclose(payload["concurrence"], expected, rel_tol=1e-9)
    assert math.isclose(sum(payload["populations"]), 1.0, rel_tol=1e-9)


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


def test_threshold_si_rows(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--j-hz", "7")
    assert code == 0
    t = json.loads(out)["t_kelvin"]
    assert math.isclose(t, 3.057922e-10, rel_tol=1e-5)
    assert abs(t - 0.31e-9) / 0.31e-9 <= 0.02
    code, out, _ = run_cli(capsys, "threshold", "--j-hz", "14500")
    t = json.loads(out)["t_kelvin"]
    assert abs(t - 0.63e-6) / 0.63e-6 <= 0.02


def test_linalg_error_exits_numerical(capsys, monkeypatch):
    # LinAlgError subclasses ValueError but is a numerical failure, not usage.
    def fail(*args):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr(entangle, "threshold_tau", fail)
    code, _, err = run_cli(capsys, "threshold", "--omega-delta", "1")
    assert code == 3
    assert "numerical failure" in err


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


def test_spectrum_render_section(capsys, monkeypatch):
    # Without --linewidth the curve is render_lorentzian's at width 0.05, after the lines.
    monkeypatch.delenv("SPINPAIR_PRECISION", raising=False)
    argv = ("spectrum", "--omega-sigma", "1.5", "--omega-delta", "0.5", "--tau", "0.2",
            "--phi", "5")
    code, out, _ = run_cli(capsys, *argv, "--render", "0", "3", "61")
    assert code == 0
    lines, curve = out.split("f,intensity\n")
    assert lines == run_cli(capsys, *argv)[1]
    grid = cli._grid(0.0, 3.0, 61)
    beta, phi = 1.0 / 0.2, math.radians(5.0)
    want = spectrum.render_lorentzian(
        spinpair.simulate_spectrum(model.SpinSystem(1.0, 0.5, 1.0), beta, phi), 0.05, grid)
    assert curve == "".join(f"{f:.12g},{y:.12g}\n" for f, y in zip(grid, want))


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
    base = ("spectrum", "--omega-sigma", "1", "--omega-delta", "0", "--tau", "1", "--render")
    assert run_cli(capsys, *base, "-1e0", "1", "3") == run_cli(capsys, *base, "-1", "1", "3")


def test_spectrum_default_flip_angle_is_five_degrees(capsys):
    argv = ("spectrum", "--omega-sigma", "1.5", "--omega-delta", "0.5", "--tau", "0.2")
    assert run_cli(capsys, *argv)[1] == run_cli(capsys, *argv, "--phi", "5")[1]


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


def test_threshold_far_detuned_and_weak_coupling_are_finite(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--omega-delta", "1e30")
    assert code == 0
    assert math.isclose(json.loads(out)["tau_t"], 7.16633200200e27, rel_tol=1e-11)
    code, out, _ = run_cli(capsys, "threshold", "--omega-delta", "1", "--coupling", "1e-300")
    assert code == 0
    assert math.isclose(json.loads(out)["tau_t"], 7.23098555322e296, rel_tol=1e-11)


def test_threshold_kelvin_above_underflow_is_finite(capsys):
    # Below about 3.4e-275 Hz the energy scale hbar 2 pi j_hz is subnormal (FAILURES).
    code, out, _ = run_cli(capsys, "threshold", "--j-hz", "1e-270")
    assert code == 0
    assert 0.0 < json.loads(out)["t_kelvin"] < math.inf


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


def test_subnormal_csv_values_print_the_digits_they_carry(capsys, monkeypatch):
    # Bench scan 37 of seed 1: C is 1.4405471036e-317 to 11 digits, a subnormal
    # of about 22 significant bits, so 6 digits. The normal rows of its chunk
    # keep all 12.
    monkeypatch.delenv("SPINPAIR_PRECISION", raising=False)
    argv = ("--omega-sigma", "3.507696550576163", "--omega-delta", "0.363465299581727")
    code, out, _ = run_cli(
        capsys, "scan", "--axis", "tau", "--from", "0.0009895177440392843", "--to", "0.5",
        "--points", "3", *argv,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "0.000989517744039,1.44055e-317"
    rows = entangle.sweep(
        "temperature", cli._grid(0.0009895177440392843, 0.5, 3),
        omega_sigma=3.507696550576163, omega_delta=0.363465299581727,
    )
    assert lines[2:] == [f"{x:.12g},{c:.12g}" for x, c in rows[1:]]
    assert rows[2][1] > 0.0
    # Digits carried: floor((log2|x| + 1074) log10 2), at least 1, at most the precision.
    largest = math.nextafter(sys.float_info.min, 0.0)
    for value, digits, text in (
        (5e-324, 12, "5e-324"), (-5e-324, 12, "-5e-324"), (1.5e-323, 17, "1e-323"),
        (largest, 17, f"{largest:.15g}"), (largest, 12, f"{largest:.12g}"),
        (sys.float_info.min, 17, f"{sys.float_info.min:.17g}"), (0.0, 12, "0"), ("T43", 12, "T43"),
    ):
        assert cli._csv_field(value, digits) == text


def _child_env():
    """The environment for a child python that imports this spinpair, at the default precision."""
    src = os.path.dirname(os.path.dirname(spinpair.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    env.pop("SPINPAIR_PRECISION", None)
    return env


def test_cli_import_does_not_load_dataclasses():
    # The value types are namedtuples; dataclasses would import inspect, ast and dis.
    code = (
        "import sys; before = set(sys.modules); import spinpair.cli; "
        "sys.exit('dataclasses' in set(sys.modules) - before)"
    )
    subprocess.run([sys.executable, "-c", code], env=_child_env(), check=True)


def test_cli_runs_as_a_process():
    # python -m spinpair.cli ends in sys.exit(main()): main's return is the exit status.
    point = ("concurrence", "--omega-sigma", "2", "--omega-delta", "0")
    for argv, status, stdout in (
        (("threshold", "--omega-delta", "0"), 0, '{"tau_t": 0.910239226627}\n'),
        (point, 2, ""),
        ((*point, "--tau", "1e-320"), 3, ""),
    ):
        run = subprocess.run(
            [sys.executable, "-m", "spinpair.cli", *argv],
            env=_child_env(), capture_output=True, text=True,
        )
        assert (run.returncode, run.stdout) == (status, stdout), argv
        assert bool(run.stderr) == (status != 0), argv


def _output(command, stdout, id, **env):
    """An OUTPUTS row: a whitespace-split command line, its exact stdout or sha256:<hex> of it,
    and the environment it runs in."""
    return pytest.param(command, stdout, env, id=id)


def _spectrum_csv(lines):
    """spectrum's stdout for the whitespace-separated line rows."""
    return "transition,frequency,amplitude\n" + "".join(f"{row}\n" for row in lines.split())


_HIGH_FIELD = "--omega-sigma 100000000.01 --omega-delta 99999999.99 --tau 1"
_FLOAT_MAX = "--omega-sigma 1.7976931348623157e308 --omega-delta 1.7976931348623157e308"
_ZERO_LINES = _spectrum_csv("T43,1,-0 T21,0,-0 T42,0,-0 T31,1,-0")
_NONE = '{"j_cross": "none"}\n'

# Every command line whose whole stdout a test fixes, at the default precision unless the
# row sets SPINPAIR_PRECISION; a README example's '# ->' line fixes its own.
OUTPUTS = [
    _output("scan --axis tau --from 0.01 --to 1.2 --points 200 --omega-sigma 0",
            "sha256:e6db98d146fbbb3eae03723d2c0edc7f1822a8490458e255032b7f59abfd6b88",
            "readme-tau-scan"),
    _output("scan --axis field --from 3.0 --to 4.4 --points 141 --omega-delta 2.5 --tau 0.01",
            "sha256:586742cd739a212df39d6df886b45409c46955775c93cbec17e81cee490d624e",
            "readme-field-scan"),
    _output("spectrum --omega-sigma 1 --omega-delta 0.577 --zero-temp --phi 5 --linewidth 0.05 "
            "--render 0 3 301",
            "sha256:f8c947afc6a993388d02e0b064ecf76d78f47608d8d4adbbec4bbc3da89dbc83",
            "readme-spectrum"),
    _output("reconstruct --p1z 0 --p2z 0 --p1z2z 0 --theta-deg 30",
            '{"populations": [0.25, 0.25, 0.25, 0.25], "concurrence": 0.0}\n', "reconstruct-mixed"),
    _output("threshold --omega-delta 0", '{"tau_t": 0.91024}\n', "precision-5",
            SPINPAIR_PRECISION="5"),
    # The field ratio 1.75 takes the precision like every other number.
    _output("crossing --preset hp", '{"j_cross": 0.6, "field_ratio": 2.0}\n', "precision-1",
            SPINPAIR_PRECISION="1"),
    _output("crossing --preset hh", '{"j_cross": 1.0, "field_ratio": 1.0}\n', "crossing-hh"),
    _output("crossing --preset hyperfine", _NONE, "crossing-hyperfine"),
    _output("crossing --preset positronium", _NONE, "crossing-positronium"),
    _output("crossing --omega1 1e300 --omega2 -1e300", _NONE, "crossing-negative-exponent"),
    # A spin free of Zeeman terms has no crossing, whichever label it carries.
    _output("crossing --omega1 0 --omega2 1", _NONE, "crossing-no-zeeman"),
    # The intermediates of 2 w1 w2 / (w1 + w2) leave float range; the result does not.
    _output("crossing --omega1 1e300 --omega2 1e10", '{"j_cross": 20000000000.0}\n',
            "crossing-2e10"),
    _output("crossing --omega1 1e200 --omega2 1e200", '{"j_cross": 1e+200}\n', "crossing-1e200"),
    _output("crossing --omega1 1e308 --omega2 1e308", '{"j_cross": 1e+308}\n', "crossing-1e308"),
    _output("crossing --omega1 1e-200 --omega2 1e-200", '{"j_cross": 1e-200}\n', "crossing-1e-200"),
    # Bench scan 17 of seed 1 at one point: C is 1.622728391388e-313 to 13 digits, a
    # subnormal of 10 significant digits; p3, about 1.03e-312, carries 11.
    _output("concurrence --omega-sigma 10.657778838338908 --omega-delta 6.26701670753662 "
            "--tau 0.002304834454699303", '{"concurrence": 1.622728391e-313, "populations": '
            '[0.0, 0.0, 1.0298317959e-312, 1.0]}\n', "subnormal-json"),
    # Small gaps print correctly rounded digits: thermo forms them without cancellation.
    _output(f"concurrence {_HIGH_FIELD}", '{"concurrence": 6.2010643173e-09, '
            '"populations": [0.0, 0.0, 0.620106431668, 0.379893568332]}\n',
            "high-field-concurrence"),
    _output(f"spectrum {_HIGH_FIELD}", _spectrum_csv(
        "T43,0.489999997136,0.0104480482728 T21,0.510000002864,1.99168837763e-05 "
        "T42,99999999.5,-0.0165748701058 T31,100000000.5,-0.0270030011637"),
        "high-field-spectrum"),
    _output(f"spectrum {_FLOAT_MAX} --zero-temp", _spectrum_csv(
        "T43,0.5,-0 T21,0.5,-0 T42,1.79769313486e+308,-0.0217889356869 "
        "T31,1.79769313486e+308,-0.0217889356869"), "spectrum-float-max"),
    # Low field: the amplitudes keep their digits where beta times a gap is small.
    _output("spectrum --omega-sigma 0 --omega-delta 1e-6 --tau 1", _spectrum_csv(
        "T43,1,6.54733945885e-15 T21,2.5e-13,3.82081394155e-15 "
        "T42,2.5e-13,-3.82081394155e-15 T31,1,-6.54733945885e-15"), "low-field"),
    _output("spectrum --omega-sigma 0 --omega-delta 1.091766587011041e-06 --tau 758.0372",
            _spectrum_csv("T43,1,8.56817434767e-18 T21,2.97988570128e-13,8.56254553871e-18 "
                          "T42,2.97988570128e-13,-8.56254553871e-18 T31,1,-8.56817434767e-18"),
            "low-field-hot"),
    # cos 2theta = omega_delta / D = 0 where omega_delta = 0, and the lines into
    # E2 join equal populations: every amplitude is exactly 0.
    _output("spectrum --omega-sigma 0 --omega-delta 0 --zero-temp", _ZERO_LINES, "zero-temp-zero"),
    _output("spectrum --omega-sigma 0 --omega-delta 0 --tau 1", _ZERO_LINES, "zero"),
    _output("spectrum --omega-sigma 1 --omega-delta 0 --zero-temp",
            _spectrum_csv("T43,0.5,-0 T21,0.5,-0 T42,0.5,-0 T31,1.5,-0"), "silent"),
    # An inversion pulse, phi = 180 degrees, leaves no transverse magnetisation.
    _output("spectrum --omega-sigma 1 --omega-delta 0.5 --tau 1 --phi 180", _spectrum_csv(
        "T43,0.559016994375,0 T21,0.440983005625,-0 T42,0.559016994375,-0 "
        "T31,1.55901699437,-0"), "inversion"),
    # beta = inf decides the ground set on the gap offsets: E3 and E4 share it at the
    # E3/E4 crossing omega_sigma = D + J.
    _output("concurrence --omega-sigma 2 --omega-delta 0 --zero-temp",
            '{"concurrence": 0.5, "populations": [0.0, 0.0, 0.5, 0.5]}\n', "crossing-point"),
    _output("spectrum --omega-sigma 1 --omega-delta 0.577 --zero-temp", _spectrum_csv(
        "T43,0.577262721817,0.00583111884769 T21,0.422737278183,2.07095062825e-05 "
        "T42,0.577262721817,-2.07095062825e-05 T31,1.57726272182,-0.00583111884769"),
        "zero-temp-spectrum"),
    # From tau = 0 at the E3/E4 crossing omega_sigma = D + J = 2.25.
    _output("scan --axis tau --from 0 --to 1 --points 5 --omega-sigma 2.25 --omega-delta 0.75",
            "x,concurrence\n0,0.4\n0.25,0.3848754408\n0.5,0.250112294029\n"
            "0.75,0.0905179686245\n1,0\n", "tau-scan-from-zero"),
    _output("scan --axis field --from 1.9 --to 2.1 --points 5 --omega-delta 0 --tau 0",
            "x,concurrence\n1.9,1\n1.95,1\n2,0.5\n2.05,0\n2.1,0\n", "zero-temp-field-scan"),
]


@pytest.mark.parametrize("command, stdout, env", OUTPUTS)
def test_printed_outputs(capsys, monkeypatch, command, stdout, env):
    monkeypatch.delenv("SPINPAIR_PRECISION", raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    # No CLI route forms the levels, which cancel at high field: calling energies raises.
    monkeypatch.setattr(thermo, "energies", None)
    code, out, err = run_cli(capsys, *command.split())
    if stdout.startswith("sha256:"):
        out = "sha256:" + hashlib.sha256(out.encode()).hexdigest()
    assert (code, out, err) == (0, stdout, "")

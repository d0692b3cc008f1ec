"""The CLI contract, checked on generated command lines for all six subcommands.

The command lines are derandomised hypothesis draws, extreme, non-finite and
negative exponent-form values included. Every run exits 0, 2 or 3, prints to
stdout only when it exits 0, and never prints a non-finite number. "never"
needs J = 0, and a numeric crossing coupling needs two positive Larmor
frequencies. A one-point scan on either axis prints the concurrence that
`concurrence` prints.

The library contract: every public function that takes floats, called with
the same extreme values, returns a finite result (or a documented None) or
raises ValueError or ArithmeticError on purpose.

Any warning fails the suite (filterwarnings = ["error"] in pyproject.toml),
except the mypy_extensions.TypedDict deprecation that hypothesis sets off while
it reports a failing example: made an error, it turns the report into a pytest
INTERNALERROR.
"""

import contextlib
import inspect
import io
import json
import math
import re
from unittest import mock

import numpy as np
import pytest

import spinpair as sp
from spinpair import cli, critical, entangle

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# Extreme, non-finite, signed-zero and negative exponent-form values, besides
# any float in repr form (which gives "nan", "inf" and "1e+300" spellings).
SPECIAL = [
    "0", "-0", "1", "-1", "0.5", "2", "1e10", "-2.5e0", "1e300", "-1e300",
    "1e-320", "-1e-320", "5e-324", "1.7976931348623157e308",
    "-1.7976931348623157e308", "inf", "-inf", "nan",
]
VALUES = st.one_of(st.sampled_from(SPECIAL), st.floats().map(repr))

# command: (flags always given, flags given or not, strategy of its other arguments)
_COMMANDS = {
    "concurrence": (
        ("--omega-sigma", "--omega-delta"), ("--tau",), st.sampled_from([[], ["--zero-temp"]]),
    ),
    "scan": (
        ("--from", "--to"),
        ("--omega-sigma", "--omega-delta", "--tau"),
        st.tuples(st.sampled_from(["tau", "field"]), st.sampled_from(["1", "2", "5", "17"]))
        .map(lambda t: ["--axis", t[0], "--points", t[1]]),
    ),
    "threshold": ((), ("--omega-delta", "--j-hz", "--coupling"), st.just([])),
    "spectrum": (
        ("--omega-sigma", "--omega-delta"),
        ("--tau", "--phi", "--linewidth"),
        st.one_of(
            st.sampled_from([[], ["--zero-temp"]]),
            st.tuples(VALUES, VALUES, st.sampled_from(["1", "3", "7", "2.5"]))
            .map(lambda t: ["--render", *t]),
        ),
    ),
    "crossing": (
        (),
        ("--omega1", "--omega2"),
        st.sampled_from([[]] + [["--preset", p] for p in sorted(critical.PRESET_RATIOS)]),
    ),
    "reconstruct": (("--p1z", "--p2z", "--p1z2z", "--theta-deg"), (), st.just([])),
}


@st.composite
def invocations(draw):
    """(argv, {flag: value string}) for one generated command line."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    always, maybe, others = _COMMANDS[command]
    flags = always + tuple(flag for flag in maybe if draw(st.booleans()))
    given = {flag: draw(VALUES) for flag in flags}
    argv = [command]
    for flag, value in given.items():
        # Both spellings: "--flag -1e300" relies on the parser's rule for negative numbers.
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv + draw(others), given


# One parser for every run: building it costs more than most commands.
_PARSER = cli.build_parser()


def _run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with (
        mock.patch.object(cli, "build_parser", lambda: _PARSER),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(io.StringIO()),
    ):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse-level usage errors
            code = exc.code
    return code, out.getvalue()


@hypothesis.settings(derandomize=True, deadline=None, database=None, max_examples=250)
@hypothesis.given(invocations())
@hypothesis.example(  # 2 w1 w2 / (w1 + w2) = 8/3 solves only the squared crossing condition
    (["crossing", "--omega1", "1", "--omega2=-4"], {"--omega1": "1", "--omega2": "-4"})
)
@hypothesis.example(  # lines near 5e299 rendered at 0..1: squared offsets overflow
    (["spectrum", "--omega-sigma=1e300", "--omega-delta=0", "--zero-temp",
      "--render", "0", "1", "3"], {"--omega-sigma": "1e300", "--omega-delta": "0"})
)
def test_cli_contract(invocation):
    argv, given = invocation
    code, out = _run(argv)
    assert code in (0, 2, 3)
    assert code == 0 or out == ""
    assert not re.search("nan|inf", out, re.IGNORECASE)
    if '"never"' in out:
        assert float(given.get("--coupling", "1")) == 0.0
    if argv[0] == "crossing" and code == 0 and json.loads(out)["j_cross"] != "none":
        if "--preset" in argv:
            assert argv[argv.index("--preset") + 1] in critical.FIELD_RATIOS
        else:
            assert float(given["--omega1"]) > 0.0 and float(given["--omega2"]) > 0.0


@hypothesis.settings(derandomize=True, deadline=None, database=None, max_examples=100)
@hypothesis.given(VALUES, VALUES, st.one_of(st.none(), VALUES))
@hypothesis.example("2", "0", "0.5")
@hypothesis.example("0", "0", None)
@hypothesis.example("2", "0", "inf")
@hypothesis.example("2.25", "0.75", None)  # at the E3/E4 crossing, C = sin(2 theta) / 2
def test_one_point_scan_prints_the_concurrence(omega_sigma, omega_delta, tau):
    frequencies = [f"--omega-sigma={omega_sigma}", f"--omega-delta={omega_delta}"]
    temperature = ["--zero-temp"] if tau is None else [f"--tau={tau}"]
    code, out = _run(["concurrence", *frequencies, *temperature])
    at = "0" if tau is None else tau  # a scan's tau = 0 is the zero-temperature limit
    scans = (
        ["scan", "--axis", "tau", f"--from={at}", f"--to={at}", "--points", "1", *frequencies],
        ["scan", "--axis", "field", f"--from={omega_sigma}", f"--to={omega_sigma}",
         "--points", "1", f"--omega-delta={omega_delta}", f"--tau={at}"],
    )
    for scan in scans:
        scan_code, scan_out = _run(scan)
        # --tau 0 asks for --zero-temp; every other tau is accepted or rejected alike.
        if tau is None or float(tau) != 0.0:
            assert scan_code == code
        if code == 0 and scan_code == 0:
            header, row = scan_out.splitlines()
            assert float(row.split(",")[1]) == json.loads(out)["concurrence"]


FLOATS = st.one_of(st.sampled_from([float(v) for v in SPECIAL]), st.floats())

# A fixed set of lines for render_lorentzian, whose drawn floats are the linewidth and the grid.
_LINES = sp.simulate_spectrum(sp.derive(sp.SpinSystem(2.0, 1.0, 1.0)), 1.0)


def _params(a, b, c):
    return sp.derive_from_sigma_delta(a, b, c)


def _levels(a, b, c):
    return sp.energies(_params(a, b, c), c)


# One call per public function that takes floats, plus entangle.threshold_beta, each
# taking its floats from the drawn a..f; systems, params, levels, populations,
# observables and grids are built from drawn floats inside the call. Left out:
# entangle.entanglement_gap, the raw formula inside threshold_beta's Newton loop,
# called about 5 times per root and counted by the bench tracer: a check there
# would cost every step.
_LIBRARY_CALLS = [
    (sp.concurrence_for_params,
     lambda a, b, c, d, *_: sp.concurrence_for_params(_params(a, b, c), c, d)),
    (sp.concurrence_from_observables,
     lambda a, b, c, d, *_: sp.concurrence_from_observables(sp.Observables(a, b, c), d)),
    (sp.concurrence_from_populations,
     lambda a, b, c, d, e, *_: sp.concurrence_from_populations((a, b, c, d), e)),
    (sp.concurrence_homonuclear, lambda a, b, c, *_: sp.concurrence_homonuclear(a, b, c)),
    (sp.concurrence_thermal,
     lambda a, b, c, d, *_: sp.concurrence_thermal(sp.SpinSystem(a, b, c), d)),
    (sp.critical_omega_sigma, lambda a, b, *_: sp.critical_omega_sigma(a, b)),
    (sp.crossing_coupling, lambda a, b, *_: sp.crossing_coupling(a, b)),
    (sp.density_matrix, lambda a, b, c, d, e, *_: sp.density_matrix((a, b, c, d), e)),
    (sp.derive_from_sigma_delta, lambda a, b, c, *_: _params(a, b, c)),
    (sp.energies, lambda a, b, c, *_: _levels(a, b, c)),
    (sp.from_si, lambda a, b, c, *_: sp.from_si(a, b, c)),
    (sp.partition_for_params,
     lambda a, b, c, d, *_: sp.partition_for_params(_params(a, b, c), c, d)),
    (sp.polarizations, lambda a, b, c, d, e, *_: sp.polarizations((a, b, c, d), e)),
    (sp.populations, lambda a, b, c, d, *_: sp.populations(_levels(a, b, c), d)),
    (sp.populations_for_params,
     lambda a, b, c, d, *_: sp.populations_for_params(_params(a, b, c), c, d)),
    (sp.preset, lambda a, b, *_: [sp.preset(n, a, b) for n in sorted(sp.PRESET_RATIOS)]),
    (sp.reconstruct_populations,
     lambda a, b, c, d, *_: sp.reconstruct_populations(sp.Observables(a, b, c), d)),
    (sp.render_lorentzian, lambda a, b, c, *_: sp.render_lorentzian(_LINES, a, sorted((b, c)))),
    (sp.simulate_spectrum,
     lambda a, b, c, d, e, *_: sp.simulate_spectrum(_params(a, b, c), d, e)),
    (sp.sweep, lambda a, b, c, d, e, *_: list(sp.sweep(
        "temperature", sorted((a, b)), omega_sigma=c, omega_delta=d, coupling=e))),
    (sp.sweep, lambda a, b, c, d, e, *_: list(sp.sweep(
        "field", sorted((a, b)), omega_delta=c, tau=d, coupling=e))),
    (sp.threshold_kelvin, lambda a, *_: sp.threshold_kelvin(a)),
    (sp.threshold_tau, lambda a, b, *_: sp.threshold_tau(a, b)),
    (sp.transition_amplitudes,
     lambda a, b, c, d, e, f: sp.transition_amplitudes((a, b, c, d), e, f)),
    (sp.transition_frequencies_for_params,
     lambda a, b, c, *_: sp.transition_frequencies_for_params(_params(a, b, c), c)),
    (entangle.threshold_beta, lambda a, *_: entangle.threshold_beta(a)),
]


def test_library_contract_covers_every_public_float_function():
    takes_floats = {
        name for name in sp.__all__
        if inspect.isfunction(function := getattr(sp, name))
        and any("float" in str(p.annotation)
                for p in inspect.signature(function).parameters.values())
    }
    called = {function.__name__ for function, _ in _LIBRARY_CALLS}
    assert called == takes_floats | {"threshold_beta"}


def _finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, np.ndarray):
        return bool(np.isfinite(value).all())
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (tuple, list)):
        return all(map(_finite, value))
    return isinstance(value, (int, str))  # flags, level indices, line names


@hypothesis.settings(derandomize=True, deadline=None, database=None, max_examples=200)
@hypothesis.given(st.lists(FLOATS, min_size=6, max_size=6))
@hypothesis.example([0.0] * 6)  # s = 0: threshold_beta must not divide by it
# T43 = (J + D - omega_sigma) / 2 rounds to float max, and the sum of its halves rounds past it.
@hypothesis.example([1.716325371635124e150, 6.915936136574687e298, 1.7976931348623157e308, 0.0, 0.0, 0.0])
def test_library_contract(floats):
    for function, call in _LIBRARY_CALLS:
        try:
            result = call(*floats)
        except (ValueError, ArithmeticError) as exc:
            # Raised on purpose: not a ZeroDivisionError or OverflowError, nor a
            # "math domain error", escaping from the arithmetic.
            assert type(exc) in (ValueError, ArithmeticError), (function, exc)
            assert "math domain error" not in str(exc), function
            continue
        if result is None:
            assert "None" in str(inspect.signature(function).return_annotation), function
        else:
            assert _finite(result), (function, result)

"""The CLI contract, checked on generated command lines for all six subcommands.

Every run exits 0, 2 or 3, prints to stdout only when it exits 0, and never
prints a non-finite number. "never" needs J = 0, and a numeric crossing
coupling needs two positive Larmor frequencies. A one-point tau scan prints
the concurrence that `concurrence` prints.
"""

import contextlib
import io
import json
import math
import re
from unittest import mock

import pytest

from spinpair import cli, critical

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
def test_one_point_scan_prints_the_concurrence(omega_sigma, omega_delta, tau):
    frequencies = [f"--omega-sigma={omega_sigma}", f"--omega-delta={omega_delta}"]
    temperature = ["--zero-temp"] if tau is None else [f"--tau={tau}"]
    code, out = _run(["concurrence", *frequencies, *temperature])
    at = "0" if tau is None else tau  # a scan's tau = 0 is the zero-temperature limit
    scan_code, scan_out = _run(
        ["scan", "--axis", "tau", f"--from={at}", f"--to={at}", "--points", "1", *frequencies]
    )
    # --tau 0 asks for --zero-temp, and --tau inf is beta = 0: a scan grid must be finite.
    if tau is None or 0.0 < float(tau) < math.inf:
        assert scan_code == code
    if code == 0 and scan_code == 0:
        header, row = scan_out.splitlines()
        assert float(row.split(",")[1]) == json.loads(out)["concurrence"]

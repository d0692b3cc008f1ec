"""Command-line front end.

Scalar results go to stdout as JSON, sweeps and spectra as CSV. All
dimensionless flags are quoted in units of J (tau = k_B T / J,
omega_sigma / J, omega_delta / J). Exit codes: 0 success, 2 bad
usage or validation, 3 internal numerical failure. The environment
variable SPINPAIR_PRECISION overrides the number of significant
digits in the output (default 12). Each subcommand returns its result,
a JSON object or a list of CSV sections, and main alone prints it, so
one place rounds every printed number.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from itertools import chain, islice

import numpy as np

from . import critical, entangle, observe, spectrum, thermo
from .model import PRESET_RATIOS, _beta_from_tau, _check_grid, derive_from_sigma_delta

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

DEFAULT_DIGITS = 12

# CSV lines per stdout write: large scans neither pay one write per line
# nor hold their whole output in memory at once.
_CHUNK_ROWS = 4096

# Exponents e-308 .. e-324: every subnormal prints with one, no value >= 1e-307 does.
_TINY_EXPONENT = re.compile(r"e-3(?:0[89]|[12]\d)")


def _digits() -> int:
    raw = os.environ.get("SPINPAIR_PRECISION")
    if raw is None:
        return DEFAULT_DIGITS
    try:
        digits = int(raw)
    except ValueError:
        raise ValueError(f"SPINPAIR_PRECISION must be an integer, got {raw!r}") from None
    if not 1 <= digits <= 17:
        raise ValueError("SPINPAIR_PRECISION must lie in [1, 17]")
    return digits


def _emit_json(payload: dict, digits: int) -> None:
    """One JSON line; every number in it, also in a list, is rounded as _csv_field prints it."""

    def rounded(value):
        if isinstance(value, (list, tuple)):
            return [rounded(v) for v in value]
        return value if isinstance(value, str) else float(_csv_field(value, digits))

    print(json.dumps({key: rounded(value) for key, value in payload.items()}))


def _emit_csv(header: str, rows, digits: int) -> None:
    """The header, then one line per row, _CHUNK_ROWS lines per write.

    A field that is a str in a chunk's first row is text, every other a
    number to digits significant digits, or to the fewer that a subnormal carries.
    """
    write = sys.stdout.write
    write(header + "\n")
    rows = iter(rows)
    while chunk := list(islice(rows, _CHUNK_ROWS)):
        line = ",".join(["%s" if isinstance(v, str) else f"%.{digits}g" for v in chunk[0]]) + "\n"
        # One % over the chunk's rows laid end to end formats each as line % row.
        text = line * len(chunk) % tuple(chain.from_iterable(chunk))
        if "e-3" in text and _TINY_EXPONENT.search(text):
            text = "".join(
                ",".join([_csv_field(v, digits) for v in row]) + "\n"
                if _TINY_EXPONENT.search(printed) else printed
                for printed, row in zip(text.splitlines(True), chunk)
            )
        write(text)


def _csv_field(value, digits: int) -> str:
    """A field as _emit_csv's line prints it; a subnormal k 2^-1074 to its floor(log10 k) digits."""
    if isinstance(value, str):
        return value
    if 0.0 < abs(value) < sys.float_info.min:
        digits = max(1, min(digits, int(math.log10(abs(value) / 5e-324))))
    return f"{value:.{digits}g}"


def _point(args) -> tuple:
    """(params, beta) at J = 1; derive_from_sigma_delta, so omega_sigma < omega_delta is valid."""
    params = derive_from_sigma_delta(args.omega_sigma, args.omega_delta, 1.0)
    if args.zero_temp:
        return params, math.inf
    if args.tau == 0.0:
        raise ValueError("--tau must be > 0 (use --zero-temp for the limit)")
    return params, _beta_from_tau(args.tau)


def _cmd_concurrence(args) -> dict:
    params, beta = _point(args)
    return {
        "concurrence": entangle.concurrence_for_params(params, 1.0, beta),
        "populations": thermo.populations_for_params(params, 1.0, beta).probs,
    }


def _grid(start: float, stop: float, points: int, flag: str = "--points") -> list[float]:
    if points < 1:
        raise ValueError(f"{flag} must be >= 1")
    if points == 1:
        return [start]
    # The consumer's grid check rejects a non-increasing or non-finite grid.
    step = (stop - start) / (points - 1)
    grid = [start + i * step for i in range(points)]
    # Finite ends, but the span or the last point overflows: invalid input if
    # the ends are in the wrong order, else a numerical failure.
    if math.isinf(grid[-1]) and math.isfinite(stop):
        _check_grid((start, stop))
        raise ArithmeticError(f"grid span from {start!r} to {stop!r} overflows")
    return grid


def _cmd_scan(args) -> list:
    # Each axis reads only its own parameters; the tau axis takes
    # omega_sigma = 0 unless --omega-sigma is given.
    if args.axis == "tau" and args.tau is not None:
        raise ValueError("--axis tau excludes --tau")
    if args.axis == "field" and args.omega_sigma is not None:
        raise ValueError("--axis field excludes --omega-sigma")
    grid = _grid(args.start, args.stop, args.points)
    # _sweep_rows raises before it returns, so an error leaves stdout empty.
    rows = entangle._sweep_rows(
        "temperature" if args.axis == "tau" else "field",
        grid,
        omega_sigma=0.0 if args.omega_sigma is None else args.omega_sigma,
        omega_delta=args.omega_delta,
        tau=args.tau,
    )
    return [("x,concurrence", rows)]


def _cmd_threshold(args) -> dict:
    if args.j_hz is not None:
        if args.coupling is not None:
            raise ValueError("--j-hz excludes --coupling")
        return {"t_kelvin": entangle.threshold_kelvin(args.j_hz)}
    coupling = 1.0 if args.coupling is None else args.coupling
    tau_t = entangle.threshold_tau(args.omega_delta, coupling)
    return {"tau_t": "never" if tau_t is None else tau_t}


def _cmd_spectrum(args) -> list:
    lines = spectrum._spectrum_lines(*_point(args), math.radians(args.phi))
    sections = [("transition,frequency,amplitude", lines)]
    if args.render is not None:
        start, stop, points = args.render
        if not points.is_integer():
            raise ValueError("--render POINTS must be an integer")
        grid = _grid(start, stop, int(points), "--render POINTS")
        curve = spectrum.render_lorentzian(lines, args.linewidth, grid)
        sections.append(("f,intensity", zip(grid, curve)))
    return sections


def _cmd_crossing(args) -> dict:
    if args.preset is not None:
        if args.omega1 is not None or args.omega2 is not None:
            raise ValueError("--preset excludes --omega1 and --omega2")
        omega1, omega2 = 1.0, PRESET_RATIOS[args.preset]
    elif args.omega1 is None or args.omega2 is None:
        raise ValueError("provide --preset or both --omega1 and --omega2")
    else:
        omega1, omega2 = args.omega1, args.omega2
    j_cross = critical.crossing_coupling(omega1, omega2)
    payload = {"j_cross": "none" if j_cross is None else j_cross}
    if args.preset in critical.FIELD_RATIOS:
        payload["field_ratio"] = critical.FIELD_RATIOS[args.preset]
    return payload


def _cmd_reconstruct(args) -> dict:
    theta = math.radians(args.theta_deg)
    obs = observe.Observables(args.p1z, args.p2z, args.p1z2z)
    return {
        "populations": observe.reconstruct_populations(obs, theta).probs,
        "concurrence": observe.concurrence_from_observables(obs, theta),
    }


# argparse (Python 3.10 to 3.13) reads a negative number as a value only
# in the forms -1 and -1.5, and takes -1e300 for an unknown option.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and so each of its subparsers, that reads -1e300 as a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spinpair",
        description="Thermal entanglement of a scalar-coupled spin-1/2 pair.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # The one-point arguments of concurrence and spectrum, read by _point.
    point = argparse.ArgumentParser(add_help=False)
    point.add_argument("--omega-sigma", type=float, required=True)
    point.add_argument("--omega-delta", type=float, required=True)
    temperature = point.add_mutually_exclusive_group(required=True)
    temperature.add_argument("--tau", type=float, help="k_B T / J")
    temperature.add_argument("--zero-temp", action="store_true")

    p = sub.add_parser(
        "concurrence", parents=[point], help="concurrence and populations at one point"
    )
    p.set_defaults(func=_cmd_concurrence)

    p = sub.add_parser("scan", help="CSV sweep of concurrence over tau or field")
    p.add_argument("--axis", choices=("tau", "field"), required=True)
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--omega-sigma", type=float, help="fixed omega_sigma for tau scans (default 0)")
    p.add_argument("--omega-delta", type=float, default=0.0)
    p.add_argument("--tau", type=float, help="fixed tau for field scans")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("threshold", help="threshold temperature")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--omega-delta", type=float)
    mode.add_argument("--j-hz", type=float, help="coupling/2pi in Hz (SI mode)")
    p.add_argument("--coupling", type=float, help="J for --omega-delta (default 1)")
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("spectrum", parents=[point], help="line list, optionally a rendered curve")
    phi_deg = math.degrees(spectrum.DEFAULT_FLIP_ANGLE)
    p.add_argument("--phi", type=float, default=phi_deg, help="flip angle in degrees")
    p.add_argument("--linewidth", type=float, default=spectrum.DEFAULT_LINEWIDTH)
    p.add_argument(
        "--render",
        nargs=3,
        type=float,
        metavar=("FROM", "TO", "POINTS"),
        help="sample the Lorentzian curve on this grid",
    )
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("crossing", help="level-crossing coupling / critical field")
    p.add_argument("--omega1", type=float)
    p.add_argument("--omega2", type=float)
    p.add_argument("--preset", choices=sorted(PRESET_RATIOS))
    p.set_defaults(func=_cmd_crossing)

    p = sub.add_parser("reconstruct", help="populations and concurrence from observables")
    p.add_argument("--p1z", type=float, required=True)
    p.add_argument("--p2z", type=float, required=True)
    p.add_argument("--p1z2z", type=float, required=True)
    p.add_argument("--theta-deg", type=float, required=True)
    p.set_defaults(func=_cmd_reconstruct)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        digits = _digits()
        result = args.func(args)
        if isinstance(result, dict):
            _emit_json(result, digits)
        else:
            for header, rows in result:
                _emit_csv(header, rows, digits)
    except (np.linalg.LinAlgError, ArithmeticError) as exc:
        # LinAlgError subclasses ValueError, so it must be caught first.
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Scalar results go to stdout as JSON, sweeps and spectra as CSV. All
dimensionless flags are quoted in units of J (tau = k_B T / J,
omega_sigma / J, omega_delta / J). Exit codes: 0 success, 2 bad
usage or validation, 3 internal numerical failure. The environment
variable SPINPAIR_PRECISION overrides the number of significant
digits in the output (default 12).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from itertools import islice

import numpy as np

from . import critical, entangle, observe, spectrum, thermo
from .model import PRESET_RATIOS, _beta_from_tau, derive_from_sigma_delta, preset

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

DEFAULT_DIGITS = 12

# CSV lines per stdout write: large scans neither pay one write per line
# nor hold their whole output in memory at once.
_CHUNK_ROWS = 4096


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


def _sig(value: float, digits: int) -> float:
    return float(f"{value:.{digits}g}")


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload))


def _emit_csv(header: str, line: str, rows) -> None:
    """The header, then line.format(*row) for each row, _CHUNK_ROWS lines per write."""
    write = sys.stdout.write
    write(header + "\n")
    fmt = (line + "\n").format
    rows = iter(rows)
    while chunk := [fmt(*row) for row in islice(rows, _CHUNK_ROWS)]:
        write("".join(chunk))


def _beta_from_args(args) -> float:
    if args.zero_temp:
        return math.inf
    if args.tau == 0.0:
        raise ValueError("--tau must be > 0 (use --zero-temp for the limit)")
    return _beta_from_tau(args.tau)


def _cmd_concurrence(args, digits: int) -> int:
    params = derive_from_sigma_delta(args.omega_sigma, args.omega_delta, 1.0)
    beta = _beta_from_args(args)
    pops = thermo.populations(thermo.energies(params, 1.0), beta)
    _emit_json(
        {
            "concurrence": _sig(entangle.concurrence_for_params(params, 1.0, beta), digits),
            "populations": [_sig(p, digits) for p in pops.probs],
        }
    )
    return EXIT_OK


def _grid(start: float, stop: float, points: int) -> list[float]:
    if points < 1:
        raise ValueError("--points must be >= 1")
    if points == 1:
        return [start]
    # The consumer's grid check rejects a non-increasing or non-finite grid.
    step = (stop - start) / (points - 1)
    return [start + i * step for i in range(points)]


def _cmd_scan(args, digits: int) -> int:
    # Each axis reads only its own parameters; the tau axis takes
    # omega_sigma = 0 unless --omega-sigma is given.
    if args.axis == "tau" and args.tau is not None:
        raise ValueError("--axis tau excludes --tau")
    if args.axis == "field" and args.omega_sigma is not None:
        raise ValueError("--axis field excludes --omega-sigma")
    grid = _grid(args.start, args.stop, args.points)
    rows = entangle.sweep(
        "temperature" if args.axis == "tau" else "field",
        grid,
        omega_sigma=0.0 if args.omega_sigma is None else args.omega_sigma,
        omega_delta=args.omega_delta,
        tau=args.tau,
    )
    g = f"{{:.{digits}g}}"
    _emit_csv("x,concurrence", f"{g},{g}", rows)
    return EXIT_OK


def _cmd_threshold(args, digits: int) -> int:
    if args.j_hz is not None:
        if args.coupling is not None:
            raise ValueError("--j-hz excludes --coupling")
        _emit_json({"t_kelvin": _sig(entangle.threshold_kelvin(args.j_hz), digits)})
        return EXIT_OK
    coupling = 1.0 if args.coupling is None else args.coupling
    tau_t = entangle.threshold_tau(args.omega_delta, coupling)
    _emit_json({"tau_t": "never" if tau_t is None else _sig(tau_t, digits)})
    return EXIT_OK


def _cmd_spectrum(args, digits: int) -> int:
    # derive_from_sigma_delta, not SpinSystem: omega_sigma < omega_delta
    # is valid input here.
    params = derive_from_sigma_delta(args.omega_sigma, args.omega_delta, 1.0)
    phi = math.radians(args.phi)
    lines = spectrum._spectrum_lines(params, _beta_from_args(args), phi)
    if args.render is not None:
        start, stop, points = args.render
        if not points.is_integer():
            raise ValueError("--render POINTS must be an integer")
        grid = _grid(start, stop, int(points))
        curve = spectrum.render_lorentzian(lines, args.linewidth, grid)
    g = f"{{:.{digits}g}}"
    _emit_csv(
        "transition,frequency,amplitude",
        f"{{}},{g},{g}",
        ((line.transition, line.frequency, line.amplitude) for line in lines),
    )
    if args.render is not None:
        _emit_csv("f,intensity", f"{g},{g}", zip(grid, curve))
    return EXIT_OK


def _cmd_crossing(args, digits: int) -> int:
    if args.preset is not None:
        if args.omega1 is not None or args.omega2 is not None:
            raise ValueError("--preset excludes --omega1 and --omega2")
        system = preset(args.preset, 1.0)
        omega1, omega2 = system.omega1, system.omega2
    elif args.omega1 is None or args.omega2 is None:
        raise ValueError("provide --preset or both --omega1 and --omega2")
    else:
        omega1, omega2 = args.omega1, args.omega2
    j_cross = critical.crossing_coupling(omega1, omega2)
    payload = {"j_cross": "none" if j_cross is None else _sig(j_cross, digits)}
    if args.preset in critical.FIELD_RATIOS:
        payload["field_ratio"] = critical.critical_field_ratio(args.preset)
    _emit_json(payload)
    return EXIT_OK


def _cmd_reconstruct(args, digits: int) -> int:
    theta = math.radians(args.theta_deg)
    obs = observe.Observables(args.p1z, args.p2z, args.p1z2z)
    pops = observe.reconstruct_populations(obs, theta)
    c = observe.concurrence_from_observables(obs, theta)
    _emit_json(
        {
            "populations": [_sig(p, digits) for p in pops.probs],
            "concurrence": _sig(c, digits),
        }
    )
    return EXIT_OK


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

    p = sub.add_parser("concurrence", help="concurrence and populations at one point")
    p.add_argument("--omega-sigma", type=float, required=True)
    p.add_argument("--omega-delta", type=float, required=True)
    temperature = p.add_mutually_exclusive_group(required=True)
    temperature.add_argument("--tau", type=float, help="k_B T / J")
    temperature.add_argument("--zero-temp", action="store_true")
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

    p = sub.add_parser("spectrum", help="line list, optionally a rendered curve")
    p.add_argument("--omega-sigma", type=float, required=True)
    p.add_argument("--omega-delta", type=float, required=True)
    temperature = p.add_mutually_exclusive_group(required=True)
    temperature.add_argument("--tau", type=float)
    temperature.add_argument("--zero-temp", action="store_true")
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
        return args.func(args, _digits())
    except (np.linalg.LinAlgError, ArithmeticError) as exc:
        # LinAlgError subclasses ValueError, so it must be caught first.
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""Every rejection the suite knows, in two tables, each checked by one test.

LIBRARY_FAILURES holds one row per rejected library call: the call, the exact
exception class, a piece of its message and, beside it, a call that is accepted.
At a numeric bound the rejected call lies at the first float past the bound and
the accepted one at the bound itself, both written out as literals, so that a
bound moved in the library fails the row. FAILURES holds one row per failing
command line. Where the CLI reaches a library guard, both tables name the
guard's one fragment below. Checks that need a monkeypatch, or that expect
TypeError or AttributeError, stay in the other test modules.

The exception class is checked exactly (type(exc) is), so an escaping
ZeroDivisionError or OverflowError fails. A second test requires a row for
every function in spinpair.__all__, for entangle.threshold_beta, SpinSystem and
Observables, judged by the function the row's call enters first. Every FAILURES
row gets the same four checks: its exit code, empty stdout, stderr starting
with "numerical failure: " for exit 3 or a last stderr line holding "error: "
for exit 2, and the row's stderr piece. CI rejects a bare
pytest.raises(ValueError) or pytest.raises(ArithmeticError) without match=
anywhere in tests/.
"""

import copy
import inspect
import math
import re
import sys
import traceback
from functools import partial

import numpy as np
import pytest

import spinpair as sp
from spinpair import critical, entangle, model, observe, oracle, spectrum, thermo
from test_cli import run_cli

# One fragment per guard that the library and the CLI both reach.
_FINITE_TAU = "tau must be finite and >= 0"
_BETA_OVERFLOWS = "beta = 1/(tau J) is out of float range"
_GRID = "grid must be a non-empty 1-D sequence of finite values"
_INCREASING = "grid must be strictly increasing"
_THETA = "theta must lie in [0, pi/4]"
_FLIP_ANGLE = "flip angle must lie in (0, pi]"
_LINEWIDTH = "linewidth must be finite and > 0"
_J_HZ = "j_hz must be finite and > 0"
_ENERGY_SCALE = "energy scale hbar * 2 pi * j_hz underflows"
_FREQUENCIES = "frequencies must be finite"
_OMEGA_DELTA = "omega_delta must be >= 0"
_COUPLING = "coupling must be finite and >= 0"
_START = "threshold start 2 asinh(1/s) is out of float range"
_UNDERFLOWED = "sin 2theta underflowed to 0"
_SINGULAR = "reconstruction is singular at cos 2theta = 0"
_INCONSISTENT = "observables are inconsistent"
# Fragments of library-only guards.
_BETA = "beta must lie in [0, inf]"
_POPULATIONS = "populations must lie in [0, 1]"
_SECOND_J = "is not the J = 1.0 of params"
_FOUR_LEVELS = "expected four energy levels"
_FINITE_LEVELS = "energy levels must be finite"
_NEEDS_J = "tau = k_B T / J needs J > 0"
_SUM_OVERFLOWS = "omega1 +- omega2 overflows"
_D_OVERFLOWS = "D = hypot(omega_delta, J) is out of float range"
_T31 = "the T31 gap (omega_sigma + D + J) / 2 exceeds float range"
_NEGATIVE_OMEGA2 = "negative Larmor frequencies are only supported"
_NEGATIVE_EIGENVALUE = "density matrix has a negative eigenvalue"
_S_RANGE = "s = sin 2theta must lie in (0, 1]"
_DERIVED = "d_coupling and theta must be those of (omega_sigma, omega_delta, J)"

# Bounds as literals. 1 / x is finite from _SMALLEST_INVERTIBLE up (1 / s for the threshold,
# 1 / (tau J) at J = 1); at _SMALLEST_J_HZ, hbar 2 pi j_hz is exactly the smallest normal
# float; at _LAST_REGULAR_THETA, cos 2theta = 1.0000000000458e-8 >= SINGULAR_COS2THETA = 1e-8.
_ABOVE_ONE = math.nextafter(1.0, 2.0)
_SMALLEST_INVERTIBLE = 5.56268464626801e-309
_SMALLEST_J_HZ = 3.358059618295087e-275
_LAST_REGULAR_THETA = 0.7853981583974483
_HALF_MAX = sys.float_info.max / 2


def _past(bound, toward=-math.inf):
    """The first float past bound: below it, unless toward lies above."""
    return math.nextafter(bound, toward)


def _row(call, error, fragment, id, accepts=None):
    """A LIBRARY_FAILURES row: call raises exactly error, with fragment in its message;
    accepts, a call beside it, raises nothing."""
    return pytest.param(call, error, fragment, accepts, id=id)


_params = model.derive_from_sigma_delta
_PARAMS = _params(1.0, 0.5, 1.0)
_LEVELS = thermo.energies(_PARAMS, 1.0)
_SYSTEM = model.SpinSystem(0.75, 0.25, 1.0)
_OVERFLOWING_SYSTEMS = (model.SpinSystem(1e308, 1e308, 1.0), model.SpinSystem(1e308, -1e308, 1.0))
_OBS = observe.Observables(0.5, -0.5, 0.25)
_EQUAL_OBS = observe.Observables(0.1, 0.1, 0.2)  # p1z = p2z: consistent at every regular theta
_FROM_OBSERVABLES = (observe.reconstruct_populations, observe.concurrence_from_observables)
_UNIFORM = (0.25, 0.25, 0.25, 0.25)
_PURE3 = (0.0, 0.0, 1.0, 0.0)
_TAU_SWEEP = partial(entangle.sweep, "temperature", omega_sigma=0.0, omega_delta=0.0)
_J_MAX_SWEEP = partial(_TAU_SWEEP, omega_delta=1.0, coupling=1e308)
_LINE = [spectrum.SpectrumLine("T21", 0.5, 0.2)]
_BIG = sys.float_info.max
# The level route at each beta, and levels with a NaN or an infinity.
_LEVEL_ROUTES = [(thermo.populations, b) for b in (0.0, 1.0, math.inf)]
_BAD_LEVELS = [(0.0, bad, 1.0, 2.0) for bad in (math.nan, math.inf)]
_BAD_LEVELS += [(bad, 0.0, 0.0, 0.0) for bad in (math.nan, math.inf)]
# Parameters whose T31 = (omega_sigma + D + J) / 2 passes float max.
_T31_PAST_MAX = [model.derive(model.SpinSystem(2.5879320237511028, 1e300, _BIG)),
                 model.derive(model.SpinSystem(1e308, 0.7e308, 1e308)),
                 *(_params(_BIG, wd, 1e308) for wd in (0.0, 1e308, 1.3e308)),
                 _params(1.7e308, 1e300, 1.7e308)]


def _rho(edits):
    """The maximally mixed state with the entries of edits set."""
    rho = np.diag([0.25] * 4).astype(complex)
    for ij, value in edits.items():
        rho[ij] = value
    return rho


# Matrices that the oracle rejects before its trace check; None stands for its Hermiticity
# message. The anti-Hermitian pair has moduli past float max.
_Z = complex(1.7e308, 1.7e308)
_NOT_STATES = {
    "shape-3x3": (np.eye(3) / 3.0, "expected a 4x4 matrix, got shape (3, 3)"),
    "shape-4x4x1": (np.eye(4)[..., None] / 4.0, "expected a 4x4 matrix, got shape (4, 4, 1)"),
    "nan": (_rho({(0, 0): math.nan}), "matrix entries must be finite"),
    "inf": (_rho({(0, 1): math.inf, (1, 0): math.inf}), "matrix entries must be finite"),
    "complex-nan": (_rho({(2, 2): complex(0.0, math.nan)}), "matrix entries must be finite"),
    "non-Hermitian": (_rho({(0, 1): 1.000001e-12}), None),
    "anti-Hermitian-past-max": (_rho({(0, 1): _Z, (1, 0): -_Z.conjugate()}), None),
}
_NOT_HERMITIAN = "density matrix is not Hermitian"
# Hermitian, so the trace or positivity check rejects them: the trace, a negative X block (from
# an excess coherence, also with moduli past float max) or a negative dense eigenvalue.
_NOT_POSITIVE = {
    "trace": np.eye(4),
    "negative-x": np.diag([1.5, -0.5, 0.0, 0.0]),
    "negative-dense": _rho({(0, 0): 0.5, (1, 1): 0.5, (2, 2): 0.5, (3, 3): -0.5,
                            (0, 1): 1e-3, (1, 0): 1e-3}),
    "coherence-12": _rho({(1, 2): 0.3, (2, 1): 0.3}),
    "coherence-03": _rho({(0, 3): 0.3, (3, 0): 0.3}),
    "coherence-03-past-max": _rho({(0, 3): _Z, (3, 0): _Z.conjugate()}),
    "coherence-01-past-max": _rho({(0, 1): _Z, (1, 0): _Z.conjugate()}),
}

# Each fails two of the checks in turn, and the earlier one's message wins: shape before
# finiteness, finiteness before Hermiticity, Hermiticity before the trace and positivity, the
# trace before positivity.
_TWO_FAULTS = {
    "shape-then-finite": (np.full((3, 3), math.nan), "expected a 4x4 matrix, got shape (3, 3)"),
    "finite-then-hermitian": (_rho({(0, 1): math.inf}), "matrix entries must be finite"),
    "hermitian-then-trace": (np.eye(4) + np.triu(np.ones((4, 4)), 1), _NOT_HERMITIAN),
    "hermitian-then-negative": (np.diag([1.5, -0.5, 0.0, 0.0]) + np.diag([0.1j] * 3, 1),
                                _NOT_HERMITIAN),
    "trace-then-negative": (np.diag([2.0, -0.5, 0.0, 0.0]), "density matrix must have unit trace"),
}

_IMAGINARY = {(k, k): 0.25 + 2.5e-13j for k in range(4)}
_PAST_IM = 2.5e-13 + math.ulp(1e-12)  # the imaginary trace becomes the float after 1e-12


def _x_block(b):
    return _rho({(0, 0): 0.0, (3, 3): 0.0, (1, 1): 0.5, (2, 2): 0.5, (0, 3): b, (3, 0): b})


LIBRARY_FAILURES = [
    # model: systems, presets, parameters, the SI bridge, beta from tau and grids.
    _row(partial(model.SpinSystem, 1.0, 0.0, _past(0.0)), ValueError, _COUPLING, "system-J-past-0",
         accepts=partial(model.SpinSystem, 1.0, 0.0, 0.0)),
    *(_row(partial(model.SpinSystem, 1.0, 0.0, j), ValueError, _COUPLING, f"system-J-{j}")
      for j in (-1.0, math.inf, math.nan)),
    _row(partial(model.SpinSystem, 1.0, -0.5, 1.0), ValueError, _NEGATIVE_OMEGA2, "system-omega2"),
    _row(partial(model.SpinSystem, math.nan, 1.0, 1.0), ValueError, "omega1 must be finite",
         "system-omega1-nan"),
    _row(partial(_SYSTEM._replace, coupling=-1.0), ValueError, _COUPLING, "replace-J"),
    _row(partial(_SYSTEM._replace, omega1=math.nan), ValueError, "omega1 must be finite",
         "replace-omega1"),
    _row(partial(_SYSTEM._replace, omega2=-0.5), ValueError, _NEGATIVE_OMEGA2, "replace-omega2"),
    *(_row(partial(_OBS._replace, **{f: v}), ValueError, f"{f} must lie in [-1, 1]",
           f"replace-{f}-{v}") for f in _OBS._fields for v in (1.5, math.nan)),
    # A DerivedParams built by hand is derived again: its D and theta must be the derived ones.
    _row(partial(model.DerivedParams, math.nan, 1.0, 1.0, 0.3, 1.0), ValueError, _FREQUENCIES,
         "derived-params-nan", accepts=partial(model.DerivedParams, *_PARAMS)),
    _row(partial(model.DerivedParams, *_PARAMS[:3], _past(_PARAMS.theta, 1.0), 1.0), ValueError,
         _DERIVED, "derived-params-past-theta"),
    _row(partial(_PARAMS._replace, omega_delta=0.25), ValueError, _DERIVED, "replace-stale-D",
         accepts=partial(_PARAMS._replace, omega_sigma=2.0)),
    *([_row(partial(copy.replace, _SYSTEM, coupling=-1.0), ValueError, _COUPLING, "copy-replace-J"),
       _row(partial(copy.replace, _OBS, p1z=1.5), ValueError, "p1z must lie", "copy-replace-p1z"),
       _row(partial(copy.replace, _PARAMS, omega_delta=0.25), ValueError, _DERIVED,
            "copy-replace-stale-D")]
      if hasattr(copy, "replace") else []),  # Python 3.13+
    _row(partial(model.preset, "deuterium", 1.0), ValueError, "unknown preset 'deuterium'",
         "preset-unknown"),
    _row(partial(model.preset, "hh", _past(0.0)), ValueError, "field_omega must be >= 0",
         "preset-field-past-0", accepts=partial(model.preset, "hh", 0.0)),
    *(_row(partial(model.preset, "hh", f), ValueError, "field_omega must be >= 0",
           f"preset-field-{f}") for f in (-1.0, math.nan)),
    *(_row(partial(_params, 1.0, 1.0, j), ValueError, _COUPLING, f"derive-J-{j}")
      for j in (math.inf, math.nan)),
    # Valid finite inputs whose omega1 +- omega2 or D leaves float range: numerical failures.
    *(_row(partial(model.derive, s), ArithmeticError, _SUM_OVERFLOWS, f"derive-{s.omega2}")
      for s in _OVERFLOWING_SYSTEMS),
    _row(partial(_params, 0.0, 1.7e308, 1e308), ArithmeticError, _D_OVERFLOWS, "derive-D"),
    *(_row(partial(model.from_si, 0.0, 0.0, j), ValueError, _J_HZ, f"from-si-j-hz-{j}")
      for j in (0.0, -3.0, math.inf, math.nan)),
    *(_row(partial(model.from_si, 1e300, nu2, 1e-10), ArithmeticError, "nu / j_hz overflows",
           f"from-si-nu2-{nu2}") for nu2 in (0.0, -1e300)),
    *(_row(partial(model.from_si, nu1, 0.0, 1e-10), ValueError, "omega1 must be finite",
           f"from-si-nu1-{nu1}") for nu1 in (math.inf, math.nan)),
    # Below about 3.4e-275 Hz, hbar 2 pi j_hz is subnormal or 0.
    _row(partial(model.from_si, 0.0, 0.0, _past(_SMALLEST_J_HZ)), ArithmeticError, _ENERGY_SCALE,
         "from-si-past-underflow", accepts=partial(model.from_si, 0.0, 0.0, _SMALLEST_J_HZ)),
    *(_row(partial(f, *args, j), ArithmeticError, _ENERGY_SCALE, f"{f.__name__}-{j}")
      for f, args in ((model.from_si, (0.0, 0.0)), (model._energy_scale, ()))
      for j in (1e-280, 1e-300, 5e-324)),
    # tau = inf (beta = 0) is outside [0, inf), as on a scan grid.
    _row(partial(model._beta_from_tau, _past(0.0)), ValueError, _FINITE_TAU, "tau-past-0",
         accepts=partial(model._beta_from_tau, 0.0)),
    *(_row(partial(model._beta_from_tau, t), ValueError, _FINITE_TAU, f"tau-{t}")
      for t in (math.inf, -0.1, -math.inf, math.nan)),
    *(_row(partial(model._beta_from_tau, t, j), ValueError, _NEEDS_J, f"tau-{t}-J-{j}")
      for t in (0.0, 0.5) for j in (0.0, -1.0, math.nan)),
    # A tau too small for a finite beta is a numerical failure, not the zero-temperature
    # limit; tau J underflows to 0 at (1e-200, 1e-200), and beta to 0 at (max, max).
    _row(partial(model._beta_from_tau, _past(_SMALLEST_INVERTIBLE)), ArithmeticError,
         _BETA_OVERFLOWS, "tau-past-overflow",
         accepts=partial(model._beta_from_tau, _SMALLEST_INVERTIBLE)),
    *(_row(partial(model._beta_from_tau, t, j), ArithmeticError, _BETA_OVERFLOWS, f"tau-{t}-J-{j}")
      for t, j in ((1e-320, 1.0), (1e-200, 1e-200), (_BIG, _BIG))),
    *(_row(partial(model._check_grid, g), ValueError, _GRID, f"grid-{g!r}")
      for g in ([], 1.0, [[0.0, 1.0]], np.array([[0.0], [1.0]]), [0.0, math.nan], [math.nan],
                [0.0, math.inf])),
    *(_row(partial(model._check_grid, g), ValueError, _INCREASING, f"grid-{g}")
      for g in ([1.0, 1.0], [1.0, 0.5])),
    # thermo: levels, populations and the X state.
    _row(partial(thermo.energies, _PARAMS, 2.0), ValueError, _SECOND_J, "energies-J-2",
         accepts=partial(thermo.energies, _PARAMS, 1.0)),
    *(_row(partial(thermo.energies, _PARAMS, j), ValueError, _SECOND_J, f"energies-J-{j}")
      for j in (-1.0, math.nan, math.inf)),
    _row(partial(thermo.populations, _LEVELS, _past(0.0)), ValueError, _BETA, "beta-past-0",
         accepts=partial(thermo.populations, _LEVELS, 0.0)),
    # The populations from parameters take only the J of params, at finite beta and at beta = inf.
    *(_row(partial(thermo.populations_for_params, _PARAMS, j, b), ValueError, _SECOND_J,
           f"populations_for_params-J-{j}-{b}",
           accepts=partial(thermo.populations_for_params, _PARAMS, 1.0, b))
      for j in (2.0, -1.0, math.nan, math.inf) for b in (1.0, math.inf)),
    # The level route takes exactly four levels, each finite.
    *(_row(partial(f, lv, b), ValueError, _FOUR_LEVELS, f"{f.__name__}-{len(lv)}-levels-{b}")
      for f, b in _LEVEL_ROUTES for lv in ((0.0, 1.0, 2.0), (0.0,) * 5)),
    *(_row(partial(f, lv, b), ValueError, _FINITE_LEVELS, f"{f.__name__}-{lv}-{b}")
      for f, b in _LEVEL_ROUTES for lv in _BAD_LEVELS),
    # The X state's bounds: each population at 1, theta at 0 and at pi/4.
    *(_row(partial(thermo.density_matrix, [_ABOVE_ONE if k == i else 0.0 for k in range(4)], 0.3),
           ValueError, _POPULATIONS, f"density-p{i + 1}-past-1",
           accepts=partial(thermo.density_matrix, [float(k == i) for k in range(4)], 0.3))
      for i in range(4)),
    _row(partial(thermo.density_matrix, _UNIFORM, _past(0.0)), ValueError, _THETA,
         "density-theta-past-0", accepts=partial(thermo.density_matrix, _UNIFORM, 0.0)),
    _row(partial(thermo.density_matrix, _UNIFORM, _past(math.pi / 4, 1.0)), ValueError, _THETA,
         "density-theta-past-pi/4", accepts=partial(thermo.density_matrix, _UNIFORM, math.pi / 4)),
    *(_row(partial(thermo.density_matrix, (0.1, 0.2, 0.3, 0.4), t), ValueError, _THETA,
           f"density-theta-{t}") for t in (math.nan, -1.0, 2.0)),
    *(_row(partial(thermo.density_matrix, p, 0.3), ValueError, _POPULATIONS, f"density-{p}")
      for p in ((math.nan, 1.0, 0.0, 0.0), (-1.0, 1.0, 0.0, 1.0),
                thermo.Populations(0.0, math.inf, 0.0, 0.0))),
    # T31 = (omega_sigma + D + J) / 2 can pass float max: the line gaps form it and raise; the
    # populations weigh halved offsets and accept the same params at every beta.
    *(_row(partial(thermo._gaps, p), ArithmeticError, _T31, f"gaps-{p.omega_sigma}-{p.omega_delta}",
           accepts=partial(thermo.populations_for_params, p, p.coupling, 1.0))
      for p in _T31_PAST_MAX),
    # entangle: concurrence forms, thresholds and sweeps. A beta outside [0, inf], everywhere:
    *(_row(partial(f, *args, b), ValueError, _BETA, f"{f.__name__}-beta-{b}")
      for f, args in ((entangle.concurrence_for_params, (_PARAMS, 1.0)),
                      (thermo.populations, (_LEVELS,)),
                      (thermo.populations_for_params, (_PARAMS, 1.0)),
                      (entangle.concurrence_homonuclear, (0.5, 1.0)),
                      (entangle.concurrence_thermal, (_SYSTEM,)),
                      (spectrum.simulate_spectrum, (_PARAMS,)))
      for b in (-math.inf, -1.0, math.nan)),
    *(_row(partial(entangle.concurrence_for_params, _PARAMS, j, b), ValueError, _SECOND_J,
           f"concurrence-for-params-J-{j}-{b}")
      for j in (2.0, math.nan, math.inf, -1.0) for b in (1.0, math.inf)),
    *(_row(partial(entangle.concurrence_from_populations, _PURE3, t), ValueError, _THETA,
           f"population-form-theta-{t}") for t in (math.nan, -1.0, 2.0)),
    *(_row(partial(entangle.concurrence_from_populations, p, math.pi / 4), ValueError,
           _POPULATIONS, f"population-form-{p}")
      for p in ((math.nan, 1.0, 0.0, 0.0), (-1.0, 1.0, 0.0, 1.0), (0.0, 1.5, 0.0, 0.0))),
    _row(partial(entangle.concurrence_from_populations, (0.5, 0.5), math.pi / 4), ValueError,
         "expected 4, got 2", "population-form-two-populations"),
    *(_row(partial(entangle.concurrence_homonuclear, w, j, b), ValueError, fragment,
           f"homonuclear-{w}-J-{j}-{b}")
      for w, j, fragment in ((math.nan, 1.0, _FREQUENCIES), (-1.0, 1.0, "omega_sigma must be >= 0"),
                             (1.0, math.nan, _COUPLING), (1.0, -1.0, _COUPLING),
                             (0.0, math.inf, _COUPLING), (math.inf, 1.0, _FREQUENCIES),
                             (-1e308, 1.0, _FREQUENCIES))
      for b in (1.0, math.inf)),
    _row(partial(entangle.concurrence_homonuclear, _past(_HALF_MAX, math.inf), 1.0, 1.0),
         ArithmeticError, "omega_sigma = 2 omega overflows", "homonuclear-past-half-max",
         accepts=partial(entangle.concurrence_homonuclear, _HALF_MAX, 1.0, 1.0)),
    _row(partial(entangle.concurrence_homonuclear, 1e308, 1.0, 1.0), ArithmeticError,
         "omega_sigma = 2 omega overflows", "homonuclear-1e308"),
    # s = sin 2theta lies in (0, 1]; a valid s whose 1 / s overflows is a numerical failure.
    _row(partial(entangle.threshold_beta, _past(1.0, 2.0)), ValueError, _S_RANGE,
         "threshold-beta-past-1", accepts=partial(entangle.threshold_beta, 1.0)),
    *(_row(partial(entangle.threshold_beta, s), ValueError, _S_RANGE, f"threshold-beta-{s}")
      for s in (-1.0, -0.0, 0.0, 2.0, math.inf, -math.inf, math.nan)),
    _row(partial(entangle.threshold_beta, _past(_SMALLEST_INVERTIBLE)), ArithmeticError, _START,
         "threshold-beta-past-start",
         accepts=partial(entangle.threshold_beta, _SMALLEST_INVERTIBLE)),
    *(_row(partial(entangle.threshold_beta, s), ArithmeticError, _START, f"threshold-beta-{s}")
      for s in (1e-320, 5e-324)),
    _row(partial(entangle.threshold_tau, 1.0, 1e-320), ArithmeticError, _START,
         "threshold-tau-start"),
    _row(partial(entangle.threshold_tau, 1e300, 1e-300), ArithmeticError, _UNDERFLOWED,
         "threshold-tau-underflowed"),
    _row(partial(entangle.threshold_tau, 1.7e308, 1e308), ArithmeticError, _D_OVERFLOWS,
         "threshold-tau-D"),
    *(_row(partial(entangle.threshold_temperature, s), ArithmeticError, _SUM_OVERFLOWS,
           f"threshold-temperature-{s.omega2}") for s in _OVERFLOWING_SYSTEMS),
    *(_row(partial(entangle.threshold_kelvin, j), ValueError, _J_HZ, f"threshold-kelvin-{j}")
      for j in (0.0, -5.0, math.inf, math.nan)),
    *(_row(partial(entangle.threshold_kelvin, j), ArithmeticError, _ENERGY_SCALE,
           f"threshold-kelvin-{j}") for j in (1e-280, 1e-300)),
    _row(partial(_TAU_SWEEP, []), ValueError, _GRID, "sweep-empty"),
    _row(partial(_TAU_SWEEP, [0.2, 0.1]), ValueError, _INCREASING, "sweep-decreasing"),
    _row(partial(_TAU_SWEEP, [0.1, math.inf]), ValueError, _GRID, "sweep-inf"),
    _row(partial(entangle.sweep, "pressure", [0.1], omega_sigma=0.0, omega_delta=0.0),
         ValueError, "unknown sweep axis 'pressure'", "sweep-pressure"),
    _row(partial(_TAU_SWEEP, [-0.1, 0.5]), ValueError, _FINITE_TAU, "sweep-tau-minus"),
    *(_row(partial(entangle.sweep, "temperature", [0.1, 0.2], **fixed), ValueError,
           "temperature sweeps need omega_sigma and omega_delta", f"sweep-only-{fixed}")
      for fixed in ({"omega_sigma": 0.0}, {"omega_delta": 0.0})),
    *(_row(partial(entangle.sweep, "field", grid, omega_delta=0.0, tau=tau), ValueError, fragment,
           f"sweep-field-{grid}-{tau}")
      for grid, tau, fragment in (([1.0, 2.0], None, "field sweeps need omega_delta and tau"),
                                  ([0.0, 1.0], math.nan, _FINITE_TAU),
                                  ([-1.0, 1.0], 0.5, "omega_sigma must be >= 0"))),
    # A nested grid is invalid input, as in render_lorentzian.
    *(_row(partial(_TAU_SWEEP, g), ValueError, _GRID, f"sweep-{g}")
      for g in ([[0.5, 1.0]], [[0.5], [1.0, 2.0]])),
    # tau = k_B T / J is undefined at J = 0: invalid input, not an overflow.
    *(_row(partial(_TAU_SWEEP, g, coupling=0.0), ValueError, _NEEDS_J,
           f"sweep-J-0-{g}") for g in ([0.5], [0.0, 0.5])),
    *(_row(partial(entangle.sweep, "field", [0.0, 1.0], omega_delta=1.0, tau=tau, coupling=0.0),
           ValueError, _NEEDS_J, f"sweep-field-J-0-tau-{tau}") for tau in (0.0, 0.5)),
    _row(partial(_TAU_SWEEP, [0.0, 5e-311]), ArithmeticError, _BETA_OVERFLOWS,
         "sweep-beta-overflows"),
    _row(partial(entangle.sweep, "field", [0.0, 1.0], omega_delta=0.0, tau=1e-320),
         ArithmeticError, _BETA_OVERFLOWS, "sweep-field-beta-overflows"),
    # 1/(tau J) underflows first at the largest tau: at J = 1e308, beta is 0 at tau = 1e300
    # and 1e-309 at tau = 10, wherever the grid's last point sits.
    _row(partial(_J_MAX_SWEEP, [1.0, 2.0, 1e300]), ArithmeticError, _BETA_OVERFLOWS,
         "sweep-beta-underflows-last", accepts=partial(_J_MAX_SWEEP, [1.0, 2.0, 10.0])),
    # critical: the crossing, critical values and the ground state.
    *(_row(partial(critical.crossing_coupling, *w), ValueError, _FREQUENCIES, f"crossing-{w}")
      for w in ((math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, -math.inf))),
    _row(partial(critical.critical_omega_sigma, 1e308, 1e308), ArithmeticError,
         "critical omega_sigma overflows", "critical-overflows"),
    *(_row(partial(critical.critical_omega_sigma, w, 1.0), ValueError, fragment, f"critical-{w}")
      for w, fragment in ((math.nan, _FREQUENCIES), (math.inf, _FREQUENCIES),
                          (-1.0, _OMEGA_DELTA))),
    _row(partial(critical.critical_omega_sigma, 1.0, 0.0), ValueError, "coupling must be > 0",
         "critical-J-0", accepts=partial(critical.critical_omega_sigma, 1.0, 5e-324)),
    *(_row(partial(critical.critical_omega_sigma, 1.0, j), ValueError, _COUPLING, f"critical-J-{j}")
      for j in (math.nan, -1.0, math.inf)),
    _row(partial(critical.ground_state, _OVERFLOWING_SYSTEMS[0]), ArithmeticError, _SUM_OVERFLOWS,
         "ground-state-overflows"),
    # oracle: a malformed or non-Hermitian matrix, then a Hermitian one that is no state.
    *(_row(partial(oracle.wootters_concurrence, m), ValueError, message or _NOT_HERMITIAN,
           f"wootters_concurrence-{case}") for case, (m, message) in _NOT_STATES.items()),
    *(_row(partial(oracle.wootters_concurrence, m), ValueError,
           "density matrix must have unit trace" if case == "trace" else _NEGATIVE_EIGENVALUE,
           f"wootters-{case}") for case, m in _NOT_POSITIVE.items()),
    *(_row(partial(oracle.wootters_concurrence, m), ValueError, message, f"wootters-order-{case}")
      for case, (m, message) in _TWO_FAULTS.items()),
    # Each tolerance at its bound on the mixed state, where q = e / 4 and max(1/4, |q|) = 1/4:
    # a skew of 1e-12 / 4; an imaginary trace of 1e-12; an X block [[0, b], [b, 0]] at -1e-10.
    _row(partial(oracle.wootters_concurrence, _rho({(0, 1): _past(1e-12, 1.0)})), ValueError,
         _NOT_HERMITIAN, "wootters_concurrence-past-skew",
         accepts=partial(oracle.wootters_concurrence, _rho({(0, 1): 1e-12}))),
    _row(partial(oracle.wootters_concurrence, _rho({**_IMAGINARY, (3, 3): 0.25 + _PAST_IM * 1j})),
         ValueError, "density matrix must have unit trace", "wootters-past-imaginary-trace",
         accepts=partial(oracle.wootters_concurrence, _rho(_IMAGINARY))),
    _row(partial(oracle.wootters_concurrence, _x_block(_past(1e-10, 1.0))), ValueError,
         _NEGATIVE_EIGENVALUE, "wootters-past-eigenvalue-floor",
         accepts=partial(oracle.wootters_concurrence, _x_block(1e-10))),
    # spectrum: amplitudes and line shapes.
    _row(partial(spectrum.transition_amplitudes, _PURE3, 0.3, _past(math.pi, 4.0)), ValueError,
         _FLIP_ANGLE, "phi-past-pi", accepts=partial(spectrum.transition_amplitudes, _PURE3, 0.3,
                                                     math.pi)),
    _row(partial(spectrum.transition_amplitudes, _PURE3, 0.3, 0.0), ValueError, _FLIP_ANGLE,
         "phi-0", accepts=partial(spectrum.transition_amplitudes, _PURE3, 0.3, 5e-324)),
    *(_row(partial(spectrum.transition_amplitudes, _PURE3, 0.3, phi), ValueError, _FLIP_ANGLE,
           f"phi-{phi}") for phi in (-0.1, math.pi + 1e-9)),
    *(_row(partial(spectrum.transition_amplitudes, p, t, 0.5), ValueError, fragment,
           f"amplitudes-{p}-{t}")
      for p, t, fragment in (((0.1, 0.2, 0.3, 0.4), math.nan, _THETA),
                             ((0.1, 0.2, 0.3, 0.4), 2.0, _THETA),
                             ((math.nan, 1.0, 0.0, 0.0), 0.3, _POPULATIONS))),
    # The spectrum prints T31 as a line frequency: it raises on each set whose T31 passes float max.
    *(_row(partial(spectrum.simulate_spectrum, p, 0.494, 0.423), ArithmeticError, _T31,
           f"simulate-spectrum-T31-{p.omega_sigma}-{p.omega_delta}") for p in _T31_PAST_MAX),
    _row(partial(spectrum.render_lorentzian, _LINE, 0.0, [0.0, 1.0]), ValueError, _LINEWIDTH,
         "render-width-0", accepts=partial(spectrum.render_lorentzian, _LINE, 5e-324, [0.0, 1.0])),
    *(_row(partial(spectrum.render_lorentzian, _LINE, w, [0.0, 1.0]), ValueError, _LINEWIDTH,
           f"render-width-{w}") for w in (math.inf, math.nan)),
    *(_row(partial(spectrum.render_lorentzian, _LINE, 0.1, g), ValueError,
           _INCREASING if g == [1.0, 0.5] else _GRID, f"render-grid-{g}")
      for g in ([], [1.0, 0.5], [math.nan], [0.0, math.nan, 1.0], [0.0, math.inf], [[0.0, 1.0]])),
    # observe: observables within 1e-9 of [-1, 1], theta, singular and inconsistent inputs.
    _row(partial(observe.Observables, _past(1.0 + 1e-9, 2.0), 0.0, 0.0), ValueError,
         "p1z must lie in [-1, 1]", "observables-past-range",
         accepts=partial(observe.Observables, 1.0 + 1e-9, 0.0, 0.0)),
    _row(partial(observe.Observables, 1.5, 0.0, 0.0), ValueError, "p1z must lie in [-1, 1]",
         "observables-1.5"),
    _row(partial(observe.Observables, 0.0, 0.0, math.nan), ValueError, "p1z2z must lie in [-1, 1]",
         "observables-nan"),
    *(_row(partial(f, a, t), ValueError, _THETA, f"{f.__name__}-theta-{t}")
      for f, a in ((observe.polarizations, _UNIFORM), (observe.reconstruct_populations, _OBS),
                   (observe.concurrence_from_observables, _OBS))
      for t in (-1e-3, math.pi / 4 + 1e-3, math.radians(200.0))),
    *(_row(partial(f, observe.Observables(0.1, 0.1, 0.0), math.pi / 4), ValueError, _SINGULAR,
           f"{f.__name__}-pi/4") for f in _FROM_OBSERVABLES),
    # cos 2theta >= 1e-8 from theta = 0 up to _LAST_REGULAR_THETA.
    *(_row(partial(f, _EQUAL_OBS, _past(_LAST_REGULAR_THETA, 1.0)), ValueError, _SINGULAR,
           f"{f.__name__}-past-regular", accepts=partial(f, _EQUAL_OBS, _LAST_REGULAR_THETA))
      for f in _FROM_OBSERVABLES),
    _row(partial(observe.reconstruct_populations, observe.Observables(1.0, 1.0, -1.0), math.pi / 6),
         ValueError, _INCONSISTENT, "reconstruct-inconsistent"),
    # At theta = 0 and p1z = p2z = -0.5, p1 = p1z2z / 4: -CLAMP_ATOL = -1e-10 at p1z2z = -4e-10.
    _row(partial(observe.reconstruct_populations, observe.Observables(-0.5, -0.5, _past(-4e-10)),
                 0.0), ValueError, "p1 = -1.0000000000000002e-10 outside [0, 1]",
         "reconstruct-past-clamp",
         accepts=partial(observe.reconstruct_populations, observe.Observables(-0.5, -0.5, -4e-10),
                         0.0)),
    # theta = 0, p1z = p2z = 1 + 1e-10: p1 = 1 + CLAMP_ATOL at p1z2z = 1 + 2e-10, past it 4 ulps up.
    _row(partial(observe.reconstruct_populations,
                 observe.Observables(1.0000000001, 1.0000000001, 1.000000000200001), 0.0),
         ValueError, "p1 = 1.0000000001000002 outside [0, 1]", "reconstruct-past-upper-clamp",
         accepts=partial(observe.reconstruct_populations,
                         observe.Observables(1.0000000001, 1.0000000001, 1.0000000002), 0.0)),
    _row(partial(observe.concurrence_from_observables, observe.Observables(0.45, 0.45, -0.5),
                 math.pi / 6), ValueError, "negative radicand", "from-observables-radicand"),
    # At p1z2z = -1 and p2z = 0 the radicand is -p1z^2: RADICAND_FLOOR = -1e-12 at p1z = 1e-6.
    _row(partial(observe.concurrence_from_observables,
                 observe.Observables(_past(1e-6, 1.0), 0.0, -1.0), 0.3),
         ValueError, "negative radicand", "from-observables-past-radicand-floor",
         accepts=partial(observe.concurrence_from_observables,
                         observe.Observables(1e-6, 0.0, -1.0), 0.3)),
]


@pytest.mark.parametrize("call, error, fragment, accepts", LIBRARY_FAILURES)
def test_library_failures(call, error, fragment, accepts):
    if accepts is not None:
        accepts()
    with pytest.raises(error, match=re.escape(fragment)) as exc:
        call()
    # Exactly the row's class: an OverflowError or ZeroDivisionError escaping from the
    # arithmetic is no ArithmeticError raised on purpose, nor a LinAlgError a ValueError.
    assert type(exc.value) is error


# Every public function, the threshold solve behind threshold_tau, and the three value
# types that validate, each by the code that a row's call enters first.
_ENTRY_POINTS = {
    **{name: f.__code__ for name in sp.__all__ if inspect.isfunction(f := getattr(sp, name))},
    "threshold_beta": entangle.threshold_beta.__code__,
    "SpinSystem": sp.SpinSystem.__new__.__code__,
    "DerivedParams": sp.DerivedParams.__new__.__code__,
    "Observables": sp.Observables.__new__.__code__,
}


def test_every_entry_point_has_a_row():
    entered = set()
    for row in LIBRARY_FAILURES:
        call = row.values[0]
        try:
            call()
        except (ValueError, ArithmeticError) as exc:
            # The traceback's first frame is this test's; the next is the code call entered.
            entered.add(list(traceback.walk_tb(exc.__traceback__))[1][0].f_code)
    assert [name for name, code in _ENTRY_POINTS.items() if code not in entered] == []


def _failure(command, code, fragment, id, **env):
    """A FAILURES row: a whitespace-split command line, its exit code, a piece of its stderr,
    and the environment it runs in."""
    return pytest.param(command, code, fragment, env, id=id)


_CONCURRENCE = "concurrence --omega-sigma 1 --omega-delta 1"
_SPECTRUM = "spectrum --omega-sigma 1 --omega-delta 0 --tau 1"
_TAU_SCAN = "scan --axis tau --points 5"
_FIELD_SCAN = "scan --axis field --omega-delta 0 --tau 1"
_RECONSTRUCT = "reconstruct --p1z 0.1 --p2z 0.05 --p1z2z 0.2"
_PRECISION = "SPINPAIR_PRECISION must lie in [1, 17]"

# Every way a command line fails: exit 2 for invalid input, from main's checks or
# argparse's; exit 3 for a numerical failure on valid input.
FAILURES = [
    # A missing, conflicting or ignored flag.
    _failure("concurrence --omega-sigma 2 --omega-delta 0", 2,
             "one of the arguments --tau --zero-temp is required", "no-temperature"),
    _failure("concurrence --omega-sigma 2 --omega-delta 0 --tau 0.5 --zero-temp", 2,
             "not allowed with", "tau-and-zero-temp"),
    _failure("spectrum --omega-sigma 2 --omega-delta 0 --tau 0.5 --zero-temp", 2,
             "not allowed with", "spectrum-tau-and-zero-temp"),
    _failure("threshold", 2, "one of the arguments --omega-delta --j-hz", "threshold-no-mode"),
    _failure("threshold --omega-delta 1 --j-hz 7", 2, "not allowed with", "two-threshold-modes"),
    _failure("threshold --j-hz 7 --coupling 2", 2, "--j-hz excludes --coupling", "j-hz-coupling"),
    _failure("crossing --preset hc --omega1 4 --omega2 1", 2, "--preset excludes", "preset-both"),
    _failure("crossing --preset hc --omega2 1", 2, "--preset excludes", "preset-omega2"),
    _failure("crossing --omega1 4", 2, "provide --preset or both", "omega1-alone"),
    _failure("crossing --preset bogus", 2, "invalid choice: 'bogus'", "unknown-preset"),
    _failure(f"{_TAU_SCAN} --from 0 --to 1 --omega-sigma 2 --omega-delta 1 --tau 7", 2,
             "--axis tau excludes --tau", "tau-scan-tau"),
    _failure("scan --axis field --from 1 --to 3 --points 5 --omega-delta 1 --tau 0.5 "
             "--omega-sigma 9", 2, "--axis field excludes --omega-sigma", "field-scan-sigma"),
    _failure("scan --axis field --from 0 --to 1 --points 5", 2, "need omega_delta and tau",
             "field-scan-no-tau"),
    # tau outside [0, inf), or beta = 1/tau past float range.
    _failure("concurrence --omega-sigma 2 --omega-delta 0 --tau -1", 2, _FINITE_TAU, "tau-minus"),
    _failure(f"{_CONCURRENCE} --tau inf", 2, _FINITE_TAU, "tau-infinite"),
    _failure("spectrum --omega-sigma 1 --omega-delta 1 --tau inf", 2, _FINITE_TAU,
             "spectrum-tau-infinite"),
    _failure("scan --axis field --from 0 --to 1 --points 5 --tau nan", 2, _FINITE_TAU,
             "field-scan-tau-nan"),
    _failure(f"{_CONCURRENCE} --tau 1e-320", 3, _BETA_OVERFLOWS, "beta-overflows"),
    _failure("scan --axis field --from 0 --to 1 --points 5 --tau 1e-320", 3,
             _BETA_OVERFLOWS, "field-scan-beta-overflows"),
    _failure("scan --axis tau --from 0 --to 1e-310 --points 3 --omega-sigma 1 --omega-delta 1", 3,
             _BETA_OVERFLOWS, "tau-scan-beta-overflows"),
    # Frequencies outside their domain.
    _failure("concurrence --omega-sigma 1 --omega-delta -1 --tau 1", 2, _OMEGA_DELTA,
             "omega-delta-minus"),
    # Grids: the count, the order, finite ends, and a span past float range.
    _failure("scan --axis tau --from 0 --to 1 --points 0", 2, "error: --points must be >= 1",
             "scan-zero-points"),
    _failure(f"{_SPECTRUM} --render 0 1 0", 2, "error: --render POINTS must be >= 1",
             "render-zero-points"),
    _failure(f"{_SPECTRUM} --render 0 1 2.7", 2, "POINTS must be an integer", "render-2.7-points"),
    _failure(f"{_TAU_SCAN} --from 1 --to 0", 2, _INCREASING, "tau-scan-decreasing"),
    _failure(f"{_TAU_SCAN} --from 1 --to 1", 2, _INCREASING, "tau-scan-one-value"),
    _failure("scan --axis field --from 1 --to 0 --points 5 --tau 0.5", 2, _INCREASING,
             "field-scan-decreasing"),
    _failure("scan --axis field --from 1 --to 1 --points 5 --tau 0.5", 2, _INCREASING,
             "field-scan-one-value"),
    _failure(f"{_FIELD_SCAN} --from 1e308 --to=-1e308 --points 3", 2, _INCREASING,
             "field-scan-decreasing-overflows"),
    _failure(f"{_SPECTRUM} --render 1e308 -1e308 2", 2, _INCREASING,
             "render-decreasing-overflows"),
    _failure(f"{_SPECTRUM} --render nan 1 1", 2, _GRID, "render-nan-start"),
    _failure(f"{_SPECTRUM} --render 0 inf 3", 2, _GRID, "render-infinite-stop"),
    _failure(f"{_FIELD_SCAN} --from -1e308 --to 1e308 --points 3", 3, "overflows",
             "field-scan-span-overflows"),
    _failure(f"{_SPECTRUM} --render -1e308 1e308 3", 3, "overflows", "render-span-overflows"),
    _failure(f"{_SPECTRUM} --render 0 1.7976931348623157e308 4", 3, "overflows",
             "render-last-point-overflows"),
    # A flip angle outside (0, 180] degrees, and a linewidth outside (0, inf).
    _failure("spectrum --omega-sigma 1 --omega-delta 0 --zero-temp --phi 0", 2,
             _FLIP_ANGLE, "zero-temp-phi-0"),
    _failure(f"{_SPECTRUM} --phi 0", 2, _FLIP_ANGLE, "phi-0"),
    _failure(f"{_SPECTRUM} --phi 181", 2, _FLIP_ANGLE, "phi-181"),
    _failure(f"{_SPECTRUM} --phi nan", 2, _FLIP_ANGLE, "phi-nan"),
    _failure(f"{_SPECTRUM} --render 0 1 3 --linewidth 0", 2, _LINEWIDTH, "linewidth-0"),
    # threshold: J or j_hz outside its domain, or a solve past float range. At
    # J = 1e-320 the start 2 asinh(1 / s) overflows; at J = 1e-300, omega_delta =
    # 1e300, sin 2theta underflows to 0; below about 3.4e-275 Hz the energy scale
    # hbar 2 pi j_hz is subnormal.
    _failure("threshold --omega-delta 1 --coupling inf", 2, _COUPLING, "coupling-infinite"),
    _failure("threshold --j-hz 0", 2, _J_HZ, "j-hz-0"),
    _failure("threshold --j-hz inf", 2, _J_HZ, "j-hz-infinite"),
    _failure("threshold --j-hz nan", 2, _J_HZ, "j-hz-nan"),
    _failure("threshold --omega-delta 1 --coupling 1e-320", 3, _START, "start-overflows"),
    _failure("threshold --omega-delta 1e300 --coupling 1e-300", 3, _UNDERFLOWED,
             "sin-2theta-underflows"),
    _failure("threshold --j-hz 1e-280", 3, _ENERGY_SCALE, "energy-scale-subnormal"),
    _failure("threshold --j-hz 1e-300", 3, _ENERGY_SCALE, "energy-scale-deep-subnormal"),
    # crossing and reconstruct.
    _failure("crossing --omega1 nan --omega2 1", 2, _FREQUENCIES, "omega1-nan"),
    _failure("crossing --omega1 1 --omega2 inf", 2, _FREQUENCIES, "omega2-inf"),
    _failure("reconstruct --p1z 0.1 --p2z 0.1 --p1z2z 0 --theta-deg 45", 2, _SINGULAR,
             "reconstruct-homonuclear"),
    _failure("reconstruct --p1z 1 --p2z 1 --p1z2z -1 --theta-deg 30", 2, _INCONSISTENT,
             "reconstruct-inconsistent"),
    _failure(f"{_RECONSTRUCT} --theta-deg 200", 2, _THETA, "theta-200"),
    _failure(f"{_RECONSTRUCT} --theta-deg -5", 2, _THETA, "theta-negative"),
    # SPINPAIR_PRECISION other than an integer in [1, 17].
    _failure("threshold --omega-delta 0", 2, "SPINPAIR_PRECISION must be an integer",
             "precision-lots", SPINPAIR_PRECISION="lots"),
    _failure("threshold --omega-delta 0", 2, _PRECISION, "precision-0", SPINPAIR_PRECISION="0"),
    _failure("threshold --omega-delta 0", 2, _PRECISION, "precision-18", SPINPAIR_PRECISION="18"),
]


@pytest.mark.parametrize("command, code, fragment, env", FAILURES)
def test_failing_command_lines(capsys, monkeypatch, command, code, fragment, env):
    # Every check runs before the first line is written, so stdout stays empty.
    monkeypatch.delenv("SPINPAIR_PRECISION", raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    got, out, err = run_cli(capsys, *command.split())
    assert (got, out) == (code, "")
    if code == 3:
        assert err.startswith("numerical failure: "), err
    else:
        assert "error: " in err.splitlines()[-1], err
    assert fragment in err, err

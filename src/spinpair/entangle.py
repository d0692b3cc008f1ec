"""Closed-form concurrence of the thermal pair and its threshold temperature.

Population form (theta in [0, pi/4], J >= 0 so sin 2theta >= 0):

    C = max{0, |p2 - p3| sin(2 theta) - 2 sqrt(p1 p4)}

Ratio form, obtained by inserting the Boltzmann weights and Z:

    C = max{0, [sinh(beta D/2) sin(2 theta) - exp(-beta J/2)]
              / [exp(-beta J/2) cosh(beta omega_sigma/2) + cosh(beta D/2)]}

Entanglement survives while sinh(beta D/2) sin(2 theta) > exp(-beta J/2);
the left side grows and the right side shrinks with beta, so for J > 0
there is a unique threshold beta* and a threshold temperature
tau_t = k_B T_t / J = 1 / (beta* J). For J = 0 the pair never entangles.
The homonuclear case collapses to C = max{0, (e^{beta J} - 3) /
(2 cosh(beta omega) + e^{beta J} + 1)}, giving tau_t = 1/ln 3.
"""

from __future__ import annotations

import math

from .model import (
    DEFAULT_UNITS,
    DerivedParams,
    SpinSystem,
    TWO_PI,
    UnitContext,
    derive,
    derive_from_sigma_delta,
)
from . import thermo
from .thermo import _EXP_MAX, _exp, _probs

_BRACKET_DOUBLINGS = 60


def _sinh(x: float) -> float:
    return math.sinh(x) if x < _EXP_MAX else math.inf


def concurrence_from_populations(pops, theta: float) -> float:
    """C = max{0, |p2 - p3| sin(2 theta) - 2 sqrt(p1 p4)}."""
    p1, p2, p3, p4 = _probs(pops)
    value = abs(p2 - p3) * math.sin(2.0 * theta) - 2.0 * math.sqrt(max(p1 * p4, 0.0))
    return value if value > 0.0 else 0.0


def concurrence_for_params(params: DerivedParams, coupling: float, beta: float) -> float:
    """Thermal concurrence from derived parameters.

    beta = inf routes through the exact limit populations rather than a
    large-beta evaluation of the ratio form, which would cancel
    catastrophically at the critical point.
    """
    if math.isinf(beta):
        pops = thermo.populations(thermo.energies(params, coupling), math.inf)
        return concurrence_from_populations(pops, params.theta)
    if not beta >= 0.0:
        raise ValueError("beta must be >= 0")
    d = params.d_coupling
    half = 0.5 * beta
    # Ratio form rescaled by 2 exp(-beta D / 2): every exponent is
    # non-positive below the level crossing, so nothing overflows there,
    # and beyond the crossing the single growing term drives C -> 0.
    num = params.sin_2theta * (1.0 - math.exp(-beta * d)) - 2.0 * math.exp(
        -half * (d + coupling)
    )
    den = (
        _exp(-half * (d + coupling - params.omega_sigma))
        + math.exp(-half * (d + coupling + params.omega_sigma))
        + 1.0
        + math.exp(-beta * d)
    )
    value = num / den
    return value if value > 0.0 else 0.0


def concurrence_thermal(system: SpinSystem, beta: float) -> float:
    return concurrence_for_params(derive(system), system.coupling, beta)


def concurrence_homonuclear(omega: float, coupling: float, beta: float) -> float:
    """Homonuclear shortcut C = max{0, (e^{bJ} - 3)/(2 cosh(b w) + e^{bJ} + 1)}."""
    if math.isinf(beta):
        params = derive_from_sigma_delta(2.0 * omega, 0.0, coupling)
        return concurrence_for_params(params, coupling, math.inf)
    if not beta >= 0.0:
        raise ValueError("beta must be >= 0")
    # Same expression scaled by exp(-beta J) to stay finite at large beta.
    num = 1.0 - 3.0 * math.exp(-beta * coupling)
    den = (
        _exp(beta * (omega - coupling))
        + math.exp(-beta * (omega + coupling))
        + 1.0
        + math.exp(-beta * coupling)
    )
    value = num / den
    return value if value > 0.0 else 0.0


def entanglement_gap(beta: float, d: float, sin_2theta: float, coupling: float) -> float:
    """g(beta) = sinh(beta D/2) sin(2 theta) - exp(-beta J/2).

    Strictly increasing with g(0+) = -1; its unique root (for J > 0)
    marks the disappearance of entanglement.
    """
    return _sinh(0.5 * beta * d) * sin_2theta - math.exp(-0.5 * beta * coupling)


def threshold_beta(d: float, sin_2theta: float, coupling: float) -> float | None:
    """Root of the entanglement gap, or None when no root exists (J = 0)."""
    if coupling <= 0.0 or sin_2theta <= 0.0:
        return None
    lo = 1e-6 / coupling
    for _ in range(_BRACKET_DOUBLINGS):
        if entanglement_gap(lo, d, sin_2theta, coupling) < 0.0:
            break
        lo *= 0.5
    else:
        return None
    hi = 1.0 / coupling
    for _ in range(_BRACKET_DOUBLINGS):
        if entanglement_gap(hi, d, sin_2theta, coupling) > 0.0:
            break
        hi *= 2.0
    else:
        return None
    for _ in range(300):
        if hi - lo <= 1e-15 * hi:
            break
        mid = 0.5 * (lo + hi)
        if entanglement_gap(mid, d, sin_2theta, coupling) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def threshold_temperature(system: SpinSystem) -> float | None:
    """Dimensionless threshold tau_t = k_B T_t / J, or None when J = 0."""
    return threshold_tau(system.omega1 - system.omega2, system.coupling)


def threshold_tau(omega_delta: float, coupling: float = 1.0) -> float | None:
    """threshold_temperature from (omega_delta, J) alone; omega_sigma drops out."""
    params = derive_from_sigma_delta(0.0, omega_delta, coupling)
    beta_star = threshold_beta(params.d_coupling, params.sin_2theta, coupling)
    if beta_star is None:
        return None
    return 1.0 / (beta_star * coupling)


def threshold_kelvin(j_hz: float, units: UnitContext = DEFAULT_UNITS) -> float:
    """Homonuclear threshold in Kelvin for a coupling quoted in Hz."""
    if not j_hz > 0.0:
        raise ValueError("j_hz must be > 0")
    factor = TWO_PI if units.hz_convention else 1.0
    return units.hbar * factor * j_hz / (units.k_boltzmann * math.log(3.0))


def sweep(
    axis: str,
    grid,
    *,
    omega_sigma: float | None = None,
    omega_delta: float | None = None,
    tau: float | None = None,
    coupling: float = 1.0,
) -> list[tuple[float, float]]:
    """Concurrence along a temperature or field grid, one (x, C) row per point.

    axis="temperature": grid holds tau = k_B T / J values (tau = 0 selects
    the zero-temperature limit) at fixed omega_sigma, omega_delta.
    axis="field": grid holds omega_sigma values at fixed omega_delta, tau.
    The grid must be non-empty, finite and strictly increasing.
    """
    points = [float(x) for x in grid]
    if not points:
        raise ValueError("empty grid")
    if any(not math.isfinite(x) for x in points):
        raise ValueError("grid values must be finite")
    if any(b <= a for a, b in zip(points, points[1:])):
        raise ValueError("grid must be strictly increasing")

    if axis == "temperature":
        if omega_sigma is None or omega_delta is None:
            raise ValueError("temperature sweeps need omega_sigma and omega_delta")
        params = derive_from_sigma_delta(omega_sigma, omega_delta, coupling)
        rows = []
        for t in points:
            if t < 0.0:
                raise ValueError("tau must be >= 0")
            beta = math.inf if t == 0.0 else 1.0 / (t * coupling)
            rows.append((t, concurrence_for_params(params, coupling, beta)))
        return rows

    if axis == "field":
        if omega_delta is None or tau is None:
            raise ValueError("field sweeps need omega_delta and tau")
        if tau < 0.0:
            raise ValueError("tau must be >= 0")
        beta = math.inf if tau == 0.0 else 1.0 / (tau * coupling)
        rows = []
        for ws in points:
            params = derive_from_sigma_delta(ws, omega_delta, coupling)
            rows.append((ws, concurrence_for_params(params, coupling, beta)))
        return rows

    raise ValueError(f"unknown sweep axis {axis!r}")

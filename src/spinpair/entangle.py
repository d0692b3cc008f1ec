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
In x = beta D / 2 with s = sin 2theta = J / D the gap is
g(x) = s sinh(x) - exp(-x s), and g''(x) = s sinh(x) - s^2 exp(-x s). At and
above the root s sinh(x) >= exp(-x s) >= s exp(-x s), so g is convex there:
Newton's method started above the root descends onto it without overshooting.
The homonuclear case omega_delta = 0 (D = J, sin 2theta = 1) collapses to
C = max{0, (e^{beta J} - 3) / (2 cosh(beta omega) + e^{beta J} + 1)}, so tau_t = 1/ln 3.
"""

from __future__ import annotations

import math
import sys

from .model import (
    K_BOLTZMANN,
    DerivedParams,
    SpinSystem,
    _beta_from_tau,
    _check_grid,
    _check_same_coupling,
    _energy_scale,
    derive,
    derive_from_sigma_delta,
)
from . import thermo
from .thermo import _LOG_FLOAT_MAX

# math.sinh(x) is finite exactly for x <= log(2 float max).
_LOG_2_FLOAT_MAX = _LOG_FLOAT_MAX + math.log(2.0)


def concurrence_from_populations(pops, theta: float) -> float:
    """C = max{0, |p2 - p3| sin(2 theta) - 2 sqrt(p1 p4)}."""
    p1, p2, p3, p4 = thermo._probs(pops, theta)
    value = abs(p2 - p3) * math.sin(2.0 * theta) - 2.0 * math.sqrt(max(p1 * p4, 0.0))
    return value if value > 0.0 else 0.0


def concurrence_for_params(params: DerivedParams, coupling: float, beta: float) -> float:
    """Thermal concurrence from derived parameters.

    beta = inf routes through the exact limit populations rather than a
    large-beta evaluation of the ratio form, which would cancel
    catastrophically at the critical point.
    """
    _check_same_coupling(params, coupling)
    if thermo._is_zero_temperature(beta):
        pops = thermo.populations(thermo.energies(params, coupling), math.inf)
        return concurrence_from_populations(pops, params.theta)
    return _ratio_form(
        params.omega_sigma, params.d_coupling, params.sin_2theta, coupling, beta
    )


def _ratio_form(
    omega_sigma: float, d: float, sin_2theta: float, coupling: float, beta: float
) -> float:
    """Ratio form at one finite beta >= 0; the caller validates its inputs."""
    half = 0.5 * beta
    e_d = math.exp(-beta * d)
    # Ratio form rescaled by 2 exp(-beta D / 2): every exponent is
    # non-positive below the level crossing, so nothing overflows there,
    # and beyond the crossing the single growing term exp(a) drives C -> 0.
    num = sin_2theta * (1.0 - e_d) - 2.0 * math.exp(-half * (d + coupling))
    a = -half * (d + coupling - omega_sigma)
    if a > _LOG_FLOAT_MAX:
        # exp(a) overflows and the other three terms of den (at most 3) are
        # below its rounding, so C = num exp(-a), down to the subnormal range.
        return math.exp(math.log(num) - a) if num > 0.0 else 0.0
    den = math.exp(a) + math.exp(-half * (d + coupling + omega_sigma)) + 1.0 + e_d
    value = num / den
    return value if value > 0.0 else 0.0


def concurrence_thermal(system: SpinSystem, beta: float) -> float:
    return concurrence_for_params(derive(system), system.coupling, beta)


def concurrence_homonuclear(omega: float, coupling: float, beta: float) -> float:
    """Homonuclear C = max{0, (e^{bJ} - 3)/(2 cosh(b w) + e^{bJ} + 1)}, as the ratio form."""
    omega_sigma = 2.0 * omega
    if omega_sigma == math.inf and math.isfinite(omega):
        raise ArithmeticError("omega_sigma = 2 omega overflows")
    params = derive_from_sigma_delta(omega_sigma, 0.0, coupling)
    return concurrence_for_params(params, coupling, beta)


def entanglement_gap(beta: float, d: float, sin_2theta: float, coupling: float) -> float:
    """g(beta) = sinh(beta D/2) sin(2 theta) - exp(-beta J/2).

    Strictly increasing with g(0+) = -1; its unique root (for J > 0)
    marks the disappearance of entanglement; sinh saturates where math.sinh overflows.
    """
    x = 0.5 * beta * d
    gain = math.sinh(x) if x <= _LOG_2_FLOAT_MAX else math.inf
    return gain * sin_2theta - math.exp(-0.5 * beta * coupling)


def threshold_beta(d: float, sin_2theta: float, coupling: float) -> float | None:
    """Root of the entanglement gap, or None when no root exists (J = 0).

    With x = beta D / 2 and s = sin 2theta = J / D the gap is
    sinh(x) s - exp(-x s). Where sinh(x) s = 2 the gap is at least
    2 - 1 > 0; where sinh(x) s = e^-2 it is at most e^-2 - exp(-e^-2) < 0,
    because x s <= sinh(x) s. Both bracket ends are closed forms in x.

    The gap is increasing, and convex at and above its root, where
    s sinh(x) >= exp(-x s) >= s exp(-x s) makes g'' = s sinh(x) - s^2 exp(-x s)
    non-negative. Newton's method on g(beta), started at the upper end,
    therefore steps down monotonically onto the root and never crosses it.
    It stops at the first beta whose gap rounds to <= 0, or once the next
    step makes no progress inside the bracket.
    """
    if coupling == 0.0:
        return None
    if not sin_2theta > 0.0:
        raise ArithmeticError("sin 2theta underflowed to 0 although J > 0")
    lo = 2.0 * math.asinh(math.exp(-2.0) / sin_2theta) / d
    hi = 2.0 * math.asinh(2.0 / sin_2theta) / d
    # hi = inf where 2 / s overflows; D is finite, so hi > 0.
    if not 0.0 < hi < math.inf:
        raise ArithmeticError(f"threshold bracket is out of float range: [{lo!r}, {hi!r}]")
    # beta D / 2 can round up to an ulp above asinh(2 / s), which may be
    # log(2 float max), where sinh and cosh overflow. 4 eps lower they stay
    # finite, and the gap is still about 1.
    beta = hi * (1.0 - 4.0 * sys.float_info.epsilon)
    for _ in range(100):
        gap = entanglement_gap(beta, d, sin_2theta, coupling)
        if not gap > 0.0:
            return beta
        # g'(beta) = (D / 2) s (cosh x + exp(-x s)). The step is taken as
        # gap / (s (cosh x + exp(-x s))) <= 1, times 2 / D: the slope itself
        # overflows once D exceeds float max / 2.
        x = 0.5 * beta * d
        step = gap / (sin_2theta * (math.cosh(x) + math.exp(-0.5 * beta * coupling)))
        next_beta = beta - step * (2.0 / d)
        if not lo < next_beta < beta:
            return beta
        beta = next_beta
    raise ArithmeticError(f"threshold Newton iteration did not converge from {hi!r}")


def threshold_temperature(system: SpinSystem) -> float | None:
    """Dimensionless threshold tau_t = k_B T_t / J, or None when J = 0.

    Raises ArithmeticError where derive does: omega1 +- omega2 overflows.
    """
    return _threshold_tau(derive(system))


def threshold_tau(omega_delta: float, coupling: float = 1.0) -> float | None:
    """threshold_temperature from (omega_delta, J) alone; omega_sigma drops out."""
    return _threshold_tau(derive_from_sigma_delta(0.0, omega_delta, coupling))


def _threshold_tau(params: DerivedParams) -> float | None:
    d, j = params.d_coupling, params.coupling
    if j > 1.0:
        # The gap depends on beta only through beta D and beta J. Dividing D
        # and J by the power of two that puts J in [0.5, 1) is exact and keeps
        # beta* out of the subnormal range when J nears float max.
        scale = math.frexp(j)[1]
        d, j = math.ldexp(d, -scale), math.ldexp(j, -scale)
    beta_star = threshold_beta(d, params.sin_2theta, j)
    if beta_star is None:
        return None
    return 1.0 / (beta_star * j)


def threshold_kelvin(j_hz: float) -> float:
    """Homonuclear threshold in Kelvin for a coupling quoted in Hz."""
    return _energy_scale(j_hz) / (K_BOLTZMANN * math.log(3.0))


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
    points = _check_grid(grid).tolist()
    if axis == "temperature":
        if omega_sigma is None or omega_delta is None:
            raise ValueError("temperature sweeps need omega_sigma and omega_delta")
        params = derive_from_sigma_delta(omega_sigma, omega_delta, coupling)
        # In an increasing grid only points[0] can be 0, and 1/(tau J) overflows
        # first at the smallest positive tau: checking it validates the grid.
        zero = points[0] == 0.0
        taus = points[1:] if zero else points
        _beta_from_tau(taus[0] if taus else 0.0, coupling)
        rows = [(points[0], concurrence_for_params(params, coupling, math.inf))] if zero else []
        ws, d, s = params.omega_sigma, params.d_coupling, params.sin_2theta
        rows += [(t, _ratio_form(ws, d, s, coupling, 1.0 / (t * coupling))) for t in taus]
        return rows
    if axis == "field":
        if omega_delta is None or tau is None:
            raise ValueError("field sweeps need omega_delta and tau")
        # D and theta do not depend on omega_sigma, and validating the
        # lowest field of the increasing grid validates every field.
        params = derive_from_sigma_delta(points[0], omega_delta, coupling)
        beta = _beta_from_tau(tau, coupling)
        wd, d, theta, j = params.omega_delta, params.d_coupling, params.theta, params.coupling
        if beta == math.inf:
            return [
                (x, concurrence_for_params(DerivedParams(x, wd, d, theta, j), j, beta))
                for x in points
            ]
        s = params.sin_2theta
        return [(x, _ratio_form(x, d, s, coupling, beta)) for x in points]
    raise ValueError(f"unknown sweep axis {axis!r}")

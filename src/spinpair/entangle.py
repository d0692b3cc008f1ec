"""Closed-form concurrence of the thermal pair and its threshold temperature.

Population form (theta in [0, pi/4], J >= 0 so sin 2theta >= 0):

    C = max{0, |p2 - p3| sin(2 theta) - 2 sqrt(p1 p4)}

Ratio form, obtained by inserting the Boltzmann weights and Z:

    C = max{0, [sinh(beta D/2) sin(2 theta) - exp(-beta J/2)]
              / [exp(-beta J/2) cosh(beta omega_sigma/2) + cosh(beta D/2)]}
which _ratio_form sums over the weights relative to E3, exp(-beta (T31, D, 0, T43)), with T43
from thermo._t43_term as thermo._half_offsets forms it and T31 = T43 + omega_sigma.

Entanglement survives while sinh(beta D/2) sin(2 theta) > exp(-beta J/2).
With s = sin 2theta = J / D that condition depends on beta only through
beta D, so the threshold is solved once at unit splitting D = 1, J = s:
the root beta_hat = beta* D of s sinh(beta/2) = exp(-beta s/2) is unique for
s > 0, and tau_t = k_B T_t / J = 1 / (beta* J) = 1 / (beta_hat s) depends on
s alone. For J = 0 the pair never entangles.
The homonuclear case omega_delta = 0 (D = J, sin 2theta = 1) collapses to
C = max{0, (e^{beta J} - 3) / (2 cosh(beta omega) + e^{beta J} + 1)}, so tau_t = 1/ln 3.
"""

from __future__ import annotations

import math
from itertools import chain, islice, repeat
from operator import mul, truediv

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


def concurrence_from_populations(pops, theta: float) -> float:
    """C = max{0, |p2 - p3| sin(2 theta) - 2 sqrt(p1 p4)}."""
    p1, p2, p3, p4 = thermo._probs(pops, theta)
    value = abs(p2 - p3) * math.sin(2.0 * theta) - 2.0 * math.sqrt(p1 * p4)
    return value if value > 0.0 else 0.0


def concurrence_for_params(params: DerivedParams, coupling: float, beta: float) -> float:
    """Thermal concurrence at beta in [0, inf], from the one kernel that sweeps use too.

    beta = inf is the exact zero-temperature limit, which the kernel decides
    from the ground set.
    """
    _check_same_coupling(params, coupling)
    thermo._is_zero_temperature(beta)  # ValueError unless beta lies in [0, inf]
    # Unpacking runs the generator to its end; next() would leave it to be closed.
    (value,) = _ratio_form(((params.omega_sigma, beta),), params)
    return value


def _ratio_form(points, params: DerivedParams):
    """C at each (omega_sigma >= 0, beta in [0, inf]) point of params; the caller validates them.

    The beta-only terms are recomputed only when beta changes, so once per field sweep, and T43's
    term once per call, as in thermo._half_offsets. beta = inf is the exact limit, not a large-beta
    ratio form, which would cancel at the crossing: C is sin 2theta when thermo._ground finds E3
    alone, half of it for E3 and E4, and 0 for any other (E4 <= E1, E3 <= E2). A numerator <= 0
    gives C = 0 without the denominator.
    """
    # Local names save two lookups per point.
    exp, ground_of, log_max = math.exp, thermo._ground, _LOG_FLOAT_MAX
    omega_delta, d, coupling = params.omega_delta, params.d_coupling, params.coupling
    sin_2theta, half_dj = params.sin_2theta, 0.5 * d + 0.5 * coupling  # (D + J) / 2 stays finite
    # T43 = m (c_m - (omega_sigma - omega_delta) / 2m), as in thermo._half_offsets.
    c_m, m = thermo._t43_term(params)
    r_m = 0.5 / m
    last_beta = None
    for omega_sigma, beta in points:
        if beta != last_beta:
            last_beta = beta
            zero = beta == math.inf
            if not zero:
                neg_beta, neg_beta_m, e_d = -beta, -beta * m, exp(-beta * d)
                # Weights relative to E3, over 2 exp(-beta D / 2): none grows below the crossing;
                # past it exp(a), a = -beta T43, drives C -> 0 (-inf at -beta m = -inf: T43 > 0).
                num = sin_2theta * (1.0 - e_d) - 2.0 * exp(neg_beta * half_dj)
        if zero:
            ground = ground_of(params, omega_sigma)
            yield sin_2theta if ground == [2] else 0.5 * sin_2theta if ground == [2, 3] else 0.0
            continue
        if num <= 0.0:
            # The denominator is at least 1: C = 0 whatever it is.
            yield 0.0
            continue
        a = neg_beta_m * (c_m - r_m * (omega_sigma - omega_delta))
        if a > log_max:
            # exp(a) overflows and the other three terms of den (at most 3) are
            # below its rounding, so C = num exp(-a), down to the subnormal range.
            yield exp(math.log(num) - a)
            continue
        yield num / (exp(a) + exp(a + neg_beta * omega_sigma) + 1.0 + e_d)


def concurrence_thermal(system: SpinSystem, beta: float) -> float:
    """Thermal concurrence at beta in [0, inf]: concurrence_for_params of derive(system)."""
    return concurrence_for_params(derive(system), system.coupling, beta)


def concurrence_homonuclear(omega: float, coupling: float, beta: float) -> float:
    """Homonuclear C = max{0, (e^{bJ} - 3)/(2 cosh(b w) + e^{bJ} + 1)}, as the ratio form.

    It is the ratio form at omega_delta = 0, so it rejects what every thermal route rejects.
    """
    omega_sigma = 2.0 * omega
    if omega_sigma == math.inf and math.isfinite(omega):
        raise ArithmeticError("omega_sigma = 2 omega overflows")
    params = derive_from_sigma_delta(omega_sigma, 0.0, coupling)
    return concurrence_for_params(params, coupling, beta)


def entanglement_gap(beta: float, s: float) -> float:
    """g(beta) = s sinh(beta/2) - exp(-beta s/2), the gap at unit splitting D = 1, J = s.

    Strictly increasing with g(0+) = -1; its unique root (for s > 0)
    marks the disappearance of entanglement.
    """
    return s * math.sinh(0.5 * beta) - math.exp(-0.5 * beta * s)


def threshold_beta(s: float) -> float:
    """Root of the entanglement gap at unit splitting, for s = sin 2theta in (0, 1].

    With x = beta / 2 the gap is s sinh(x) - exp(-x s): increasing, and convex
    at and above its root, where s sinh(x) >= exp(-x s) >= s exp(-x s) makes
    g'' = (s sinh(x) - s^2 exp(-x s)) / 4 non-negative. So Newton's method from
    the start 2 asinh(1 / s), where s sinh(x) = 1 and the gap is 1 - exp(-x s) > 0,
    steps down onto the root without crossing it, and sinh and cosh stay finite.
    It stops at the first beta whose gap rounds to <= 0, or where the next step is
    not below beta (NaN included): about 5 gap evaluations, and 1 below about
    s = 1e-17, where the start is the root to rounding. Every s whose 1 / s is finite
    solves, down to about 5.6e-309; below it ArithmeticError, and ValueError for an
    s outside (0, 1], NaN included.
    """
    if not 0.0 < s <= 1.0:
        raise ValueError(f"s = sin 2theta must lie in (0, 1], got {s!r}")
    beta = start = 2.0 * math.asinh(1.0 / s)
    if not start < math.inf:  # 1 / s overflows
        raise ArithmeticError(f"threshold start 2 asinh(1/s) is out of float range at s = {s!r}")
    for _ in range(100):
        gap = entanglement_gap(beta, s)
        if not gap > 0.0:
            return beta
        # g'(beta) = s (cosh(beta/2) + exp(-beta s/2)) / 2.
        x = 0.5 * beta
        next_beta = beta - 2.0 * gap / (s * (math.cosh(x) + math.exp(-x * s)))
        if not next_beta < beta:
            return beta
        beta = next_beta
    raise ArithmeticError(f"threshold Newton iteration did not converge from {start!r}")


def threshold_temperature(system: SpinSystem) -> float | None:
    """Dimensionless threshold tau_t = k_B T_t / J, or None when J = 0.

    Raises ArithmeticError where derive does: omega1 +- omega2 overflows.
    """
    return _threshold_tau(derive(system))


def threshold_tau(omega_delta: float, coupling: float = 1.0) -> float | None:
    """threshold_temperature from (omega_delta, J) alone; omega_sigma drops out."""
    return _threshold_tau(derive_from_sigma_delta(0.0, omega_delta, coupling))


def _threshold_tau(params: DerivedParams) -> float | None:
    """tau_t = 1 / (beta_hat s), with beta_hat = beta* D the root at unit splitting."""
    if params.coupling == 0.0:
        return None
    s = params.sin_2theta
    if not s > 0.0:
        raise ArithmeticError("sin 2theta underflowed to 0 although J > 0")
    return 1.0 / (threshold_beta(s) * s)


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
    return list(
        _sweep_rows(
            axis, grid, omega_sigma=omega_sigma, omega_delta=omega_delta, tau=tau,
            coupling=coupling,
        )
    )


def _sweep_rows(axis, grid, *, omega_sigma=None, omega_delta=None, tau=None, coupling=1.0):
    """sweep's rows as an iterator; every input is validated before it is returned.

    Once the inputs pass, no row raises, so a caller may write rows as they come.
    """
    points = _check_grid(grid)
    if axis == "temperature":
        if omega_sigma is None or omega_delta is None:
            raise ValueError("temperature sweeps need omega_sigma and omega_delta")
        params = derive_from_sigma_delta(omega_sigma, omega_delta, coupling)
        # In an increasing grid only points[0] can be 0 (beta = inf), and 1/(tau J)
        # overflows first at the smallest positive tau: the first two points
        # validate the grid.
        head = [_beta_from_tau(tau, coupling) for tau in points[:2]]
        tail = map(truediv, repeat(1.0), map(mul, islice(points, 2, None), repeat(coupling)))
        omega_sigmas, betas = repeat(params.omega_sigma), chain(head, tail)
    elif axis == "field":
        if omega_delta is None or tau is None:
            raise ValueError("field sweeps need omega_delta and tau")
        # D and theta do not depend on omega_sigma, and validating the
        # lowest field of the increasing grid validates every field.
        params = derive_from_sigma_delta(points[0], omega_delta, coupling)
        omega_sigmas, betas = points, repeat(_beta_from_tau(tau, coupling))
    else:
        raise ValueError(f"unknown sweep axis {axis!r}")
    values = _ratio_form(zip(omega_sigmas, betas), params)
    return zip(points, values)

"""Thermal-equilibrium state of the coupled pair.

Energy levels (hbar = 1, in the units of the input frequencies; each term
is halved before the sum, so the levels are finite for every valid input):

    E1 = (omega_sigma + J/2) / 2          |aa>
    E2 = (D - J/2) / 2                    cos(t)|ab> + sin(t)|ba>
    E3 = -(D + J/2) / 2                   -sin(t)|ab> + cos(t)|ba>
    E4 = (-omega_sigma + J/2) / 2         |bb>

Boltzmann weights p_i = exp(-beta E_i) / Z, as exp(-beta (h_i - min h) 2) from halves h_i = E_i / 2
of the levels, or of the offsets (T31, D, 0, T43) from params, whose one form is _half_offsets: no
difference overflows, and away from subnormals the weights are bit for bit exp(-beta (E_i - E_min)).
Z forms log Z first and raises ArithmeticError past log Z = 709.78. populations(levels, beta) is
kept for the benchmark; every route from params weighs the offsets, not level differences, which
keep only 8 digits of a gap of order J at omega_delta = 1e8. The tests check Z against the closed
form

    Z = 2 exp(beta J/4) [exp(-beta J/2) cosh(beta omega_sigma/2)
                         + cosh(beta D/2)].

_gaps forms the line gaps E_outer - E_inner with no cancelling subtraction, from D - omega_delta =
J^2 / (D + omega_delta) in _t43_term, read by _half_offsets, and D - J = omega_delta^2 / (D + J):

    T43 = (J + (D - omega_delta) - (omega_sigma - omega_delta)) / 2, halved first past 2^1023
    T21 = (omega_sigma - (D - J)) / 2, or where omega_delta/2 <= omega_sigma <= 2 omega_delta
          ((omega_sigma - omega_delta) + 2 omega_delta J / (omega_delta + J + D)) / 2
    T42 = -(omega_sigma + (D - J)) / 2,   T31 = (omega_sigma + D + J) / 2

The equilibrium state in the product basis is X-shaped: four real diagonals
plus one real coherence between |ab> and |ba>. beta = inf spreads probability evenly over
the levels within 1e-12 max |E_i| of the lowest, a scale floored at the least normal float and
so the same in any unit. _ground_set is that one rule, on halves of the levels or of the offsets.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

import numpy as np

from .model import DerivedParams, _check_same_coupling, _check_theta

# Relative scale for deciding two levels are degenerate in the zero-temperature limit.
DEGENERACY_RTOL = 1e-12

# math.exp(x) is finite exactly for x <= log(float max).
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


class EnergyLevels(namedtuple("EnergyLevels", "e1 e2 e3 e4")):
    """The four levels E1..E4 of the module docstring, in the units of the frequencies."""

    __slots__ = ()


class Populations(namedtuple("Populations", "p1 p2 p3 p4")):
    """Occupations p1..p4 of the four eigenstates, thermal or reconstructed; probs as a tuple."""

    __slots__ = ()

    @property
    def probs(self) -> tuple[float, float, float, float]:
        return tuple(self)


class DensityMatrixX(namedtuple("DensityMatrixX", "rho11 rho22 rho33 rho44 rho23")):
    """Thermal X-state: diagonals plus the single real coherence rho23."""

    __slots__ = ()

    def to_array(self) -> np.ndarray:
        m = np.zeros((4, 4))
        m[0, 0], m[1, 1], m[2, 2], m[3, 3], m[1, 2] = self
        m[2, 1] = self.rho23
        return m


def energies(params: DerivedParams, coupling: float) -> EnergyLevels:
    """E1..E4 at params, finite for every valid input; ValueError unless coupling is params'."""
    _check_same_coupling(params, coupling)
    ws, d, j = 0.5 * params.omega_sigma, 0.5 * params.d_coupling, 0.25 * coupling
    return EnergyLevels(ws + j, d - j, -d - j, -ws + j)


def _is_zero_temperature(beta: float) -> bool:
    """Whether beta is the exact limit beta = inf; ValueError unless beta lies in [0, inf]."""
    if not 0.0 <= beta <= math.inf:
        raise ValueError(f"beta must lie in [0, inf], got {beta!r}")
    return beta == math.inf


def _shifted_weights(halves, beta: float) -> list[float]:
    """exp(-beta (E_i - E_min)), each at most 1, of four levels or offsets given as halves; beta
    multiplies each difference of halves before it is doubled, so no finite weight overflows."""
    low = min(halves)
    return [math.exp(-beta * (h - low) * 2.0) for h in halves]


def _normalised(weights: list[float]) -> Populations:
    total = sum(weights)
    return Populations(*[w / total for w in weights])


def populations(levels: EnergyLevels, beta: float) -> Populations:
    """Boltzmann occupations; at beta = inf, equal shares of _ground_set at scale max |E_i|.

    ValueError unless levels holds exactly four finite levels.
    """
    es = tuple(levels)
    if len(es) != 4:
        raise ValueError(f"expected four energy levels, got {len(es)}")
    if not all(map(math.isfinite, es)):
        raise ValueError("energy levels must be finite")
    halves = [0.5 * e for e in es]
    if _is_zero_temperature(beta):
        return _shares(_ground_set(halves, max(map(abs, halves))))
    return _normalised(_shifted_weights(halves, beta))


def populations_for_params(params: DerivedParams, coupling: float, beta: float) -> Populations:
    """populations at params, from the offsets E_i - E3 = (T31, D, 0, T43) at every beta."""
    _check_same_coupling(params, coupling)
    if _is_zero_temperature(beta):
        return _shares(_ground(params, params.omega_sigma))
    return _normalised(_shifted_weights(_half_offsets(params, params.omega_sigma), beta))


def partition_for_params(params: DerivedParams, coupling: float, beta: float) -> float:
    """Z = sum_i exp(-beta E_i) at finite beta >= 0 as log Z: -beta min(E3, E4), the lowest level,
    plus log sum_i exp(-beta (o_i - min o)) over the offsets o = (T31, D, 0, T43). beta = 0 gives
    exactly 4; ValueError at beta = inf, ArithmeticError where Z passes float max."""
    e3, e4 = energies(params, coupling)[2:]
    if _is_zero_temperature(beta):
        raise ValueError("Z needs a finite beta")
    weights = _shifted_weights(_half_offsets(params, params.omega_sigma), beta)
    log_z = -beta * min(e3, e4) + math.log(sum(weights))
    if log_z > _LOG_FLOAT_MAX:
        raise ArithmeticError(f"partition function exceeds float range: log Z = {log_z!r}")
    return math.exp(log_z)


def _half_offsets(params: DerivedParams, omega_sigma: float) -> tuple[float, float, float, float]:
    """The halves (T31, D, 0, T43) / 2 of the offsets E_i - E3 at omega_sigma: the one form of T43
    and T31 from params. T31 / 2 is a sum of quarters and T43 / 2 = (m / 2) (c_m - r / 2m), with
    (c_m, m) = _t43_term and r = omega_sigma - omega_delta, so neither overflows."""
    d, r, (c_m, m) = params.d_coupling, omega_sigma - params.omega_delta, _t43_term(params)
    h43 = 0.5 * m * (c_m - 0.5 / m * r)
    return 0.25 * omega_sigma + 0.25 * d + 0.25 * params.coupling, 0.5 * d, 0.0, h43


def _t43_term(params: DerivedParams) -> tuple[float, float]:
    """(c / m, m) for T43 = m (c / m - (omega_sigma - omega_delta) / 2m), with c = (J + (D -
    omega_delta)) / 2, at most J, as a product of halves. T43 <= c + omega_delta / 2 is finite below
    c = 2^1023, where m = 1; from there on m = 2, and c / m and the halved r are exact."""
    j2 = 0.5 * params.coupling  # max: no 0 / 0 at D <= 5e-324
    c = j2 + j2 * (j2 / (max(0.5 * params.d_coupling, 5e-324) + 0.5 * params.omega_delta))
    return (c, 1.0) if c < 2.0**1023 else (0.5 * c, 2.0)


def _gaps(params: DerivedParams) -> tuple[float, float, float, float]:
    """Signed E_outer - E_inner of T43, T21, T42, T31; T43 and T31 double _half_offsets' halves.

    Every term is halved before the sum, so only a doubled T31 or T43 can pass float max, and then
    ArithmeticError names it. Away from subnormals halving and doubling are exact, so the gaps are
    bit for bit the unhalved forms; where omega_sigma, omega_delta and J all lie below four times
    the least normal float, the doubled T43 and T31 may lose one more unit of 2^-1074.
    """
    ws, wd, j = params.omega_sigma, params.omega_delta, params.coupling
    w2, d2, j2 = 0.5 * wd, max(0.5 * params.d_coupling, 5e-324), 0.5 * j
    (h31, _, _, h43), d_minus_j = _half_offsets(params, ws), w2 * (w2 / (d2 + j2))
    # In its window only: hi / (wd + J + D) in [0.29, 0.5]; min, max order zeros as sorted does.
    t21 = (0.5 * (ws - wd) + min(wd, j) * (0.5 * max(j, wd) / (w2 + j2 + d2))
           if 0.5 * wd <= ws <= 2.0 * wd else 0.5 * ws - d_minus_j)
    t43, t31 = 2.0 * h43, 2.0 * h31
    if t31 == math.inf:
        raise ArithmeticError("the T31 gap (omega_sigma + D + J) / 2 exceeds float range")
    if t43 == math.inf:
        raise ArithmeticError("the T43 gap (J + D - omega_sigma) / 2 exceeds float range")
    return (t43, t21, -(0.5 * ws + d_minus_j), t31)


def _ground(params: DerivedParams, omega_sigma: float) -> list[int]:
    """populations' ground set at omega_sigma: the _ground_set of _half_offsets at half the scale
    max(E1, -E3) = max |E_i| (|E4| <= E1, |E2| <= -E3), quartered as energies halves."""
    d, j = 0.25 * params.d_coupling, 0.125 * params.coupling
    return _ground_set(_half_offsets(params, omega_sigma), max(0.25 * omega_sigma + j, d + j))


def _ground_set(halves, scale: float) -> list[int]:
    """0-based indices of four halved levels or offsets at most 1e-12 max(scale, float min / 2)
    above the least, at half the scale max |E_i|: the unhalved rule, floored at float min."""
    low, tol = min(halves), DEGENERACY_RTOL * max(scale, 0.5 * sys.float_info.min)
    return [i for i, h in enumerate(halves) if h - low <= tol]


def _shares(ground: list[int]) -> Populations:
    """The beta = inf occupations: equal shares of the 0-based ground set."""
    return Populations(*(1.0 / len(ground) if i in ground else 0.0 for i in range(4)))


def _probs(pops, theta: float) -> tuple[float, float, float, float]:
    """Populations (a Populations or 4-sequence) each in [0, 1], with theta in [0, pi/4]."""
    _check_theta(theta)
    probs = tuple(map(float, pops))
    p1, p2, p3, p4 = probs  # ValueError unless there are exactly four
    if not (0.0 <= p1 <= 1.0 and 0.0 <= p2 <= 1.0 and 0.0 <= p3 <= 1.0 and 0.0 <= p4 <= 1.0):
        raise ValueError(f"populations must lie in [0, 1], got {probs!r}")
    return probs


def density_matrix(pops, theta: float) -> DensityMatrixX:
    """Equilibrium state in the product basis {aa, ab, ba, bb}."""
    p1, p2, p3, p4 = _probs(pops, theta)
    sin_t = math.sin(theta)
    cos_t = math.cos(theta)
    s2, c2 = sin_t * sin_t, cos_t * cos_t
    return DensityMatrixX(
        rho11=p1,
        rho22=p2 * c2 + p3 * s2,
        rho33=p2 * s2 + p3 * c2,
        rho44=p4,
        rho23=(p2 - p3) * sin_t * cos_t,
    )

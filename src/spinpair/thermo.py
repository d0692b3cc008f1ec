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

_pairs forms (D + J) / 2 = c + c_lo and (D - J) / 2 = m + m_lo once per parameter set, each a hi +
lo pair good to about 2^-106 D, and every line gap E_outer - E_inner is +-omega_sigma / 2 plus one
of them: T43 = (c - omega_sigma / 2) + c_lo, T21 = (omega_sigma / 2 - m) - m_lo,
T42 = -((omega_sigma / 2 + m) + m_lo), T31 = (omega_sigma / 2 + c) + c_lo. Where a gap cancels,
at a crossing, its subtraction is exact (Sterbenz), so it keeps its digits down to about 2^-50 D.

The equilibrium state in the product basis is X-shaped: four real diagonals
plus one real coherence between |ab> and |ba>. beta = inf spreads probability evenly over
the levels within 1e-12 max |E_i| of the lowest, a scale floored at the least normal float and
so the same in any unit. _ground_set is that one rule, on halves of the levels or of the offsets.
"""

from __future__ import annotations

import functools
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
    """The halves (T31, D, 0, T43) / 2 of the offsets E_i - E3 at omega_sigma, the one form of T43
    and T31 from params: quarters of omega_sigma and halves of _pairs' c, so neither overflows."""
    c, c_lo, _, _ = _pairs(params)
    q, h, h_lo = 0.25 * omega_sigma, 0.5 * c, 0.5 * c_lo
    return (q + h) + h_lo, 0.5 * params.d_coupling, 0.0, (h - q) + h_lo


@functools.lru_cache(maxsize=1)  # the kernel's beta = inf branch reads it once per point
def _pairs(params: DerivedParams) -> tuple[float, float, float, float]:
    """(c, c_lo, m, m_lo): (D + J) / 2 = c + c_lo and (D - J) / 2 = m + m_lo to about 2^-106 D.

    D_lo = (omega_delta^2 + J^2 - D^2) / 2D is one Newton step on the residual, made exact by
    Dekker's squares (Veltkamp's split by 2^27 + 1) and fsum, at omega_delta, J and D times
    2^(511 - e), D = mant 2^e: no square overflows, none a normal (D - J) / 2 needs is subnormal,
    and the residual over mant, scaled back by one ldexp, cannot underflow first. c and m are
    D / 2 +- J / 2 with their exact two-sum errors (J <= D).
    """
    d, j, ldexp = params.d_coupling, params.coupling, math.ldexp
    mant, e = math.frexp(d)
    x, y, z = ldexp(params.omega_delta, 511 - e), ldexp(j, 511 - e), ldexp(d, 511 - e)
    hx, hy, hz = 134217729.0 * x, 134217729.0 * y, 134217729.0 * z
    hx, hy, hz = hx - (hx - x), hy - (hy - y), hz - (hz - z)
    lx, ly, lz, xx, yy, zz = x - hx, y - hy, z - hz, x * x, y * y, z * z
    residual = math.fsum((xx, hx * hx - xx + 2.0 * hx * lx + lx * lx, yy,
                          hy * hy - yy + 2.0 * hy * ly + ly * ly,
                          -zz, zz - hz * hz - 2.0 * hz * lz - lz * lz))
    half_lo = ldexp(residual / max(mant, 0.5), e - 1024)  # D_lo / 2; mant 0 at D = 0
    a, b = 0.5 * d, 0.5 * j
    c, m = a + b, a - b
    return c, (b - (c - a)) + half_lo, m, ((a - m) - b) + half_lo


def _gaps(params: DerivedParams) -> tuple[float, float, float, float]:
    """Signed E_outer - E_inner of T43, T21, T42, T31; T43 and T31 double _half_offsets' halves,
    so they are the forms of the module docstring away from subnormals, and may lose one more unit
    of 2^-1074 below four times the least normal float. Only T31 can pass float max; then
    ArithmeticError names it."""
    ws, (_, _, m, m_lo) = params.omega_sigma, _pairs(params)
    h31, _, _, h43 = _half_offsets(params, ws)
    t31, w2 = 2.0 * h31, 0.5 * ws
    if t31 == math.inf:
        raise ArithmeticError("the T31 gap (omega_sigma + D + J) / 2 exceeds float range")
    return (2.0 * h43, (w2 - m) - m_lo, -((w2 + m) + m_lo), t31)


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

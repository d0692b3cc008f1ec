"""Thermal-equilibrium state of the coupled pair.

Energy levels (hbar = 1, in the units of the input frequencies; each term
is halved before the sum, so the levels are finite for every valid input):

    E1 = (omega_sigma + J/2) / 2          |aa>
    E2 = (D - J/2) / 2                    cos(t)|ab> + sin(t)|ba>
    E3 = -(D + J/2) / 2                   -sin(t)|ab> + cos(t)|ba>
    E4 = (-omega_sigma + J/2) / 2         |bb>

Boltzmann weights p_i = exp(-beta E_i) / Z. partition sums Z relative to
the lowest level and so forms log Z first; where Z leaves float range
(log Z > 709.78) it raises ArithmeticError instead of returning inf. The
tests check it against the closed form

    Z = 2 exp(beta J/4) [exp(-beta J/2) cosh(beta omega_sigma/2)
                         + cosh(beta D/2)].

_gaps forms the line gaps E_outer - E_inner with no cancelling subtraction, from
D - omega_delta = J^2 / (D + omega_delta) and D - J = omega_delta^2 / (D + J):

    T43 = (J + (D - omega_delta) - (omega_sigma - omega_delta)) / 2
    T21 = (omega_sigma - (D - J)) / 2, or where omega_delta/2 <= omega_sigma <= 2 omega_delta
          ((omega_sigma - omega_delta) + 2 omega_delta J / (omega_delta + J + D)) / 2
    T42 = -(omega_sigma + (D - J)) / 2,   T31 = (omega_sigma + D + J) / 2

The equilibrium state in the product basis is X-shaped: four real diagonals
plus one real coherence between |ab> and |ba>. beta = inf spreads probability
evenly over the levels within DEGENERACY_RTOL max(1, max |E_i|) of the lowest;
from params, _ground decides that set on the offsets (T31, D, 0, T43), as above.
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
    __slots__ = ()


class Populations(namedtuple("Populations", "p1 p2 p3 p4")):
    """Occupations p1..p4 of the four eigenstates, thermal or reconstructed."""

    __slots__ = ()

    @property
    def probs(self) -> tuple[float, float, float, float]:
        return tuple(self)


class DensityMatrixX(namedtuple("DensityMatrixX", "rho11 rho22 rho33 rho44 rho23")):
    """Thermal X-state: diagonals plus the single real coherence rho23."""

    __slots__ = ()

    def to_array(self) -> np.ndarray:
        return np.array(
            [
                [self.rho11, 0.0, 0.0, 0.0],
                [0.0, self.rho22, self.rho23, 0.0],
                [0.0, self.rho23, self.rho33, 0.0],
                [0.0, 0.0, 0.0, self.rho44],
            ]
        )


def energies(params: DerivedParams, coupling: float) -> EnergyLevels:
    _check_same_coupling(params, coupling)
    ws, d, j = 0.5 * params.omega_sigma, 0.5 * params.d_coupling, 0.25 * coupling
    return EnergyLevels(ws + j, d - j, -d - j, -ws + j)


def _is_zero_temperature(beta: float) -> bool:
    """Whether beta is the exact limit beta = inf; ValueError unless beta lies in [0, inf]."""
    if not 0.0 <= beta <= math.inf:
        raise ValueError(f"beta must lie in [0, inf], got {beta!r}")
    return beta == math.inf


def _check_levels(levels) -> tuple[float, ...]:
    """The levels as a tuple; ValueError unless there are exactly four, each finite."""
    es = tuple(levels)
    if len(es) != 4:
        raise ValueError(f"expected four energy levels, got {len(es)}")
    if not all(map(math.isfinite, es)):
        raise ValueError("energy levels must be finite")
    return es


def _shifted_weights(levels, beta: float) -> tuple[float, list[float]]:
    """The lowest level and exp(-beta (E_i - E_min)), each at most 1 and 1 at beta = 0."""
    es = _check_levels(levels)
    emin = min(es)
    return emin, [math.exp(-beta * (e - emin)) if beta else 1.0 for e in es]


def partition(levels: EnergyLevels, beta: float) -> float:
    """Z = sum_i exp(-beta E_i) at finite beta >= 0, summed relative to the lowest level as
    log Z; a Z beyond float range raises instead of saturating to inf."""
    if _is_zero_temperature(beta):
        raise ValueError("Z needs a finite beta")
    emin, weights = _shifted_weights(levels, beta)
    log_z = -beta * emin + math.log(sum(weights))
    if log_z > _LOG_FLOAT_MAX:
        raise ArithmeticError(f"partition function exceeds float range: log Z = {log_z!r}")
    return math.exp(log_z)


def populations(levels: EnergyLevels, beta: float) -> Populations:
    """Boltzmann occupations; at beta = inf, equal shares of the ground set: the levels within
    DEGENERACY_RTOL max(1, max |E_i|) of the lowest."""
    if _is_zero_temperature(beta):
        es = _check_levels(levels)
        emin = min(es)
        tol = DEGENERACY_RTOL * max(1.0, max(es), -emin)  # max(max E_i, -min E_i) is max |E_i|
        ground = [i for i, e in enumerate(es) if e - emin <= tol]
        return Populations(*(1.0 / len(ground) if i in ground else 0.0 for i in range(4)))
    _, weights = _shifted_weights(levels, beta)
    total = sum(weights)
    return Populations(*(w / total for w in weights))


def _populations(params: DerivedParams, beta: float) -> Populations:
    """populations at params, from the offsets E_i - E3 = (T31, D, 0, T43) at every beta."""
    if _is_zero_temperature(beta):
        ground = _ground(params)
        return Populations(*(1.0 / len(ground) if i in ground else 0.0 for i in range(4)))
    t43, _, _, t31 = _gaps(params)
    return populations(EnergyLevels(t31, params.d_coupling, 0.0, t43), beta)


def _gap_terms(params: DerivedParams) -> tuple[float, float, float]:
    """(J + (D - omega_delta)) / 2, (D - J) / 2 and (omega_delta + J - D) / 2 as products of
    halves, by D - x = y^2 / (D + x) for {x, y} = {omega_delta, J}: no sum overflows."""
    wd, d, j = params.omega_delta, params.d_coupling, params.coupling
    w2, d2, j2 = 0.5 * wd, max(0.5 * d, 5e-324), 0.5 * j  # no 0 / 0 at D <= 5e-324
    lo, hi = sorted((wd, j))  # hi / (omega_delta + J + D) lies in [0.29, 0.5]: no underflow
    return j2 + j2 * (j2 / (d2 + w2)), w2 * (w2 / (d2 + j2)), lo * (0.5 * hi / (w2 + j2 + d2))


def _gaps(params: DerivedParams) -> tuple[float, float, float, float]:
    """Signed E_outer - E_inner of T43, T21, T42, T31 from halved terms; T31 may overflow."""
    ws, wd, d, j = params.omega_sigma, params.omega_delta, params.d_coupling, params.coupling
    (t43_offset, d_minus_j, window_term), half_diff = _gap_terms(params), 0.5 * (ws - wd)
    t21 = half_diff + window_term if 0.5 * wd <= ws <= 2.0 * wd else 0.5 * ws - d_minus_j
    t31 = 0.5 * ws + 0.5 * d + 0.5 * j
    if t31 == math.inf:
        raise ArithmeticError("the T31 gap (omega_sigma + D + J) / 2 exceeds float range")
    return (t43_offset - half_diff, t21, -(0.5 * ws + d_minus_j), t31)


def _ground(params: DerivedParams, omega_sigma=None, t43=None) -> list[int]:
    """populations' 0-based ground set at omega_sigma (params' own by default), decided on the
    offsets (T31 = T43 + omega_sigma, D, 0, T43); T31 = +inf is never ground. The scale
    max(1, E1, -E3) is max(1, max |E_i|) (|E4| <= E1, |E2| <= -E3), halved as energies halves."""
    if t43 is None:
        omega_sigma = params.omega_sigma
        t43 = _gap_terms(params)[0] - 0.5 * (omega_sigma - params.omega_delta)
    d, j = params.d_coupling, 0.25 * params.coupling
    tol, low = DEGENERACY_RTOL * max(1.0, 0.5 * omega_sigma + j, 0.5 * d + j), min(t43, 0.0)
    return [i for i, o in enumerate((t43 + omega_sigma, d, 0.0, t43)) if o - low <= tol]


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

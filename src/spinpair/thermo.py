"""Thermal-equilibrium state of the coupled pair.

Energy levels (hbar = 1, in the units of the input frequencies; each term
is halved before the sum, so the levels are finite for every valid input):

    E1 = (omega_sigma + J/2) / 2          |aa>
    E2 = (D - J/2) / 2                    cos(t)|ab> + sin(t)|ba>
    E3 = -(D + J/2) / 2                   -sin(t)|ab> + cos(t)|ba>
    E4 = (-omega_sigma + J/2) / 2         |bb>

Boltzmann weights p_i = exp(-beta E_i) / Z with the closed form

    Z = 2 exp(beta J/4) [exp(-beta J/2) cosh(beta omega_sigma/2)
                         + cosh(beta D/2)].

Both forms compute log Z first; where Z leaves float range (log Z >
709.78) they raise ArithmeticError instead of returning inf.

The equilibrium state in the product basis is X-shaped: four real
diagonals plus one real coherence between |ab> and |ba>. beta = inf is
an explicit zero-temperature mode: probability collapses onto the
lowest level, spread uniformly over exact degeneracies.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .model import DerivedParams, _check_same_coupling, _check_theta

# Relative scale for deciding two levels are exactly degenerate in the
# zero-temperature limit.
DEGENERACY_RTOL = 1e-12

# math.exp(x) is finite exactly for x <= log(float max).
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class EnergyLevels:
    e1: float
    e2: float
    e3: float
    e4: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.e1, self.e2, self.e3, self.e4)


@dataclass(frozen=True)
class Populations:
    """Occupations p1..p4 of the four eigenstates, thermal or reconstructed."""

    p1: float
    p2: float
    p3: float
    p4: float

    @property
    def probs(self) -> tuple[float, float, float, float]:
        return (self.p1, self.p2, self.p3, self.p4)


@dataclass(frozen=True)
class DensityMatrixX:
    """Thermal X-state: diagonals plus the single real coherence rho23."""

    rho11: float
    rho22: float
    rho33: float
    rho44: float
    rho23: float

    @property
    def trace(self) -> float:
        return self.rho11 + self.rho22 + self.rho33 + self.rho44

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


def _z_from_log(log_z: float) -> float:
    """Z = exp(log Z); a Z beyond float range raises instead of saturating to inf."""
    # log Z is nan only as inf - inf once beta J overflows, where Z is out of range too.
    if not log_z <= _LOG_FLOAT_MAX:
        raise ArithmeticError(f"partition function exceeds float range: log Z = {log_z!r}")
    return math.exp(log_z)


def _lowest_level(es: tuple[float, ...]) -> float:
    """min(es); ValueError unless every level is finite."""
    if not all(map(math.isfinite, es)):
        raise ValueError("energy levels must be finite")
    return min(es)


def _shifted_weights(es: tuple[float, ...], beta: float) -> tuple[float, list[float]]:
    """The lowest level and exp(-beta (E_i - E_min)); no weight exceeds 1."""
    emin = _lowest_level(es)
    return emin, [math.exp(-beta * (e - emin)) for e in es]


def _log_2cosh(x: float) -> float:
    """log(2 cosh x), finite wherever x is."""
    return abs(x) + math.log1p(math.exp(-2.0 * abs(x)))


def partition(levels: EnergyLevels, beta: float) -> float:
    """Z = sum_i exp(-beta E_i) at finite beta >= 0, summed relative to the lowest level."""
    if _is_zero_temperature(beta):
        raise ValueError("Z needs a finite beta")
    emin, weights = _shifted_weights(levels.as_tuple(), beta)
    return _z_from_log(-beta * emin + math.log(sum(weights)))


def partition_closed(params: DerivedParams, coupling: float, beta: float) -> float:
    """Closed form of Z, used as the cross-check against the direct sum.

    log Z = beta J/4 + log(exp(-beta J/2) 2 cosh(beta omega_sigma/2)
    + 2 cosh(beta D/2)), the two terms added in log space.
    """
    _check_same_coupling(params, coupling)
    if _is_zero_temperature(beta):
        raise ValueError("Z needs a finite beta")
    a = -0.5 * beta * coupling + _log_2cosh(0.5 * beta * params.omega_sigma)
    b = _log_2cosh(0.5 * beta * params.d_coupling)
    hi, lo = (a, b) if a >= b else (b, a)
    return _z_from_log(0.25 * beta * coupling + hi + math.log1p(math.exp(lo - hi)))


def populations(levels: EnergyLevels, beta: float) -> Populations:
    """Boltzmann occupations; beta = inf selects the exact ground-state limit."""
    es = levels.as_tuple()
    if _is_zero_temperature(beta):
        ground = _ground_levels(es)
        return Populations(*(1.0 / len(ground) if i in ground else 0.0 for i in range(4)))
    _, weights = _shifted_weights(es, beta)
    total = sum(weights)
    return Populations(*(w / total for w in weights))


def _ground_levels(es: tuple[float, ...]) -> list[int]:
    """0-based indices of the levels exactly degenerate with the lowest one."""
    emin = _lowest_level(es)
    scale = max(1.0, max(abs(e) for e in es))
    return [i for i, e in enumerate(es) if e - emin <= DEGENERACY_RTOL * scale]


def _probs(pops, theta: float) -> tuple[float, float, float, float]:
    """Populations (a Populations or 4-sequence) each in [0, 1], with theta in [0, pi/4]."""
    _check_theta(theta)
    probs = getattr(pops, "probs", None)
    if probs is None:
        probs = tuple(float(v) for v in pops)
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

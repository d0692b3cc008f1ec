"""Thermal-equilibrium state of the coupled pair.

Energy levels (hbar = 1, in the units of the input frequencies):

    E1 = (omega_sigma + J/2) / 2          |aa>
    E2 = (D - J/2) / 2                    cos(t)|ab> + sin(t)|ba>
    E3 = -(D + J/2) / 2                   -sin(t)|ab> + cos(t)|ba>
    E4 = (-omega_sigma + J/2) / 2         |bb>

Boltzmann weights p_i = exp(-beta E_i) / Z with the closed form

    Z = 2 exp(beta J/4) [exp(-beta J/2) cosh(beta omega_sigma/2)
                         + cosh(beta D/2)].

The equilibrium state in the product basis is X-shaped: four real
diagonals plus one real coherence between |ab> and |ba>. beta = inf is
an explicit zero-temperature mode: probability collapses onto the
lowest level, spread uniformly over exact degeneracies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import DerivedParams

# Relative scale for deciding two levels are exactly degenerate in the
# zero-temperature limit.
DEGENERACY_RTOL = 1e-12

# math.exp overflows just above this argument.
_EXP_MAX = 709.0


def _exp(x: float) -> float:
    # exp that saturates instead of raising; large-beta evaluations push
    # arguments past float range on the non-entangled side.
    return math.exp(x) if x < _EXP_MAX else math.inf


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
    """Boltzmann occupations of the four eigenstates.

    ``z`` is the partition function; in the zero-temperature limit it
    holds the ground-state multiplicity (the limit of Z * exp(beta*E_min))
    and ``zero_temp`` is set. Population vectors reconstructed from
    observables carry nan for z and beta, they have no thermal origin.
    """

    p1: float
    p2: float
    p3: float
    p4: float
    z: float = math.nan
    beta: float = math.nan
    zero_temp: bool = False

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
    half_j = 0.5 * coupling
    return EnergyLevels(
        0.5 * (params.omega_sigma + half_j),
        0.5 * (params.d_coupling - half_j),
        -0.5 * (params.d_coupling + half_j),
        0.5 * (-params.omega_sigma + half_j),
    )


def partition(levels: EnergyLevels, beta: float) -> float:
    """Partition function Z = sum_i exp(-beta E_i).

    The sum runs relative to the lowest level so it cannot overflow on
    its own; only the final rescaling saturates to inf when beta*|E|
    genuinely exceeds float range. The zero-temperature limit lives in
    populations(), not here.
    """
    if not beta >= 0.0 or math.isinf(beta):
        raise ValueError("beta must be finite and >= 0")
    return populations(levels, beta).z


def partition_closed(params: DerivedParams, coupling: float, beta: float) -> float:
    """Closed form of Z, used as the cross-check against the direct sum."""
    if not beta >= 0.0 or math.isinf(beta):
        raise ValueError("beta must be finite and >= 0")
    return (
        2.0
        * math.exp(0.25 * beta * coupling)
        * (
            math.exp(-0.5 * beta * coupling) * math.cosh(0.5 * beta * params.omega_sigma)
            + math.cosh(0.5 * beta * params.d_coupling)
        )
    )


def populations(levels: EnergyLevels, beta: float) -> Populations:
    """Boltzmann occupations; beta = inf selects the exact ground-state limit."""
    es = levels.as_tuple()
    if math.isinf(beta):
        ground = _ground_levels(es)
        share = 1.0 / len(ground)
        ps = [share if i in ground else 0.0 for i in range(4)]
        return Populations(*ps, z=float(len(ground)), beta=math.inf, zero_temp=True)
    if not beta >= 0.0:
        raise ValueError("beta must be >= 0")
    emin = min(es)
    weights = [math.exp(-beta * (e - emin)) for e in es]
    total = sum(weights)
    ps = [w / total for w in weights]
    return Populations(*ps, z=_exp(-beta * emin + math.log(total)), beta=beta)


def _ground_levels(es: tuple[float, ...]) -> list[int]:
    """0-based indices of the levels exactly degenerate with the lowest one."""
    emin = min(es)
    scale = max(1.0, max(abs(e) for e in es))
    return [i for i, e in enumerate(es) if e - emin <= DEGENERACY_RTOL * scale]


def _probs(pops) -> tuple[float, float, float, float]:
    """The four populations of a Populations or of any length-4 sequence."""
    probs = getattr(pops, "probs", None)
    if probs is None:
        probs = tuple(float(v) for v in pops)
        if len(probs) != 4:
            raise ValueError("expected four populations")
    return probs


def density_matrix(pops: Populations, theta: float) -> DensityMatrixX:
    """Equilibrium state in the product basis {aa, ab, ba, bb}."""
    sin_t = math.sin(theta)
    cos_t = math.cos(theta)
    s2, c2 = sin_t * sin_t, cos_t * cos_t
    p1, p2, p3, p4 = pops.probs
    return DensityMatrixX(
        rho11=p1,
        rho22=p2 * c2 + p3 * s2,
        rho33=p2 * s2 + p3 * c2,
        rho44=p4,
        rho23=(p2 - p3) * sin_t * cos_t,
    )

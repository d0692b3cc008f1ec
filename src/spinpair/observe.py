"""Longitudinal polarization observables and entanglement reconstruction.

Three standard one-dimensional measurements determine the full
population vector whenever cos 2theta != 0:

    P1z    = p1 - p4 + (p2 - p3) cos 2theta
    P2z    = p1 - p4 + (p3 - p2) cos 2theta
    P1z,2z = p1 + p4 - p2 - p3

Inverting and inserting into the population form of the concurrence
gives entanglement directly in terms of observables:

    C = max{0, |P1z - P2z| |tan 2theta|
              - sqrt((1 + P1z,2z)^2 - (P1z + P2z)^2)} / 2

The radicand above equals 16 p1 p4 identically; a circulating variant
without the cross term 2 P1z,2z disagrees with the population route.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .model import _Validated, _check_theta
from .thermo import Populations, _probs

SINGULAR_COS2THETA = 1e-8
CLAMP_ATOL = 1e-10
RADICAND_FLOOR = -1e-12

_RANGE_TOL = 1e-9


class Observables(_Validated, namedtuple("Observables", "p1z p2z p1z2z")):
    """Expectation values of s1z, s2z and the two-spin order s1z s2z."""

    __slots__ = ()

    def __new__(cls, p1z: float, p2z: float, p1z2z: float):
        for name, value in zip(cls._fields, (p1z, p2z, p1z2z)):
            if not math.isfinite(value) or abs(value) > 1.0 + _RANGE_TOL:
                raise ValueError(f"{name} must lie in [-1, 1]")
        return super().__new__(cls, p1z, p2z, p1z2z)


def polarizations(pops, theta: float) -> Observables:
    """P1z, P2z and P1z,2z of populations at theta, as the module docstring writes them."""
    p1, p2, p3, p4 = _probs(pops, theta)
    c = math.cos(2.0 * theta)
    return Observables(
        p1z=p1 - p4 + (p2 - p3) * c,
        p2z=p1 - p4 + (p3 - p2) * c,
        p1z2z=p1 + p4 - p2 - p3,
    )


def _check_regular(theta: float) -> float:
    _check_theta(theta)
    c = math.cos(2.0 * theta)
    if abs(c) < SINGULAR_COS2THETA:
        raise ValueError(
            "reconstruction is singular at cos 2theta = 0 (homonuclear limit)"
        )
    return c


def reconstruct_populations(obs: Observables, theta: float) -> Populations:
    """Invert the three observables into populations.

    Values outside [0, 1] by more than a rounding margin mean the
    observables cannot come from any valid state and raise.
    """
    c = _check_regular(theta)
    skew = (obs.p1z - obs.p2z) / c
    p1 = 0.25 * (1.0 + obs.p1z + obs.p2z + obs.p1z2z)
    p2 = 0.25 * (1.0 - obs.p1z2z + skew)
    p3 = 0.25 * (1.0 - obs.p1z2z - skew)
    p4 = 0.25 * (1.0 - obs.p1z - obs.p2z + obs.p1z2z)
    ps = (p1, p2, p3, p4)
    for i, p in enumerate(ps, 1):
        if not -CLAMP_ATOL <= p <= 1.0 + CLAMP_ATOL:
            raise ValueError(f"observables are inconsistent: p{i} = {p} outside [0, 1]")
    return Populations(*(min(max(p, 0.0), 1.0) for p in ps))


def concurrence_from_observables(obs: Observables, theta: float) -> float:
    """Concurrence straight from the three observables."""
    _check_regular(theta)
    radicand = (1.0 + obs.p1z2z) ** 2 - (obs.p1z + obs.p2z) ** 2
    if radicand < RADICAND_FLOOR:
        raise ValueError("observables are inconsistent: negative radicand")
    radicand = max(radicand, 0.0)
    value = abs(obs.p1z - obs.p2z) * abs(math.tan(2.0 * theta)) - math.sqrt(radicand)
    return 0.5 * value if value > 0.0 else 0.0

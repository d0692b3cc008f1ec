"""Level crossing between E3 and E4 and the zero-temperature critical point.

E3 = E4 requires omega_sigma = D + J, equivalently

    J = (omega_sigma^2 - omega_delta^2) / (2 omega_sigma)
      = 2 omega1 omega2 / (omega1 + omega2).

The crossing needs omega_sigma = D + J > 0 and J > 0, so this squared form
is a true root only when both Larmor frequencies are positive. With one
spin free of Zeeman terms (omega2 = 0) or opposite moments (positronium)
there is no zero-temperature critical point for any J >= 0.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .model import PRESET_RATIOS, SpinSystem, derive, derive_from_sigma_delta
from . import thermo

# Critical field in units of J / gamma_1 for the presets that do cross
# (r = omega2 / omega1 > 0): B_crit * gamma_1 / J = (1 + r) / (2 r),
# written as 0.5 / r + 0.5 so that hp gives exactly 1.75.
FIELD_RATIOS = {name: 0.5 / r + 0.5 for name, r in PRESET_RATIOS.items() if r > 0.0}


class GroundState(namedtuple("GroundState", "index degenerate_pair", defaults=(None,))):
    """Index (1..4) of the lowest level, plus the degenerate pair if any."""

    __slots__ = ()


def crossing_coupling(omega1: float, omega2: float) -> float | None:
    """Coupling at which E3 and E4 cross, or None when no crossing exists.

    Any finite pair is accepted. It is formed as small / (1/2 + small / 2 big), which never
    overflows, and where small / big underflows its share is below the rounding of 1/2.
    """
    if not (math.isfinite(omega1) and math.isfinite(omega2)):
        raise ValueError("frequencies must be finite")
    if not (omega1 > 0.0 and omega2 > 0.0):
        return None
    # With r = small / big <= 1 the result 2 r big / (1 + r) is at most big:
    # it never overflows.
    small, big = sorted((omega1, omega2))
    return small / (0.5 + 0.5 * (small / big))


def critical_field_ratio(name: str) -> float:
    """B_crit * gamma_1 / J for a named preset."""
    if name in FIELD_RATIOS:
        return FIELD_RATIOS[name]
    if name in PRESET_RATIOS:
        raise ValueError(f"preset {name!r} has no level crossing")
    raise ValueError(f"unknown preset {name!r}")


def critical_omega_sigma(omega_delta: float, coupling: float) -> float:
    """Positive root J + sqrt(J^2 + omega_delta^2) of omega_sigma^2 - 2 J omega_sigma
    - omega_delta^2 = 0, for J > 0; ArithmeticError where it overflows."""
    params = derive_from_sigma_delta(0.0, omega_delta, coupling)  # validates omega_delta and J
    if coupling == 0.0:
        raise ValueError("coupling must be > 0")
    omega_sigma = coupling + params.d_coupling  # D = hypot(omega_delta, J)
    if omega_sigma == math.inf:
        raise ArithmeticError(f"critical omega_sigma overflows at {omega_delta!r}")
    return omega_sigma


def ground_state(system: SpinSystem) -> GroundState:
    """Which level is lowest, and the pair tied with it within 1e-12 max |E_i|, in any unit."""
    params = derive(system)
    members = [i + 1 for i in thermo._ground(params, params.omega_sigma)]
    return GroundState(members[0], tuple(members[:2]) if len(members) >= 2 else None)

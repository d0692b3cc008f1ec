"""Physical parameters of a scalar-coupled spin-1/2 pair.

A pair is specified by the two Larmor angular frequencies omega1, omega2
and the scalar coupling J >= 0, all in the same angular-frequency units,
usually units of J (so J itself is 1). The one SI bridge is a coupling
quoted in Hz, meaning J / 2 pi, turned into the energy hbar J in Joule
with the CODATA constants below. The quantities every formula downstream
consumes are

    omega_sigma = omega1 + omega2
    omega_delta = omega1 - omega2
    D           = sqrt(omega_delta**2 + J**2)
    theta       = mixing angle, tan(2 theta) = J / omega_delta

theta parameterises the hybridisation of the |ab>, |ba> product states
in the coupled eigenbasis and lies in [0, pi/4]; the homonuclear case
(omega_delta = 0, J > 0) sits exactly at pi/4, while the fully
degenerate case J = 0, omega_delta = 0 is fixed at 0 so all
coupling-dependent terms vanish in the uncoupled limit. DerivedParams
keeps the J of D and theta; a function also given J rejects any other J.
A DerivedParams built by hand, or by _replace, is derived again from
(omega_sigma, omega_delta, J), and its D and theta must be the derived ones.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from itertools import islice
from operator import lt

K_BOLTZMANN = 1.380649e-23  # J/K
HBAR = 1.054571817e-34      # J*s
TWO_PI = 2.0 * math.pi

# omega2 : omega1 ratios for the named systems. hc and hp follow the
# gyromagnetic ratios gamma_H ~ 4 gamma_C and gamma_H ~ 2.5 gamma_P;
# hyperfine has a Zeeman term on one spin only; positronium carries
# equal and opposite moments, so omega_sigma is exactly zero.
PRESET_RATIOS = {
    "hh": 1.0,
    "hc": 0.25,
    "hp": 0.4,
    "hyperfine": 0.0,
    "positronium": -1.0,
}


class SpinSystem(namedtuple("SpinSystem", "omega1 omega2 coupling")):
    """A scalar-coupled pair of spin-1/2 nuclei.

    Stored in canonical orientation omega1 >= omega2 >= 0; the
    constructor swaps the spin labels if the inputs violate this. The
    one sanctioned exception is the antiparallel configuration
    (positronium): omega2 = -omega1 < 0 after the swap is kept, so that
    omega_sigma is exactly zero.
    """

    __slots__ = ()

    def __new__(cls, omega1: float, omega2: float, coupling: float):
        for name, value in (("omega1", omega1), ("omega2", omega2)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        _check_coupling(coupling)
        if omega2 > omega1:
            omega1, omega2 = omega2, omega1
        if omega2 < 0.0 and omega2 != -omega1:
            raise ValueError(
                "negative Larmor frequencies are only supported for the "
                "positronium (antiparallel) configuration"
            )
        return super().__new__(cls, omega1, omega2, coupling)

    @classmethod
    def _make(cls, iterable):
        # _replace builds its result through _make: validate there too.
        return cls(*iterable)


class DerivedParams(namedtuple("DerivedParams", "omega_sigma omega_delta d_coupling theta coupling")):
    """Sum/difference frequencies, splitting D, mixing angle, and the J of D and theta.

    sin_2theta is sin(2 theta), or J / D where theta is subnormal.
    """

    __slots__ = ()

    def __new__(cls, omega_sigma, omega_delta, d_coupling, theta, coupling):
        # Built by hand: derive again, and keep D and theta only if they are the derived ones.
        params = derive_from_sigma_delta(omega_sigma, omega_delta, coupling)
        if (d_coupling, theta) != params[2:4]:
            raise ValueError("d_coupling and theta must be those of (omega_sigma, omega_delta, J)")
        return params

    @classmethod
    def _make(cls, iterable):
        # _replace builds its result through _make: validate there too.
        return cls(*iterable)

    @property
    def sin_2theta(self) -> float:
        # Halving a subnormal 2 theta drops its last bit; J / D keeps it.
        if 0.0 < self.theta < sys.float_info.min:
            return self.coupling / self.d_coupling
        return math.sin(2.0 * self.theta)

    @property
    def cos_2theta(self) -> float:
        return math.cos(2.0 * self.theta)


def derive(system: SpinSystem) -> DerivedParams:
    """Derived quantities for a system.

    The frequencies are finite, so an infinite omega1 +- omega2 is an overflow:
    ArithmeticError, not invalid input.
    """
    omega_sigma = system.omega1 + system.omega2
    omega_delta = system.omega1 - system.omega2
    if math.isinf(omega_sigma) or math.isinf(omega_delta):
        raise ArithmeticError("omega1 +- omega2 overflows")
    return derive_from_sigma_delta(omega_sigma, omega_delta, system.coupling)


def derive_from_sigma_delta(
    omega_sigma: float, omega_delta: float, coupling: float
) -> DerivedParams:
    """Build DerivedParams directly from (omega_sigma, omega_delta, J).

    Accepts any omega_sigma >= 0, including values below omega_delta
    (field sweeps start at zero field, where omega2 runs negative). A signed
    zero omega_delta or J counts as +0.0, so theta lies in [0, pi/4].
    ArithmeticError where D overflows.
    """
    if not (math.isfinite(omega_sigma) and math.isfinite(omega_delta)):
        raise ValueError("frequencies must be finite")
    if omega_sigma < 0.0:
        raise ValueError("omega_sigma must be >= 0")
    if omega_delta < 0.0:
        raise ValueError("omega_delta must be >= 0")
    _check_coupling(coupling)
    d = math.hypot(omega_delta, coupling)
    if d == math.inf:
        raise ArithmeticError("D = hypot(omega_delta, J) is out of float range")
    # atan2(0, 0) = 0 fixes the degenerate J = 0, omega_delta = 0 case;
    # atan2(J, 0) = pi/2 makes the homonuclear angle exactly pi/4. Adding +0.0
    # turns a signed zero into +0.0: atan2(0, -0.0) = pi, atan2(-0.0, 1) = -0.0.
    theta = 0.5 * math.atan2(coupling + 0.0, omega_delta + 0.0)
    return tuple.__new__(DerivedParams, (omega_sigma, omega_delta, d, theta, coupling))


def _check_coupling(coupling: float) -> None:
    if not 0.0 <= coupling < math.inf:
        raise ValueError("coupling must be finite and >= 0")


def _check_same_coupling(params: DerivedParams, coupling: float) -> None:
    if coupling != params.coupling:
        raise ValueError(f"coupling {coupling!r} is not the J = {params.coupling!r} of params")


def _check_theta(theta: float) -> None:
    if not 0.0 <= theta <= 0.25 * math.pi:
        raise ValueError("theta must lie in [0, pi/4]")


def _beta_from_tau(tau: float, coupling: float = 1.0) -> float:
    """beta = 1/(tau J) for tau in [0, inf); only tau = 0 gives beta = inf, no tau > 0 gives 0."""
    if not coupling > 0.0:
        raise ValueError("tau = k_B T / J needs J > 0")
    if not 0.0 <= tau < math.inf:
        raise ValueError("tau must be finite and >= 0")
    if tau == 0.0:
        return math.inf
    scaled = tau * coupling
    # Where tau J leaves float range, dividing by each factor in turn still finds beta.
    beta = 1.0 / scaled if 0 < scaled < math.inf else 1.0 / min(tau, coupling) / max(tau, coupling)
    if not 0.0 < beta < math.inf:
        raise ArithmeticError(f"beta = 1/(tau J) is out of float range at tau = {tau!r}")
    return beta


def _check_grid(grid) -> list[float]:
    """The grid as a list of floats; it must be non-empty, finite and strictly increasing."""
    try:
        # Older numpy only warns on float() of a one-element array row.
        points = list(map(float, grid)) if getattr(grid, "ndim", 1) == 1 else []
    except TypeError:  # a scalar, or a nested sequence
        points = []
    if not (points and all(map(math.isfinite, points))):
        raise ValueError("grid must be a non-empty 1-D sequence of finite values")
    if not all(map(lt, points, islice(points, 1, None))):
        raise ValueError("grid must be strictly increasing")
    return points


def preset(name: str, field_omega: float, coupling: float = 1.0) -> SpinSystem:
    """Named two-spin system at a given field, omega1 = field_omega.

    Recognised (lowercase) names: hh, hc, hp, hyperfine, positronium.
    """
    try:
        ratio = PRESET_RATIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; expected one of {sorted(PRESET_RATIOS)}"
        ) from None
    if not field_omega >= 0.0:
        raise ValueError("field_omega must be >= 0")
    return SpinSystem(field_omega, ratio * field_omega, coupling)


def _energy_scale(j_hz: float) -> float:
    """hbar J in Joule for a coupling quoted in Hz (J = 2 pi j_hz)."""
    if not 0.0 < j_hz < math.inf:
        raise ValueError("j_hz must be finite and > 0")
    energy_scale = HBAR * TWO_PI * j_hz
    if energy_scale < sys.float_info.min:
        raise ArithmeticError(f"energy scale hbar * 2 pi * j_hz underflows at j_hz = {j_hz!r}")
    return energy_scale


def from_si(nu1_hz: float, nu2_hz: float, j_hz: float) -> tuple[SpinSystem, float]:
    """Normalise Hz-quoted inputs to a dimensionless system in units of J.

    Returns the system (coupling 1, omega_i = nu_i / j_hz) together with
    the energy scale hbar * J in Joule, which converts dimensionless
    beta*J products to absolute temperature. ArithmeticError where nu / j_hz
    overflows or hbar J underflows below the least normal float.
    """
    energy_scale = _energy_scale(j_hz)
    if any(math.isfinite(nu) and math.isinf(nu / j_hz) for nu in (nu1_hz, nu2_hz)):
        raise ArithmeticError(f"nu / j_hz overflows at j_hz = {j_hz!r}")
    return SpinSystem(nu1_hz / j_hz, nu2_hz / j_hz, 1.0), energy_scale

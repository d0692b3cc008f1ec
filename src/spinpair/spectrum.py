"""Single-quantum transitions: frequencies, pulse amplitudes, line shapes.

Each of the four observable lines joins an outer level (E1 or E4) to an
inner one (E2 or E3), as _LINES lists. Frequencies are |E_outer - E_inner|,
labelled by identity, never by rank, since only two statements about them
are convention-free: freq(T42) - freq(T21) = D - J and freq(T42) - freq(T31)
differs by J. A simulated spectrum takes them from thermo._gaps, which forms
T43 = (J + (D - omega_delta) - (omega_sigma - omega_delta)) / 2, T21 = (omega_sigma - (D - J)) / 2,
T42 = -(omega_sigma + (D - J)) / 2 and T31 = (omega_sigma + D + J) / 2 without cancellation.

A pulse of flip angle phi turns populations into signed line amplitudes,
-sin(phi)/2 (w r (p_i - p1) -+ sin^2(phi/2) cos^2(2theta) (p3 - p2) + w' r (p4 - p_i))
with p_i the inner level's population. The roofing factor r is 1 + sin 2theta
for inner E2 (T21, T42: the inner lines) and 1 - sin 2theta for inner E3;
(w, w') is (sin^2(phi/2), cos^2(phi/2)) for outer E4 and swapped for outer E1;
the cross term is subtracted on T43 and T21 and added on T42 and T31.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .model import DerivedParams, SpinSystem, _check_grid, _check_theta, derive
from . import thermo

# Line name -> 0-based (outer, inner) level pair; the order is the output order.
_LINES = {"T43": (3, 2), "T21": (0, 1), "T42": (3, 1), "T31": (0, 2)}
TRANSITIONS = tuple(_LINES)

DEFAULT_FLIP_ANGLE = math.radians(5.0)
DEFAULT_LINEWIDTH = 0.05  # units of J


class SpectrumLine(namedtuple("SpectrumLine", "transition frequency amplitude")):
    __slots__ = ()


def transition_frequencies(levels: thermo.EnergyLevels) -> dict[str, float]:
    e = tuple(levels)
    if len(e) != 4:
        raise ValueError(f"expected four energy levels, got {len(e)}")
    return {name: abs(e[inner] - e[outer]) for name, (outer, inner) in _LINES.items()}


def transition_amplitudes(pops, theta: float, phi: float) -> dict[str, float]:
    """Signed amplitudes of the four lines after a pulse of flip angle phi."""
    if not 0.0 < phi <= math.pi:
        raise ValueError("flip angle must lie in (0, pi]")
    p1, p2, p3, p4 = p = thermo._probs(pops, theta)
    roofs = roofing_intensities(theta)
    sp2 = math.sin(0.5 * phi) ** 2
    cp2 = math.cos(0.5 * phi) ** 2
    pre = -0.5 * math.sin(phi)
    cross = sp2 * math.cos(2.0 * theta) ** 2 * (p3 - p2)
    amplitudes = {}
    for name, (outer, inner) in _LINES.items():
        w, w_bar = (sp2, cp2) if outer == 3 else (cp2, sp2)
        r = roofs[inner - 1]
        p_i = p[inner]
        signed_cross = -cross if abs(inner - outer) == 1 else cross
        amplitudes[name] = pre * (w * r * (p_i - p1) + signed_cross + w_bar * r * (p4 - p_i))
    return amplitudes


def roofing_intensities(theta: float) -> tuple[float, float]:
    """(inner, outer) line intensities 1 + sin 2theta and 1 - sin 2theta."""
    _check_theta(theta)
    s = math.sin(2.0 * theta)
    return (1.0 + s, 1.0 - s)


def simulate_spectrum(
    system: SpinSystem, beta: float, phi: float = DEFAULT_FLIP_ANGLE
) -> list[SpectrumLine]:
    """Join thermal (or beta = inf limit) populations with the line table."""
    return _spectrum_lines(derive(system), beta, phi)


def _spectrum_lines(params: DerivedParams, beta: float, phi: float) -> list[SpectrumLine]:
    amps = transition_amplitudes(thermo._populations(params, beta), params.theta, phi)
    return [SpectrumLine(t, abs(g), amps[t]) for t, g in zip(TRANSITIONS, thermo._gaps(params))]


@np.errstate(over="ignore")
def render_lorentzian(lines, linewidth: float, frequency_grid) -> np.ndarray:
    """Sampled sum of Lorentzians, peak value the amplitude; an offset past float range adds 0."""
    if not 0.0 < linewidth < math.inf:
        raise ValueError("linewidth must be finite and > 0")
    grid = np.asarray(_check_grid(frequency_grid))
    mant, e = math.frexp(linewidth)  # widths and offsets in units of 2**e: the rescale is exact
    half_sq = 0.25 * mant * mant  # in [1/16, 1/4): neither overflows nor underflows
    intensity = np.zeros_like(grid)
    for line in lines:
        offset = np.ldexp(grid - line.frequency, -e)
        intensity += line.amplitude * half_sq / (offset**2 + half_sq)
    return intensity

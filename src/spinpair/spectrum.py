"""Single-quantum transitions: frequencies, pulse amplitudes, line shapes.

The four observable transitions connect neighbouring eigenstates; their
frequencies are reported as |E_i - E_j| and labelled by identity, never
by rank, since only two statements about them are convention-free:
freq(T42) - freq(T21) = D - J and freq(T42) - freq(T31) differs by J.

A pulse of flip angle phi turns populations into signed line amplitudes.
Each amplitude is -sin(phi)/2 times a combination of population
differences weighted by sin^2(phi/2), cos^2(phi/2) and the roofing
factors (1 +- sin 2theta) or cos^2(2theta); the inner pair of lines
carries 1 + sin 2theta, the outer pair 1 - sin 2theta.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .model import DerivedParams, SpinSystem, _check_grid, _check_theta, derive
from . import thermo

TRANSITIONS = ("T43", "T21", "T42", "T31")

DEFAULT_FLIP_ANGLE = math.radians(5.0)
DEFAULT_LINEWIDTH = 0.05  # units of J


class SpectrumLine(namedtuple("SpectrumLine", "transition frequency amplitude")):
    __slots__ = ()


def _check_flip_angle(phi: float) -> None:
    if not 0.0 < phi <= math.pi:
        raise ValueError("flip angle must lie in (0, pi]")


def transition_frequencies(levels: thermo.EnergyLevels) -> dict[str, float]:
    e1, e2, e3, e4 = levels
    return {
        "T43": abs(e3 - e4),
        "T21": abs(e1 - e2),
        "T42": abs(e2 - e4),
        "T31": abs(e1 - e3),
    }


def transition_amplitudes(pops, theta: float, phi: float) -> dict[str, float]:
    """Signed amplitudes of the four lines after a pulse of flip angle phi."""
    _check_flip_angle(phi)
    p1, p2, p3, p4 = thermo._probs(pops, theta)
    s = math.sin(2.0 * theta)
    c2 = math.cos(2.0 * theta) ** 2
    sp2 = math.sin(0.5 * phi) ** 2
    cp2 = math.cos(0.5 * phi) ** 2
    pre = -0.5 * math.sin(phi)
    return {
        "T43": pre
        * (
            sp2 * (1.0 - s) * (p3 - p1)
            - sp2 * c2 * (p3 - p2)
            + cp2 * (1.0 - s) * (p4 - p3)
        ),
        "T21": pre
        * (
            cp2 * (1.0 + s) * (p2 - p1)
            - sp2 * c2 * (p3 - p2)
            + sp2 * (1.0 + s) * (p4 - p2)
        ),
        "T42": pre
        * (
            sp2 * (1.0 + s) * (p2 - p1)
            + sp2 * c2 * (p3 - p2)
            + cp2 * (1.0 + s) * (p4 - p2)
        ),
        "T31": pre
        * (
            cp2 * (1.0 - s) * (p3 - p1)
            + sp2 * c2 * (p3 - p2)
            + sp2 * (1.0 - s) * (p4 - p3)
        ),
    }


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
    levels = thermo.energies(params, params.coupling)
    pops = thermo.populations(levels, beta)
    freqs = transition_frequencies(levels)
    amps = transition_amplitudes(pops, params.theta, phi)
    return [SpectrumLine(t, freqs[t], amps[t]) for t in TRANSITIONS]


@np.errstate(over="ignore")
def render_lorentzian(lines, linewidth: float, frequency_grid) -> np.ndarray:
    """Sampled sum of Lorentzians, peak value the amplitude; an offset past float range adds 0."""
    if not 0.0 < linewidth < math.inf:
        raise ValueError("linewidth must be finite and > 0")
    grid = np.asarray(_check_grid(frequency_grid))
    half = 0.5 * linewidth
    intensity = np.zeros_like(grid)
    for line in lines:
        intensity += line.amplitude * half**2 / ((grid - line.frequency) ** 2 + half**2)
    return intensity

"""Single-quantum transitions: frequencies, pulse amplitudes, line shapes.

Each of the four observable lines joins an outer level (E1 or E4) to an
inner one (E2 or E3), as _LINES lists. Frequencies are |E_outer - E_inner|,
labelled by identity, never by rank, since only two statements about them
are convention-free: freq(T42) - freq(T21) = D - J and freq(T42) - freq(T31)
differs by J. simulate_spectrum takes a DerivedParams, which may have omega_sigma < omega_delta
(a SpinSystem's is derive(system)), and the gaps from thermo._gaps by the thermo docstring's rule.

A pulse of flip angle phi turns populations into signed line amplitudes,
-sin(phi)/2 (-w r (p1 - p_i) -+ sin^2(phi/2) cos^2(2theta) (p3 - p2) + w' r (p4 - p_i)),
a sum over the differences p_outer - p_inner of the two lines into the inner
level i. The roofing factor r is 1 + sin 2theta for inner E2 (T21, T42: the
inner lines) and 1 - sin 2theta = cos^2(2theta) / (1 + sin 2theta) for inner E3;
(w, w') is (sin^2(phi/2), cos^2(phi/2)) for outer E4 and swapped for outer E1;
the cross term is subtracted on T43 and T21 and added on T42 and T31. sin phi is 0
at phi = math.pi, which the flip-angle domain (0, pi] reads as pi. From
parameters, cos 2theta = omega_delta / D (1 at D = 0), and each difference is
p_inner expm1(-beta gap) where |beta gap| < 1, else the plain difference of
populations a factor e or more apart, which loses at most a factor (e + 1)/(e - 1);
p3 - p2 likewise, with gap -D. So each difference keeps its digits however small its
gap, and an inversion pulse, phi = pi, leaves every amplitude 0 or -0.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .model import DerivedParams, _check_grid
from . import thermo

# Line name -> 0-based (outer, inner) level pair; the order is the output order.
_LINES = {"T43": (3, 2), "T21": (0, 1), "T42": (3, 1), "T31": (0, 2)}
TRANSITIONS = tuple(_LINES)

DEFAULT_FLIP_ANGLE = math.radians(5.0)
DEFAULT_LINEWIDTH = 0.05  # units of J


class SpectrumLine(namedtuple("SpectrumLine", "transition frequency amplitude")):
    """One line: its name in TRANSITIONS, |E_outer - E_inner| and its signed amplitude."""

    __slots__ = ()


def transition_amplitudes(pops, theta: float, phi: float) -> dict[str, float]:
    """Signed amplitudes of the four lines after a pulse of flip angle phi in (0, pi].

    The amplitude formula takes the differences of the populations given, and cos 2theta and
    sin 2theta of theta.
    """
    p1, p2, p3, p4 = thermo._probs(pops, theta)
    diffs = (p4 - p3, p1 - p2, p4 - p2, p1 - p3)
    return _amplitudes(diffs, p3 - p2, math.cos(2.0 * theta), math.sin(2.0 * theta), phi)


def _amplitudes(diffs, d32: float, c: float, s: float, phi: float) -> dict[str, float]:
    """Amplitudes from the p_outer - p_inner of _LINES, p3 - p2, cos 2theta and sin 2theta."""
    if not 0.0 < phi <= math.pi:
        raise ValueError("flip angle must lie in (0, pi]")
    d43, d21, d42, d31 = diffs
    # The roofing factors 1 + s and 1 - s; 1 - s is formed as c^2 / (1 + s) so it does not cancel.
    inner, outer = 1.0 + s, c * c / (1.0 + s)
    sp2 = math.sin(0.5 * phi) ** 2
    cp2 = math.cos(0.5 * phi) ** 2
    pre = -0.5 * (0.0 if phi == math.pi else math.sin(phi))  # sin(math.pi) is 1.2e-16
    cross = sp2 * (c * c) * d32
    # p_i - p1 and p4 - p_i are -d21, d42 for inner E2 and -d31, d43 for inner E3.
    return {
        "T43": pre * (sp2 * outer * -d31 - cross + cp2 * outer * d43),
        "T21": pre * (cp2 * inner * -d21 - cross + sp2 * inner * d42),
        "T42": pre * (sp2 * inner * -d21 + cross + cp2 * inner * d42),
        "T31": pre * (cp2 * outer * -d31 + cross + sp2 * outer * d43),
    }


def simulate_spectrum(
    params: DerivedParams, beta: float, phi: float = DEFAULT_FLIP_ANGLE
) -> list[SpectrumLine]:
    """The lines in TRANSITIONS order at the thermal (or beta = inf limit) populations of params."""
    p = thermo.populations_for_params(params, params.coupling, beta)
    gaps, d = thermo._gaps(params), params.d_coupling
    diffs = [_difference(p[o], p[i], beta * g) for (o, i), g in zip(_LINES.values(), gaps)]
    d32 = _difference(p[2], p[1], -beta * d)
    amps = _amplitudes(diffs, d32, params.omega_delta / d if d else 1.0, params.sin_2theta, phi)
    return [SpectrumLine(t, abs(g), amps[t]) for t, g in zip(TRANSITIONS, gaps)]


def _difference(p_outer: float, p_inner: float, x: float) -> float:
    """p_outer - p_inner where p_outer = p_inner exp(-x); at beta = inf x is +-inf or nan."""
    return p_inner * math.expm1(-x) if abs(x) < 1.0 else p_outer - p_inner


@np.errstate(over="ignore")
def render_lorentzian(lines, linewidth: float, frequency_grid) -> np.ndarray:
    """Sampled sum of Lorentzians, peak value the amplitude; an offset past float range adds 0.

    Widths and offsets are rescaled by the power of two of linewidth, an exact step, so the
    squared half-width stays normal and every finite linewidth > 0 peaks at the amplitude.
    """
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

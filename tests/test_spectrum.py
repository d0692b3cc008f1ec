"""Line frequencies, amplitudes and Lorentzian rendering.

The four lines written out by hand are the reference for the line table: the amplitudes are
compared by float.hex on 12,000 seeded inputs, pure states, the {E3, E4} mixture,
near-degenerate populations, theta = 0, pi/4 and phi = pi among them, and the hand-written
reference takes sin phi = 0 at phi = math.pi too. Each line frequency is the level difference
its name gives, to the levels' rounding.
"""

import math
import random
import sys

import numpy as np
import pytest

from spinpair import model, spectrum, thermo


def _params(omega_sigma, omega_delta, coupling=1.0):
    return model.derive_from_sigma_delta(omega_sigma, omega_delta, coupling)


def _amps(p, theta, phi):
    return spectrum.transition_amplitudes(p, theta, phi)


def _frequencies(params):
    """{line: frequency} in the order of simulate_spectrum's lines."""
    return {line.transition: line.frequency for line in spectrum.simulate_spectrum(params, 1.0)}


# Special-case amplitude tables for comparison against the general
# formulas: pure third level, equal mixture of the two lowest levels at
# the crossing, and pure fourth level.
def _pure3_amplitudes(theta, phi):
    s = math.sin(2 * theta)
    c2 = math.cos(2 * theta) ** 2
    sp2, cp2 = math.sin(phi / 2) ** 2, math.cos(phi / 2) ** 2
    pre = -0.5 * math.sin(phi)
    return {
        "T43": pre * (sp2 * (1 - s) - sp2 * c2 - cp2 * (1 - s)),
        "T21": 0.5 * math.sin(phi) * sp2 * c2,
        "T42": pre * sp2 * c2,
        "T31": pre * (cp2 * (1 - s) + sp2 * c2 - sp2 * (1 - s)),
    }


def _mixture34_amplitudes(theta, phi):
    s = math.sin(2 * theta)
    c2 = math.cos(2 * theta) ** 2
    sp2, cp2 = math.sin(phi / 2) ** 2, math.cos(phi / 2) ** 2
    pre = -0.25 * math.sin(phi)
    return {
        "T43": pre * (sp2 * (1 - s) - sp2 * c2),
        "T21": 0.25 * math.sin(phi) * (sp2 * c2 - sp2 * (1 + s)),
        "T42": pre * (sp2 * c2 + cp2 * (1 + s)),
        "T31": pre * (cp2 * (1 - s) + sp2 * c2),
    }


def _pure4_amplitudes(theta, phi):
    s = math.sin(2 * theta)
    sp2, cp2 = math.sin(phi / 2) ** 2, math.cos(phi / 2) ** 2
    pre = -0.5 * math.sin(phi)
    return {
        "T43": pre * cp2 * (1 - s),
        "T21": pre * sp2 * (1 + s),
        "T42": pre * cp2 * (1 + s),
        "T31": pre * sp2 * (1 - s),
    }


# The four lines written out by hand: the reference for the line table.
def _reference_frequencies(levels):
    e1, e2, e3, e4 = levels
    return {
        "T43": abs(e3 - e4),
        "T21": abs(e1 - e2),
        "T42": abs(e2 - e4),
        "T31": abs(e1 - e3),
    }


def _reference_amplitudes(pops, theta, phi):
    p1, p2, p3, p4 = (float(p) for p in pops)
    s, c = math.sin(2.0 * theta), math.cos(2.0 * theta)
    c2 = c * c  # correctly rounded, where c ** 2 calls pow
    sp2 = math.sin(0.5 * phi) ** 2
    cp2 = math.cos(0.5 * phi) ** 2
    pre = -0.5 * (0.0 if phi == math.pi else math.sin(phi))  # sin pi = 0, not sin(math.pi)
    outer = c2 / (1.0 + s)  # 1 - s without the cancellation
    return {
        "T43": pre
        * (
            sp2 * outer * (p3 - p1)
            - sp2 * c2 * (p3 - p2)
            + cp2 * outer * (p4 - p3)
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
            cp2 * outer * (p3 - p1)
            + sp2 * c2 * (p3 - p2)
            + sp2 * outer * (p4 - p3)
        ),
    }


def _hex(values):
    return {key: float.hex(value) for key, value in values.items()}


def _line_table_cases(count):
    rng = random.Random(53)
    pure = [tuple(float(i == j) for j in range(4)) for i in range(4)]
    for k in range(count):
        kind = k % 4
        if kind == 0:
            w = [rng.expovariate(1.0) for _ in range(4)]
            pops = [x / sum(w) for x in w]
        elif kind == 1:  # pure states and {E3, E4} mixtures
            a = rng.random()
            pops = rng.choice(pure + [(0.0, 0.0, 0.5, 0.5), (0.0, 0.0, a, 1.0 - a)])
        elif kind == 2:  # near-degenerate: a few ulps around 1/4
            pops = [0.25 + rng.randint(-4, 4) * 2.0**-55 for _ in range(4)]
        else:  # p2 and p3 a few ulps apart
            p2 = rng.uniform(0.0, 0.5)
            p3 = p2 + rng.randint(-3, 3) * math.ulp(p2)
            pops = [rng.uniform(0.0, 0.5), p2, p3, rng.uniform(0.0, 0.5)]
        theta = rng.choice((0.0, 0.25 * math.pi, rng.uniform(0.0, 0.25 * math.pi)))
        phi = rng.choice((math.pi, math.pi * (1.0 - rng.random())))
        if rng.random() < 0.5:
            omega_delta = rng.choice((0.0, rng.uniform(0.0, 5.0)))
            params = _params(rng.uniform(0.0, 10.0), omega_delta, rng.uniform(0.0, 3.0))
        else:
            params = _params(*(rng.choice((0.0, 1.0, rng.uniform(0.0, 1e3))) for _ in range(3)))
        yield pops, theta, phi, params


def test_line_table_matches_hand_expanded_lines():
    for pops, theta, phi, params in _line_table_cases(12000):
        amps = spectrum.transition_amplitudes(pops, theta, phi)
        assert list(amps) == list(spectrum.TRANSITIONS)
        assert _hex(amps) == _hex(_reference_amplitudes(pops, theta, phi))
        # Each line is the level difference its name gives, to the levels' rounding.
        freqs = _frequencies(params)
        assert list(freqs) == list(spectrum.TRANSITIONS)
        want = _reference_frequencies(thermo.energies(params, params.coupling))
        atol = 1e-13 * (params.omega_sigma + params.omega_delta + params.coupling)
        for name, value in want.items():
            assert math.isclose(freqs[name], value, rel_tol=1e-13, abs_tol=atol), (params, name)


def test_frequency_identities():
    rng = np.random.default_rng(51)
    for _ in range(300):
        w2 = rng.uniform(0.0, 5.0)
        w1 = w2 + rng.uniform(0.0, 5.0)
        j = rng.uniform(0.0, 5.0)
        params = model.derive(model.SpinSystem(w1, w2, j))
        freqs = _frequencies(params)
        scale = max(1.0, params.omega_sigma + params.d_coupling + j)
        assert abs(abs(freqs["T42"] - freqs["T21"]) - (params.d_coupling - j)) <= 1e-12 * scale
        assert abs(abs(freqs["T42"] - freqs["T31"]) - j) <= 1e-12 * scale


def test_frequencies_homonuclear_low_field():
    # inner lines coincide, outer lines sit 2J apart
    freqs = _frequencies(_params(4.0, 0.0))
    assert freqs["T42"] - freqs["T21"] == 0.0
    assert math.isclose(freqs["T31"] - freqs["T43"], 2.0, rel_tol=1e-14)


def test_amplitudes_silent_singlet():
    amps = _amps((0, 0, 1, 0), math.pi / 4, math.radians(5.0))
    assert all(abs(a) <= 1e-12 for a in amps.values())


def test_inversion_pulse_has_zero_amplitudes():
    # phi = math.pi reads as pi; the float just below it keeps sin phi = 1.2e-16.
    assert list(_amps((0.1, 0.2, 0.3, 0.4), 0.3, math.pi).values()) == [0.0] * 4
    assert all(_amps((0.1, 0.2, 0.3, 0.4), 0.3, math.nextafter(math.pi, 0.0)).values())


def test_amplitudes_pure4_example():
    theta, phi = 0.3, math.radians(12.0)
    amps = _amps((0, 0, 0, 1), theta, phi)
    expected = -0.5 * math.sin(phi) * math.cos(phi / 2) ** 2 * (1 + math.sin(2 * theta))
    assert math.isclose(amps["T42"], expected, rel_tol=1e-14)
    for key, value in _pure4_amplitudes(theta, phi).items():
        assert math.isclose(amps[key], value, rel_tol=1e-13, abs_tol=1e-16)


def test_amplitudes_degeneracy_point():
    # equal 3/4 mixture at theta = pi/4: the 4<->2 line dominates, the
    # 2<->1 line is suppressed by tan^2(phi/2), outer lines vanish
    phi = math.radians(5.0)
    amps = _amps((0, 0, 0.5, 0.5), math.pi / 4, phi)
    assert abs(amps["T43"]) <= 1e-12
    assert abs(amps["T31"]) <= 1e-12
    expected_t42 = -0.25 * math.sin(phi) * (math.cos(phi / 2) ** 2 * 2.0)
    assert math.isclose(amps["T42"], expected_t42, rel_tol=1e-12)
    assert math.isclose(amps["T21"], -0.5 * math.sin(phi) * math.sin(phi / 2) ** 2, rel_tol=1e-12)
    assert math.isclose(abs(amps["T21"] / amps["T42"]), math.tan(phi / 2) ** 2, rel_tol=1e-6)


@pytest.mark.parametrize(
    "pops,reduced",
    [
        ((0.0, 0.0, 1.0, 0.0), _pure3_amplitudes),
        ((0.0, 0.0, 0.5, 0.5), _mixture34_amplitudes),
        ((0.0, 0.0, 0.0, 1.0), _pure4_amplitudes),
    ],
)
def test_special_population_reductions(pops, reduced):
    thetas = np.linspace(0.0, math.pi / 4, 20)
    phis = np.linspace(math.radians(1.0), math.pi, 20)
    for theta in thetas:
        for phi in phis:
            general = _amps(pops, theta, phi)
            expected = reduced(theta, phi)
            for key in spectrum.TRANSITIONS:
                assert abs(general[key] - expected[key]) <= 1e-12


def _roofs(theta):
    """(1 + sin 2theta, 1 - sin 2theta): the T42 and T43 amplitudes of a pure E4 state at
    phi = pi/2 over their pulse factor -sin(phi) cos^2(phi / 2) / 2."""
    amps = _amps((0.0, 0.0, 0.0, 1.0), theta, math.pi / 2)
    scale = -0.5 * math.cos(math.pi / 4) ** 2
    return amps["T42"] / scale, amps["T43"] / scale


def test_roofing_intensities():
    assert _roofs(0.0) == (1.0, 1.0)
    inner, outer = _roofs(math.pi / 4)
    assert inner == pytest.approx(2.0, abs=1e-15)
    assert outer == pytest.approx(0.0, abs=1e-15)
    inner, outer = _roofs(math.pi / 6)
    assert math.isclose(inner, 1.0 + math.sin(math.pi / 3), rel_tol=1e-14)
    assert math.isclose(outer, 1.0 - math.sin(math.pi / 3), rel_tol=1e-14)


def test_roofing_ratio_limit():
    # high field, high temperature, weak pulse: the 42/43 amplitude
    # ratio approaches the (1 + sin 2t)/(1 - sin 2t) intensity law
    rng = np.random.default_rng(52)
    phi = math.radians(0.5)
    beta = 0.01
    for _ in range(40):
        theta = rng.uniform(0.05, math.pi / 4 - 0.05)
        wd = 1.0 / math.tan(2.0 * theta)
        d = math.hypot(wd, 1.0)
        params = _params(2000.0 * (d + 1.0), wd)
        pops = thermo.populations_for_params(params, 1.0, beta)
        amps = spectrum.transition_amplitudes(pops, params.theta, phi)
        ratio = abs(amps["T42"]) / abs(amps["T43"])
        target = (1.0 + params.sin_2theta) / (1.0 - params.sin_2theta)
        assert abs(ratio / target - 1.0) <= 0.01


def test_simulate_spectrum_silent_homonuclear_ground():
    system = model.SpinSystem(0.5, 0.5, 1.0)
    lines = spectrum.simulate_spectrum(model.derive(system), math.inf)
    assert [line.transition for line in lines] == list(spectrum.TRANSITIONS)
    assert all(abs(line.amplitude) <= 1e-12 for line in lines)


def test_simulate_spectrum_heteronuclear_ground():
    # theta = 30 deg, below the crossing: visible 3<->1 and 4<->3 lines
    wd = 1.0 / math.tan(math.radians(60.0))
    ws = 1.0
    w1, w2 = 0.5 * (ws + wd), 0.5 * (ws - wd)
    system = model.SpinSystem(w1, w2, 1.0)
    lines = spectrum.simulate_spectrum(model.derive(system), math.inf)
    lines = {line.transition: line for line in lines}
    assert abs(lines["T31"].amplitude) > 1e-3
    assert abs(lines["T43"].amplitude) > 1e-3
    assert abs(lines["T21"].amplitude) < 1e-4
    assert abs(lines["T42"].amplitude) < 1e-4


def test_simulate_spectrum_at_zero_splitting():
    # J = omega_delta = 0 gives D = 0, where cos 2theta = omega_delta / D is taken as 1:
    # the outer roofing factor is 1, as the population route's cos(2 * 0) gives.
    params = model.derive(model.SpinSystem(1.5, 1.5, 0.0))
    pops = thermo.populations_for_params(params, 0.0, 0.7)
    want = spectrum.transition_amplitudes(pops, 0.0, 0.5 * math.pi)
    for line in spectrum.simulate_spectrum(params, 0.7, 0.5 * math.pi):
        assert line.amplitude < -0.1
        assert math.isclose(line.amplitude, want[line.transition], rel_tol=1e-14)


def test_simulate_spectrum_saturated():
    lines = spectrum.simulate_spectrum(model.derive(model.SpinSystem(1.3, 0.4, 1.0)), 0.0)
    assert all(line.amplitude == 0.0 for line in lines)


def test_render_single_line_peak():
    line = spectrum.SpectrumLine("T42", 2.0, 0.7)
    grid = np.linspace(1.0, 3.0, 201)  # grid center exactly at 2.0
    curve = spectrum.render_lorentzian([line], 0.1, grid)
    assert curve[100] == pytest.approx(0.7, abs=1e-14)
    assert np.argmax(curve) == 100


def test_render_empty_and_linearity():
    grid = np.linspace(0.0, 1.0, 11)
    assert np.array_equal(spectrum.render_lorentzian([], 0.05, grid), np.zeros(11))
    line = spectrum.SpectrumLine("T21", 0.5, 0.2)
    one = spectrum.render_lorentzian([line], 0.05, grid)
    two = spectrum.render_lorentzian([line, line], 0.05, grid)
    assert np.allclose(two, 2.0 * one, rtol=0.0, atol=1e-15)


def test_render_extreme_linewidths():
    # Where half**2 would underflow (a 0 / 0 peak) or overflow, each Lorentzian
    # still peaks at its amplitude and a wide one is flat.
    lines = [spectrum.SpectrumLine("T21", 2.0, 0.7), spectrum.SpectrumLine("T43", 0.0, -0.2)]
    grid = [0.0, 1.0, 2.0, 3.0]
    for linewidth in (5e-324, 1e-200, 2e-154):
        curve = spectrum.render_lorentzian(lines, linewidth, grid)
        assert curve.tolist() == pytest.approx([-0.2, 0.0, 0.7, 0.0], rel=1e-15, abs=1e-300)
    for linewidth in (3e154, 1e300, sys.float_info.max):
        curve = spectrum.render_lorentzian(lines, linewidth, grid)
        assert curve.tolist() == pytest.approx([0.5] * 4, rel=1e-15)


@pytest.mark.parametrize(
    "omega_sigma, omega_delta, want",
    [
        # The frequencies of the CLI reproducers, to 60 digits at J = 1.
        (100000000.01, 99999999.99, {"T43": 0.489999997136, "T21": 0.510000002864}),
        (0.0, 1e-6, {"T21": 2.49999999999937e-13, "T42": 2.49999999999937e-13}),
        (1.7976931348623157e308, 1.7976931348623157e308, {"T43": 0.5, "T21": 0.5}),
    ],
)
def test_line_frequencies_keep_the_small_gaps(omega_sigma, omega_delta, want):
    got = _frequencies(_params(omega_sigma, omega_delta))
    for name, value in want.items():
        assert math.isclose(got[name], value, rel_tol=1e-12), (name, got[name], value)

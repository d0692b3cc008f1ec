import math

import numpy as np
import pytest

from spinpair import critical, entangle, model, thermo


def test_crossing_examples():
    assert critical.crossing_coupling(1.7, 1.7) == pytest.approx(1.7, rel=1e-15)
    assert critical.crossing_coupling(1.0, 0.0) is None
    assert critical.crossing_coupling(0.0, 1.0) is None
    assert critical.crossing_coupling(0.0, 0.0) is None
    assert critical.crossing_coupling(4.0, 1.0) == pytest.approx(1.6, rel=1e-15)
    assert critical.crossing_coupling(1.0, 0.4) == pytest.approx(4.0 / 7.0, rel=1e-12)
    assert critical.crossing_coupling(1.0, -1.0) is None  # positronium
    # Opposite signs: 2 w1 w2 / (w1 + w2) = 8/3 > 0, but omega_sigma = -3 < 0.
    assert critical.crossing_coupling(1.0, -4.0) is None
    assert critical.crossing_coupling(-4.0, 1.0) is None
    # The squared form's root exceeds float range, but omega_sigma < 0: no crossing.
    assert critical.crossing_coupling(1e300, -1.0000000001e300) is None


@pytest.mark.parametrize(
    "omega1, omega2, want",
    [(1e300, 1e10, 2e10), (1e10, 1e300, 2e10), (1e200, 1e200, 1e200),
     (1e308, 1e308, 1e308), (1e-200, 1e-200, 1e-200), (1e300, 1e-20, 2e-20)],
)
def test_crossing_coupling_stays_in_float_range(omega1, omega2, want):
    # The intermediates of 2 w1 w2 / (w1 + w2) leave float range here; the result does not.
    assert critical.crossing_coupling(omega1, omega2) == pytest.approx(want, rel=1e-15)


def test_crossing_coupling_at_float_max_is_finite():
    # 2 r big / (1 + r) with r = small / big <= 1 is at most big.
    big = 1.7976931348623157e308
    for omega2 in (big, math.nextafter(big, 0.0), 5e-324):
        for pair in ((big, omega2), (omega2, big)):
            j_cross = critical.crossing_coupling(*pair)
            assert math.isfinite(j_cross) and 0.0 < j_cross <= max(pair)


def test_field_ratios_exact():
    assert critical.FIELD_RATIOS == {"hh": 1.0, "hc": 2.5, "hp": 1.75}


def test_critical_omega_sigma_roots():
    assert abs(critical.critical_omega_sigma(0.0, 1.0) - 2.0) <= 1e-12
    root1 = critical.critical_omega_sigma(1.0, 1.0)
    assert abs(root1 - (1.0 + math.sqrt(2.0))) <= 1e-12
    assert 2.3 < root1 < 2.5
    root25 = critical.critical_omega_sigma(2.5, 1.0)
    assert abs(root25 - 0.5 * (2.0 + math.sqrt(29.0))) <= 1e-12
    assert 3.6 < root25 < 3.8


def test_critical_omega_sigma_solves_quadratic():
    rng = np.random.default_rng(41)
    for _ in range(200):
        wd, j = rng.uniform(0.0, 5.0), rng.uniform(1e-3, 5.0)
        ws = critical.critical_omega_sigma(wd, j)
        assert abs(ws * ws - 2.0 * j * ws - wd * wd) <= 1e-10 * max(1.0, ws * ws)


def test_crossing_matches_level_degeneracy():
    rng = np.random.default_rng(42)
    for _ in range(200):
        w1 = rng.uniform(0.1, 5.0)
        w2 = rng.uniform(0.05, 1.0) * w1
        j_cross = critical.crossing_coupling(w1, w2)
        assert j_cross is not None
        levels = thermo.energies(
            model.derive(model.SpinSystem(w1, w2, j_cross)), j_cross
        )
        assert abs(levels.e3 - levels.e4) <= 1e-12 * max(abs(levels.e3), 1.0)


def test_harmonic_and_sigma_delta_forms_agree():
    rng = np.random.default_rng(43)
    for _ in range(200):
        w1, w2 = rng.uniform(0.01, 5.0, size=2)
        harmonic = 2.0 * w1 * w2 / (w1 + w2)
        ws, wd = w1 + w2, w1 - w2
        other = (ws * ws - wd * wd) / (2.0 * ws)
        assert abs(harmonic - other) <= 1e-12 * max(1.0, harmonic)


def test_zero_temperature_discontinuity_homonuclear():
    ws_crit = critical.critical_omega_sigma(0.0, 1.0)
    eps = 1e-6

    def c_at(ws):
        params = model.derive_from_sigma_delta(ws, 0.0, 1.0)
        return entangle.concurrence_for_params(params, 1.0, math.inf)

    below, at, above = c_at(ws_crit - eps), c_at(ws_crit), c_at(ws_crit + eps)
    assert below == 1.0
    assert at == 0.5
    assert above == 0.0
    assert below - above >= 0.4


def test_zero_temperature_discontinuity_heteronuclear():
    wd = 1.0
    params_template = model.derive_from_sigma_delta(0.0, wd, 1.0)
    s = params_template.sin_2theta
    ws_crit = critical.critical_omega_sigma(wd, 1.0)
    eps = 1e-6

    def c_at(ws):
        params = model.derive_from_sigma_delta(ws, wd, 1.0)
        return entangle.concurrence_for_params(params, 1.0, math.inf)

    assert math.isclose(c_at(ws_crit - eps), s, rel_tol=1e-12)
    assert math.isclose(c_at(ws_crit), 0.5 * s, rel_tol=1e-12)
    assert c_at(ws_crit + eps) == 0.0


def test_ground_state_classification(monkeypatch):
    monkeypatch.setattr(thermo, "energies", None)  # decided on the gaps, it forms no level
    j = 1.0
    ws_crit = critical.critical_omega_sigma(0.0, j)

    def classify(ws):
        w = 0.5 * ws
        return critical.ground_state(model.SpinSystem(w, w, j))

    below = classify(ws_crit - 0.5)
    assert below.index == 3 and below.degenerate_pair is None
    at = classify(ws_crit)
    assert at.degenerate_pair == (3, 4)
    above = classify(ws_crit + 0.5)
    assert above.index == 4 and above.degenerate_pair is None
    # omega_sigma + J/2 leaves float range; E3 = -7.7e307 is still the lowest level.
    near_max = critical.ground_state(model.SpinSystem(1e308, 0.7e308, 1e308))
    assert near_max.index == 3 and near_max.degenerate_pair is None

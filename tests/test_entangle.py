"""Concurrence forms, sweeps and the threshold temperature.

Sweep rows equal, bit for bit, the one-point route and a scalar copy of the ratio form at finite
beta, and the limit populations at beta = inf, on grids that reach each branch of the kernel, the
E3/E4 crossing included. The threshold solves down to the smallest s whose 1 / s is finite, in a
few gap evaluations.
"""

import math
import sys

import numpy as np
import pytest

from spinpair import entangle, model, thermo


def _params(omega_sigma, omega_delta, coupling=1.0):
    return model.derive_from_sigma_delta(omega_sigma, omega_delta, coupling)


def _thermal_pops(params, coupling, beta):
    return thermo.populations(thermo.energies(params, coupling), beta)


def test_population_form_examples():
    assert entangle.concurrence_from_populations((0, 0, 1, 0), math.pi / 4) == 1.0
    c = entangle.concurrence_from_populations((0, 0, 1, 0), math.pi / 6)
    assert math.isclose(c, math.sin(math.radians(60.0)), rel_tol=1e-14)
    assert entangle.concurrence_from_populations((0, 0, 0.5, 0.5), math.pi / 4) == 0.5
    assert entangle.concurrence_from_populations((0.25, 0.25, 0.25, 0.25), 0.7) == 0.0


def test_thermal_form_examples():
    # homonuclear at omega = J, beta J = 2: (e^2 - 3)/(2 cosh 2 + e^2 + 1)
    expected = (math.exp(2.0) - 3.0) / (2.0 * math.cosh(2.0) + math.exp(2.0) + 1.0)
    c = entangle.concurrence_for_params(_params(2.0, 0.0), 1.0, 2.0)
    assert math.isclose(c, expected, rel_tol=1e-12)
    assert entangle.concurrence_for_params(_params(3.0, 1.5), 1.0, 0.0) == 0.0


def test_thermal_zero_temperature_limits():
    # homonuclear below the crossing: maximally entangled singlet ground state
    assert entangle.concurrence_for_params(_params(1.0, 0.0), 1.0, math.inf) == 1.0
    system = model.SpinSystem(0.4, 0.4, 1.0)
    assert entangle.concurrence_thermal(system, math.inf) == 1.0


def test_uncoupled_pair_is_unentangled():
    # D = 0 (J = 0, omega_delta = 0): at omega_sigma = 0 all four levels are
    # degenerate, above it |bb> alone is lowest. Both give C = +0.0 at every
    # beta, and no step may warn (warnings are errors in this suite). So does
    # J = -0.0, which derive turns into theta = +0.0.
    for omega_sigma, omega_delta, coupling in ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.5, 1.0, -0.0)):
        params = _params(omega_sigma, omega_delta, coupling)
        for beta in (0.0, 1.0, math.inf):
            c = entangle.concurrence_for_params(params, coupling, beta)
            assert c.hex() == "0x0.0p+0"


def test_thermal_equals_population_route():
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(10_000):
        params = _params(rng.uniform(0, 5), rng.uniform(0, 5))
        beta = 1.0 / rng.uniform(0.05, 2.0)
        pops = _thermal_pops(params, 1.0, beta)
        via_pops = entangle.concurrence_from_populations(pops, params.theta)
        via_ratio = entangle.concurrence_for_params(params, 1.0, beta)
        worst = max(worst, abs(via_pops - via_ratio))
    assert worst <= 1e-12


def test_homonuclear_form():
    rng = np.random.default_rng(22)
    for _ in range(500):
        omega = rng.uniform(0.0, 5.0)
        beta = rng.uniform(0.0, 40.0)
        c_special = entangle.concurrence_homonuclear(omega, 1.0, beta)
        c_general = entangle.concurrence_for_params(_params(2.0 * omega, 0.0), 1.0, beta)
        assert abs(c_special - c_general) <= 1e-12


def test_homonuclear_matches_paper_closed_form():
    rng = np.random.default_rng(26)
    for _ in range(500):
        omega, beta = rng.uniform(0.0, 5.0), rng.uniform(0.0, 40.0)
        e = math.exp(beta)
        paper = max((e - 3.0) / (2.0 * math.cosh(beta * omega) + e + 1.0), 0.0)
        assert abs(entangle.concurrence_homonuclear(omega, 1.0, beta) - paper) <= 1e-12


def test_homonuclear_zero_boundary():
    # concurrence turns on exactly at beta J = ln 3
    assert entangle.concurrence_homonuclear(1.0, 1.0, math.log(3.0) * (1.0 - 1e-9)) == 0.0
    assert abs(entangle.concurrence_homonuclear(1.0, 1.0, math.log(3.0))) <= 1e-15
    assert entangle.concurrence_homonuclear(1.0, 1.0, math.log(3.0) * (1.0 + 1e-6)) > 0.0


def test_homonuclear_strong_coupling_limit():
    assert entangle.concurrence_homonuclear(0.0, 1.0, 1e4) == pytest.approx(1.0, abs=1e-12)
    assert entangle.concurrence_homonuclear(0.0, 1.0, math.inf) == 1.0


def test_concurrence_bounds():
    rng = np.random.default_rng(23)
    for _ in range(2000):
        params = _params(rng.uniform(0, 8), rng.uniform(0, 8), rng.uniform(0, 3))
        j = rng.uniform(0.0, 3.0)
        params = _params(params.omega_sigma, params.omega_delta, j)
        beta = rng.choice([0.0, rng.uniform(0.0, 100.0), math.inf])
        c = entangle.concurrence_for_params(params, j, float(beta))
        assert 0.0 <= c <= 1.0


def test_threshold_homonuclear():
    tau = entangle.threshold_tau(0.0)
    assert math.isclose(tau, 1.0 / math.log(3.0), rel_tol=1e-15)
    # At s = 1 the root at unit splitting is beta* J = 1 / tau_t = ln 3.
    beta_hat = entangle.threshold_beta(1.0)
    assert math.isclose(beta_hat, math.log(3.0), rel_tol=1e-15)
    assert abs(entangle.entanglement_gap(beta_hat, 1.0)) <= 1e-12
    assert abs(entangle.entanglement_gap(1.0 / tau, 1.0)) <= 1e-12


def test_threshold_heteronuclear():
    tau = entangle.threshold_tau(1.0)
    assert abs(tau - 0.936) <= 1e-3
    assert math.isclose(tau, 0.9363014204472, rel_tol=1e-9)
    # concurrence flips sign across the threshold
    params = _params(0.0, 1.0)
    assert entangle.concurrence_for_params(params, 1.0, 1.0 / (tau * (1 - 1e-6))) > 0.0
    assert entangle.concurrence_for_params(params, 1.0, 1.0 / (tau * (1 + 1e-6))) == 0.0


def test_threshold_empty_without_coupling():
    assert entangle.threshold_tau(1.0, 0.0) is None
    assert entangle.threshold_tau(0.0, 0.0) is None
    assert entangle.threshold_temperature(model.SpinSystem(2.0, 1.0, 0.0)) is None


def test_threshold_ignores_omega_sigma():
    taus = {
        entangle.threshold_temperature(model.SpinSystem(2.0, 1.0, 1.0)),
        entangle.threshold_temperature(model.SpinSystem(9.0, 8.0, 1.0)),
        entangle.threshold_temperature(model.SpinSystem(1.0, 0.0, 1.0)),
    }
    base = taus.pop()
    assert all(abs(t - base) <= 1e-9 for t in taus)


def test_gap_is_monotone_with_unit_start():
    rng = np.random.default_rng(24)
    for _ in range(100):
        wd, j = rng.uniform(0.0, 5.0), rng.uniform(1e-3, 5.0)
        s = _params(0.0, wd, j).sin_2theta
        assert abs(entangle.entanglement_gap(1e-12, s) + 1.0) <= 1e-9
        beta_hat = entangle.threshold_beta(s)
        betas = np.linspace(1e-3, 2.0 * beta_hat, 50)
        gaps = [entangle.entanglement_gap(b, s) for b in betas]
        assert all(a < b for a, b in zip(gaps, gaps[1:]))
        assert abs(entangle.entanglement_gap(beta_hat, s)) <= 1e-12 < gaps[-1]
    # A root exists for every s in (0, 1], down to the smallest s whose start
    # 2 asinh(1 / s) is finite.
    for s in (1.0, 0.5, 1e-3, 1e-100, 1e-300, 1.11254e-308, 6e-309, _SMALLEST_S):
        beta_hat = entangle.threshold_beta(s)
        assert 0.0 < beta_hat < math.inf
        assert abs(entangle.entanglement_gap(beta_hat, s)) <= 1e-12


# The smallest s whose 1 / s is finite. s is subnormal, so its reciprocals are
# sparse there: 1 / s lies 7 ulp below float max.
_SMALLEST_S = 5.56268464626801e-309


def test_threshold_solves_down_to_the_smallest_finite_reciprocal():
    assert 1.0 / _SMALLEST_S < math.inf == 1.0 / math.nextafter(_SMALLEST_S, 0.0)
    # Every subnormal s from there up: sinh and cosh at the start are finite.
    s = _SMALLEST_S
    for _ in range(3000):
        assert 0.0 < entangle.threshold_beta(s) < math.inf
        s = math.nextafter(s, 1.0)


def test_threshold_tau_keeps_the_last_bit_of_a_subnormal_angle():
    # theta = atan2(J, 1) / 2 is subnormal, and halving it drops J's last bit:
    # sin(2 theta) would give s = 5.562684646268003e-309, whose 1 / s overflows.
    assert _params(0.0, 1.0, _SMALLEST_S).sin_2theta == _SMALLEST_S
    tau_t = entangle.threshold_tau(1.0, _SMALLEST_S)
    assert tau_t == 1.0 / (entangle.threshold_beta(_SMALLEST_S) * _SMALLEST_S)
    assert math.isclose(tau_t, 1.265133156441949e305, rel_tol=1e-15)
    # From the smallest normal angle up, sin(2 theta) is kept bit for bit.
    for coupling in (2.0 * sys.float_info.min, 1e-300, 0.5, 1.0):
        params = _params(0.0, 1.0, coupling)
        assert params.sin_2theta.hex() == math.sin(2.0 * params.theta).hex()


def test_threshold_takes_few_gap_evaluations(monkeypatch):
    # Newton from the start 2 asinh(1 / s): about 5 gap evaluations
    # per root at bench-like s, and 1 below s = 1e-17, where the start is the root.
    calls = []
    gap = entangle.entanglement_gap

    def counted(*args):
        calls.append(args)
        return gap(*args)

    monkeypatch.setattr(entangle, "entanglement_gap", counted)
    rng = np.random.default_rng(26)
    pairs = [(0.0, 1.0), (0.0, 1e-300), (1e300, 1.0), (1e307, 1e2), (1.0, 1e-300),
             (1.0, 1.2e-308), (1.0, 1.11254e-308), (678176.1171011522, 7.544959748128799e-303),
             (0.0, 1.7e308), (1e308, 2.0)]
    for _ in range(250):
        coupling = math.exp(rng.uniform(math.log(1e-300), math.log(1e2)))
        ratio = math.exp(rng.uniform(math.log(1e-3), math.log(1e300)))
        pairs.append((ratio * coupling, coupling))
    counts = []
    for omega_delta, coupling in pairs:
        calls.clear()
        assert entangle.threshold_tau(omega_delta, coupling) > 0.0
        counts.append(len(calls))
    assert sum(counts) / len(counts) <= 4.0
    assert max(counts) <= 8


def test_levels_past_float_range_are_halved():
    # omega_sigma + J/2 overflows, but the levels are halved term by term.
    system = model.SpinSystem(1e308, 0.7e308, 1e308)
    assert entangle.concurrence_thermal(system, math.inf) == model.derive(system).sin_2theta


def test_threshold_kelvin_values():
    h = model.HBAR * 2.0 * math.pi
    ln3 = math.log(3.0)
    for j_hz in (7.0, 150.0, 3096.0, 14500.0, 18500.0, 1.4e9):
        expected = h * j_hz / (model.K_BOLTZMANN * ln3)
        assert math.isclose(entangle.threshold_kelvin(j_hz), expected, rel_tol=1e-12)
    # Above the energy scale's underflow the answer is a positive temperature.
    assert entangle.threshold_kelvin(1e-270) > 0.0


def test_temperature_sweep_homonuclear():
    grid = np.linspace(0.01, 1.2, 120)
    rows = list(entangle.sweep("temperature", grid, omega_sigma=0.0, omega_delta=0.0))
    assert len(rows) == 120
    values = [c for _, c in rows]
    assert all(b <= a for a, b in zip(values, values[1:]))
    tau_t = 1.0 / math.log(3.0)
    for tau, c in rows:
        if tau > tau_t:
            assert c == 0.0
        else:
            assert c > 0.0


def test_field_sweep_drop_location():
    # at tau = 0.01 the concurrence falls logistic-like, steepest at the
    # zero-temperature critical field
    grid = np.linspace(1.0, 3.0, 81)
    rows = list(entangle.sweep("field", grid, omega_delta=0.0, tau=0.01))
    values = [c for _, c in rows]
    drops = [a - b for a, b in zip(values, values[1:])]
    left = rows[int(np.argmax(drops))][0]
    right = rows[int(np.argmax(drops)) + 1][0]
    assert left <= 2.0 <= right


def test_sweep_single_point_and_zero_temperature():
    rows = list(entangle.sweep("temperature", [0.5], omega_sigma=2.0, omega_delta=0.0))
    assert len(rows) == 1
    assert rows[0][0] == 0.5
    rows = entangle.sweep("field", [1.0, 2.0, 3.0], omega_delta=0.0, tau=0.0)
    assert [c for _, c in rows] == [1.0, 0.5, 0.0]


def _pointwise(omega_sigma, omega_delta, beta):
    params = model.derive_from_sigma_delta(omega_sigma, omega_delta, 1.0)
    if beta == math.inf:
        # concurrence_for_params is the kernel itself: at beta = inf compare
        # with the independent route through the limit populations.
        pops = _thermal_pops(params, 1.0, math.inf)
        return entangle.concurrence_from_populations(pops, params.theta)
    return entangle.concurrence_for_params(params, 1.0, beta)


def test_sweep_rows_equal_pointwise_route():
    rng = np.random.default_rng(25)
    for _ in range(20):
        ws, wd = rng.uniform(0.0, 6.0), rng.uniform(0.0, 4.0)
        taus = np.concatenate(([0.0], np.sort(rng.uniform(1e-3, 3.0, 60))))
        rows = entangle.sweep("temperature", taus, omega_sigma=ws, omega_delta=wd)
        want = [(t, _pointwise(ws, wd, math.inf if t == 0.0 else 1.0 / t)) for t in taus]
        assert [(x, c.hex()) for x, c in rows] == [(x, c.hex()) for x, c in want]
        fields = np.sort(rng.uniform(0.0, 8.0, 60))
        for tau in (0.0, rng.uniform(1e-3, 3.0)):
            rows = entangle.sweep("field", fields, omega_delta=wd, tau=tau)
            beta = math.inf if tau == 0.0 else 1.0 / tau
            want = [(x, _pointwise(x, wd, beta)) for x in fields]
            assert [(x, c.hex()) for x, c in rows] == [(x, c.hex()) for x, c in want]


def _ratio_form_reference(params, beta):
    """The ratio form one point at a time, in the kernel's order of operations.

    The weights relative to E3 are exp(-beta (T31, D, 0, T43)), with T43 from
    thermo._gaps and T31 = T43 + omega_sigma.
    """
    t43 = thermo._gaps(params)[0]
    d, coupling = params.d_coupling, params.coupling
    e_d = math.exp(-beta * d)
    num = params.sin_2theta * (1.0 - e_d) - 2.0 * math.exp(-beta * (0.5 * d + 0.5 * coupling))
    a = -beta * t43
    if a > thermo._LOG_FLOAT_MAX:
        return math.exp(math.log(num) - a) if num > 0.0 else 0.0
    den = math.exp(a) + math.exp(a - beta * params.omega_sigma) + 1.0 + e_d
    value = num / den
    return value if value > 0.0 else 0.0


# Each grid reaches a branch of the streaming kernel: the numerator <= 0 exit
# (tau past the threshold), the log-space tail (a > log float max), a
# subnormal C (the tail at omega_sigma in [16.7, 17.3], tau = 0.01), beta = inf
# on both axes and a one-point grid. The two dense grids make a change in the
# order of the kernel's operations show in the last bit of some row. At tau = 0
# the field grids reach the E3/E4 crossing omega_sigma = D + J (2.25 at
# omega_delta = 0.75, 2 at omega_delta = 0) exactly, within DEGENERACY_RTOL of
# it, where the two levels count as degenerate, and 4 DEGENERACY_RTOL away.
_EPS = thermo.DEGENERACY_RTOL
_NEAR_CROSSING = [2.25 * (1.0 + k * _EPS) for k in (-4, -1, -0.5, 0, 0.5, 1, 4)]
KERNEL_SWEEPS = [
    ("temperature", np.linspace(0.0, 1.0, 1001), {"omega_sigma": 1.5, "omega_delta": 0.7}),
    ("field", np.linspace(0.0, 8.0, 2001), {"omega_delta": 0.7, "tau": 0.3}),
    ("temperature", [0.0, 0.3, 0.9, 0.95, 3.0], {"omega_sigma": 0.0, "omega_delta": 0.0}),
    ("temperature", [0.0, 0.01, 0.0105, 0.5], {"omega_sigma": 16.5, "omega_delta": 0.0}),
    ("temperature", [0.5], {"omega_sigma": 2.0, "omega_delta": 1.0}),
    ("field", np.linspace(0.0, 1e4, 401), {"omega_delta": 0.0, "tau": 0.01}),
    ("field", np.linspace(16.7, 17.3, 201), {"omega_delta": 1.0, "tau": 0.01}),
    ("field", [0.0, 1.0, 2.0, 5.0], {"omega_delta": 1.0, "tau": 2.0}),
    ("field", [3.0], {"omega_delta": 0.5, "tau": 0.3}),
    ("field", [0.0, 2.0, *_NEAR_CROSSING, 2.5, 1e300], {"omega_delta": 0.75, "tau": 0.0}),
    ("field", np.linspace(0.0, 4.0, 401), {"omega_delta": 0.0, "tau": 0.0}),
    ("field", [2.25], {"omega_delta": 0.75, "tau": 0.0}),
]


def test_sweep_kernel_branches_equal_pointwise_route():
    seen = set()
    for axis, grid, kwargs in KERNEL_SWEEPS:
        rows = list(entangle.sweep(axis, grid, **kwargs))
        assert [x for x, _ in rows] == list(map(float, grid))
        for x, c in rows:
            ws = x if axis == "field" else kwargs["omega_sigma"]
            tau = kwargs["tau"] if axis == "field" else x
            beta = math.inf if tau == 0.0 else 1.0 / tau
            params = _params(ws, kwargs["omega_delta"])
            assert c.hex() == _pointwise(ws, kwargs["omega_delta"], beta).hex()
            d, s = params.d_coupling, params.sin_2theta
            if beta == math.inf:
                seen.add({s: "sin 2theta", 0.5 * s: "half sin 2theta", 0.0: "zero"}[c])
                continue
            assert c.hex() == entangle.concurrence_for_params(params, 1.0, beta).hex()
            assert c.hex() == _ratio_form_reference(params, beta).hex()
            if s * (1.0 - math.exp(-beta * d)) <= 2.0 * math.exp(-0.5 * beta * (d + 1.0)):
                seen.add("numerator <= 0")
            if -0.5 * beta * (d + 1.0 - ws) > thermo._LOG_FLOAT_MAX:
                seen.add("log-space tail")
            if 0.0 < c < sys.float_info.min:
                seen.add("subnormal")
        if len(grid) == 1:
            seen.add("one point")
    assert seen == {
        "numerator <= 0", "log-space tail", "subnormal", "one point",
        "sin 2theta", "half sin 2theta", "zero",
    }


def test_huge_coupling_at_tiny_beta_is_not_nan_or_wrong():
    # beta = 1/(tau J) is subnormal but not 0, so the sweep row is a number:
    # beta D = 0.22 keeps C's numerator negative, and C = 0.
    assert list(entangle.sweep(
        "temperature", [4.56], omega_sigma=1.0, omega_delta=0.5, coupling=1e308
    )) == [(4.56, 0.0)]
    # D + J overflows: -beta (D + J) / 2 is formed as -beta (D/2 + J/2), so the
    # numerator s (1 - e^-1) - 2 e^-1 stays negative.
    params = model.derive_from_sigma_delta(1.0, 0.5, 1e308)
    assert entangle.concurrence_for_params(params, 1e308, 1e-308) == 0.0
    # At beta = 0, 0 (D + J) is 0, not 0 inf.
    assert entangle.concurrence_homonuclear(0.0, 1e308, 0.0) == 0.0

import math

import numpy as np
import pytest

from spinpair import entangle, model, thermo


def test_derive_homonuclear_angle_is_exact():
    system = model.SpinSystem(2.0, 2.0, 1.0)
    params = model.derive(system)
    assert params.omega_delta == 0.0
    assert params.omega_sigma == 4.0
    assert params.d_coupling == 1.0
    assert params.theta == math.pi / 4


def test_derive_pythagorean_triple():
    params = model.derive(model.SpinSystem(3.0, 0.0, 4.0))
    assert params.d_coupling == 5.0
    assert params.coupling == 4.0


def test_derive_heteronuclear_example():
    params = model.derive(model.SpinSystem(4.0, 1.0, 1.0))
    assert params.omega_delta == 3.0
    assert params.omega_sigma == 5.0
    assert math.isclose(params.d_coupling, math.sqrt(10.0), rel_tol=1e-15)
    assert math.isclose(params.theta, 0.5 * math.atan(1.0 / 3.0), rel_tol=1e-15)


def test_degenerate_system_has_zero_angle():
    params = model.derive(model.SpinSystem(0.0, 0.0, 0.0))
    assert params.theta == 0.0
    assert params.sin_2theta == 0.0


def test_swap_is_recorded():
    system = model.SpinSystem(1.0, 3.0, 0.5)
    assert (system.omega1, system.omega2) == (3.0, 1.0)
    assert system.swapped


def test_invalid_inputs_raise():
    with pytest.raises(ValueError):
        model.SpinSystem(1.0, 0.0, -1.0)
    with pytest.raises(ValueError):
        model.SpinSystem(1.0, -0.5, 1.0)
    with pytest.raises(ValueError):
        model.SpinSystem(math.nan, 1.0, 1.0)


def test_spin_system_takes_no_unit_or_swap_setting():
    # Frequencies are in one convention only, and swapped records what
    # the constructor did; neither is a caller's choice.
    with pytest.raises(TypeError):
        model.SpinSystem(2.0, 1.0, 1.0, unit_mode="si")
    with pytest.raises(TypeError):
        model.SpinSystem(2.0, 1.0, 1.0, swapped=True)
    assert not model.SpinSystem(2.0, 1.0, 1.0).swapped


def test_antiparallel_is_derived():
    # omega2 == -omega1 < 0 after the usual swap marks the antiparallel pair
    system = model.SpinSystem(-1.0, 1.0, 1.0)
    assert (system.omega1, system.omega2) == (1.0, -1.0)
    assert system.swapped and system.antiparallel
    assert model.derive(system).omega_sigma == 0.0
    with pytest.raises(ValueError):
        model.SpinSystem(1.0, -0.5, 1.0)
    with pytest.raises(TypeError):
        model.SpinSystem(-1.0, 1.0, 1.0, antiparallel=True)
    assert not model.SpinSystem(2.0, 1.0, 1.0).antiparallel


def test_derive_rejects_non_finite_coupling():
    for coupling in (math.inf, math.nan):
        with pytest.raises(ValueError):
            model.derive_from_sigma_delta(1.0, 1.0, coupling)
        with pytest.raises(ValueError):
            model.SpinSystem(1.0, 0.0, coupling)


# The public functions that take (params, coupling), at beta = 1 where they take one.
_PARAMS_AND_COUPLING = {
    "energies": thermo.energies,
    "partition_closed": lambda p, j: thermo.partition_closed(p, j, 1.0),
    "concurrence_for_params": lambda p, j: entangle.concurrence_for_params(p, j, 1.0),
}


@pytest.mark.parametrize("name", list(_PARAMS_AND_COUPLING))
def test_a_second_coupling_must_match_the_params(name):
    # D and theta of these params come from J = 1: a J of 2 beside them
    # would mix two systems, e.g. C = 0.1007 where J = 2 alone gives 0.4105.
    call = _PARAMS_AND_COUPLING[name]
    params = model.derive_from_sigma_delta(1.0, 0.5, 1.0)
    with pytest.raises(ValueError, match="is not the J"):
        call(params, 2.0)
    call(params, 1.0)


def test_derive_scale_covariance():
    rng = np.random.default_rng(11)
    for _ in range(300):
        w1, w2 = sorted(rng.uniform(0.0, 5.0, size=2))[::-1]
        j = rng.uniform(0.0, 5.0)
        c = rng.uniform(1e-3, 1e3)
        base = model.derive(model.SpinSystem(w1, w2, j))
        scaled = model.derive(model.SpinSystem(c * w1, c * w2, c * j))
        assert abs(scaled.theta - base.theta) <= 1e-12
        assert math.isclose(scaled.omega_sigma, c * base.omega_sigma, rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(scaled.omega_delta, c * base.omega_delta, rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(scaled.d_coupling, c * base.d_coupling, rel_tol=1e-12, abs_tol=1e-12)


def test_derived_trig_identities():
    rng = np.random.default_rng(12)
    eps = np.finfo(float).eps
    for _ in range(300):
        wd, j = rng.uniform(0.0, 10.0, size=2)
        params = model.derive_from_sigma_delta(rng.uniform(0.0, 10.0), wd, j)
        assert abs(params.sin_2theta**2 + params.cos_2theta**2 - 1.0) <= 1e-12
        target = wd * wd + j * j
        assert abs(params.d_coupling**2 - target) <= 4.0 * eps * max(target, 1.0)
        if params.d_coupling > 0.0:
            assert abs(params.sin_2theta - j / params.d_coupling) <= 1e-12
        if wd > 0.0:
            assert abs(math.tan(2.0 * params.theta) - j / wd) <= 1e-12 * max(1.0, j / wd)
        assert 0.0 <= params.theta <= math.pi / 4
        assert params.d_coupling >= abs(params.omega_delta)
        assert params.d_coupling >= j


@pytest.mark.parametrize(
    "name,field,expected",
    [
        ("hh", 2.0, (2.0, 2.0)),
        ("hc", 4.0, (4.0, 1.0)),
        ("hp", 2.5, (2.5, 1.0)),
        ("hyperfine", 1.0, (1.0, 0.0)),
    ],
)
def test_presets(name, field, expected):
    system = model.preset(name, field)
    assert (system.omega1, system.omega2) == expected


def test_positronium_preset_cancels_omega_sigma_exactly():
    system = model.preset("positronium", 3.0)
    assert system.antiparallel
    params = model.derive(system)
    assert params.omega_sigma == 0.0
    assert params.omega_delta == 6.0


def test_unknown_preset():
    with pytest.raises(ValueError):
        model.preset("deuterium", 1.0)


def test_from_si_energy_scale():
    system, scale = model.from_si(0.0, 0.0, 7.0)
    assert system.coupling == 1.0
    # hbar * 2 pi * 7 Hz, evaluated directly
    assert math.isclose(scale, model.HBAR * 2.0 * math.pi * 7.0, rel_tol=1e-15)
    assert math.isclose(scale, 4.638e-33, rel_tol=1e-3)
    _, scale_hf = model.from_si(0.0, 0.0, 1.4e9)
    assert math.isclose(scale_hf, 9.28e-25, rel_tol=1e-3)


def test_from_si_normalises_frequencies():
    system, _ = model.from_si(400.0e6, 100.0e6, 200.0)
    assert math.isclose(system.omega1, 2.0e6, rel_tol=1e-15)
    assert math.isclose(system.omega2, 0.5e6, rel_tol=1e-15)


def test_from_si_rejects_nonpositive_coupling():
    with pytest.raises(ValueError):
        model.from_si(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        model.from_si(0.0, 0.0, -3.0)


def test_si_constants():
    assert model.K_BOLTZMANN == 1.380649e-23
    assert model.HBAR == 1.054571817e-34
    assert model.TWO_PI == 2.0 * math.pi
    # Hz means J / 2 pi: T_t = hbar 2 pi j_hz / (k_B ln 3).
    assert f"{entangle.threshold_kelvin(3096.0):.12g}" == "1.35247499953e-07"


def test_value_types_are_immutable():
    import dataclasses

    system = model.SpinSystem(2.0, 1.0, 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        system.coupling = 2.0


def test_from_si_rejects_non_finite_coupling():
    for j_hz in (math.inf, math.nan):
        with pytest.raises(ValueError):
            model.from_si(0.0, 0.0, j_hz)


def test_from_si_frequency_overflow_is_numerical():
    # Valid inputs; only nu / j_hz leaves float range.
    for nu1, nu2 in ((1e300, 0.0), (1e300, -1e300)):
        with pytest.raises(ArithmeticError):
            model.from_si(nu1, nu2, 1e-10)
    for nu1 in (math.inf, math.nan):
        with pytest.raises(ValueError):
            model.from_si(nu1, 0.0, 1e-10)


def test_energy_scale_underflow_is_numerical():
    # Below about 3.4e-275 Hz, hbar 2 pi j_hz is subnormal or 0.
    assert model._energy_scale(1e-270) == model.HBAR * model.TWO_PI * 1e-270
    for j_hz in (1e-280, 1e-300, 5e-324):
        with pytest.raises(ArithmeticError):
            model._energy_scale(j_hz)
        with pytest.raises(ArithmeticError):
            model.from_si(0.0, 0.0, j_hz)


def test_beta_from_tau():
    assert model._beta_from_tau(0.0) == math.inf
    assert model._beta_from_tau(0.5) == 2.0
    assert model._beta_from_tau(0.5, 4.0) == 0.5
    assert model._beta_from_tau(math.inf) == 0.0
    for tau in (-0.1, -math.inf, math.nan):
        with pytest.raises(ValueError):
            model._beta_from_tau(tau)
    # tau = k_B T / J is undefined unless J > 0.
    for tau in (0.0, 0.5):
        for coupling in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                model._beta_from_tau(tau, coupling)
    # A tau too small for a finite beta is a numerical failure, not the
    # zero-temperature limit.
    for tau, coupling in ((1e-320, 1.0), (1e-200, 1e-200)):
        with pytest.raises(ArithmeticError):
            model._beta_from_tau(tau, coupling)


def test_check_grid():
    grid = model._check_grid([0, 0.5, 2])
    assert grid.dtype == float and grid.tolist() == [0.0, 0.5, 2.0]
    for bad in ([], [[0.0, 1.0]], [0.0, math.nan], [math.nan], [0.0, math.inf],
                [1.0, 1.0], [1.0, 0.5]):
        with pytest.raises(ValueError):
            model._check_grid(bad)

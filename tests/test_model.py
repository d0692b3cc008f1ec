"""Parameters, derived quantities, presets and the Hz bridge.

Every value type is immutable, survives pickle, copy and deepcopy, and validates in _replace.
"""

import copy
import math
import operator
import pickle
import sys

import numpy as np
import pytest

from spinpair import critical, entangle, model, observe, spectrum, thermo


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


def test_signed_zero_inputs_give_zero_angle():
    # atan2 sees the sign of a zero: unnormalised, (-0.0, 0.0) would give
    # theta = pi/2 and a -0.0 coupling theta = -0.0, both outside [0, pi/4].
    for omega_delta, coupling in ((-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)):
        params = model.derive_from_sigma_delta(1.0, omega_delta, coupling)
        assert params.theta.hex() == "0x0.0p+0"
        assert params.sin_2theta.hex() == "0x0.0p+0"
        pops = thermo.populations(thermo.energies(params, coupling), 1.0)
        amps = spectrum.transition_amplitudes(pops, params.theta, 0.5 * math.pi)
        assert all(math.isfinite(a) for a in amps.values())


def test_labels_are_swapped_to_canonical_order():
    system = model.SpinSystem(1.0, 3.0, 0.5)
    assert (system.omega1, system.omega2) == (3.0, 1.0)
    assert tuple(model.SpinSystem(3.0, 1.0, 0.5)) == (3.0, 1.0, 0.5)
    # Equal frequencies keep their order, signed zeros included.
    assert [math.copysign(1.0, w) for w in model.SpinSystem(-0.0, 0.0, 0.5)[:2]] == [-1.0, 1.0]


def test_spin_system_takes_no_unit_or_swap_setting():
    # Frequencies are in one convention only, and the label order is the
    # constructor's; neither is a caller's choice.
    with pytest.raises(TypeError):
        model.SpinSystem(2.0, 1.0, 1.0, unit_mode="si")
    with pytest.raises(TypeError):
        model.SpinSystem(2.0, 1.0, 1.0, swapped=True)
    assert model.SpinSystem._fields == ("omega1", "omega2", "coupling")


def test_antiparallel_pair_is_kept():
    # omega2 == -omega1 < 0 after the usual swap is the antiparallel pair
    system = model.SpinSystem(-2.0, 2.0, 1.0)
    assert (system.omega1, system.omega2) == (2.0, -2.0)
    assert model.derive(system).omega_sigma == 0.0
    with pytest.raises(TypeError):
        model.SpinSystem(-1.0, 1.0, 1.0, antiparallel=True)


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
        *[(name, 0.0, (0.0, 0.0)) for name in sorted(model.PRESET_RATIOS)],
    ],
)
def test_presets(name, field, expected):
    system = model.preset(name, field)
    assert (system.omega1, system.omega2, system.coupling) == (*expected, 1.0)


def test_positronium_preset_cancels_omega_sigma_exactly():
    system = model.preset("positronium", 3.0)
    assert (system.omega1, system.omega2) == (3.0, -3.0)
    params = model.derive(system)
    assert params.omega_sigma == 0.0
    assert params.omega_delta == 6.0


def test_from_si_energy_scale():
    system, scale = model.from_si(0.0, 0.0, 7.0)
    assert system.coupling == 1.0
    # hbar * 2 pi * 7 Hz, evaluated directly
    assert math.isclose(scale, model.HBAR * 2.0 * math.pi * 7.0, rel_tol=1e-15)
    assert math.isclose(scale, 4.638e-33, rel_tol=1e-3)
    _, scale_hf = model.from_si(0.0, 0.0, 1.4e9)
    assert math.isclose(scale_hf, 9.28e-25, rel_tol=1e-3)
    # Above about 3.4e-275 Hz, hbar 2 pi j_hz is a normal float.
    assert model._energy_scale(1e-270) == model.HBAR * model.TWO_PI * 1e-270


def test_from_si_normalises_frequencies():
    system, _ = model.from_si(400.0e6, 100.0e6, 200.0)
    assert math.isclose(system.omega1, 2.0e6, rel_tol=1e-15)
    assert math.isclose(system.omega2, 0.5e6, rel_tol=1e-15)


def test_si_constants():
    assert model.K_BOLTZMANN == 1.380649e-23
    assert model.HBAR == 1.054571817e-34
    assert model.TWO_PI == 2.0 * math.pi
    # Hz means J / 2 pi: T_t = hbar 2 pi j_hz / (k_B ln 3).
    assert f"{entangle.threshold_kelvin(3096.0):.12g}" == "1.35247499953e-07"


def _value_types():
    """Instances of the eight value types, as the library builds them."""
    system = model.SpinSystem(2.0, 1.0, 1.0)
    params = model.derive(system)
    pops = thermo.populations(thermo.energies(params, 1.0), 1.0)
    return [
        system,
        model.SpinSystem(1.0, 3.0, 0.5),  # swapped
        model.preset("positronium", 2.0),  # antiparallel
        params,
        thermo.energies(params, 1.0),
        pops,
        thermo.density_matrix(pops, params.theta),
        critical.ground_state(system),
        critical.ground_state(model.SpinSystem(2.25, 0.75, 1.125)),  # E3 = E4
        observe.polarizations(pops, params.theta),
        spectrum.simulate_spectrum(system, 1.0)[0],
    ]


def test_value_types_are_immutable():
    values = _value_types()
    assert len({type(v) for v in values}) == 8
    for value in values:
        for name in value._fields:
            with pytest.raises(AttributeError):
                setattr(value, name, 2.0)
        with pytest.raises(AttributeError):
            value.extra = 2.0


def test_value_types_survive_pickle_and_copy():
    values = _value_types()
    assert tuple(values[1]) == (3.0, 1.0, 0.5) and tuple(values[2]) == (2.0, -2.0, 1.0)
    assert values[8].degenerate_pair == (3, 4)
    for value in values:
        copies = [copy.copy(value), copy.deepcopy(value)]
        copies += [pickle.loads(pickle.dumps(value, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for other in copies:
            assert type(other) is type(value) and other == value


def test_replace_validates():
    system = model.SpinSystem(2.0, 1.0, 1.0)
    assert system._replace(coupling=3.0) == model.SpinSystem(2.0, 1.0, 3.0)
    assert tuple(system._replace(omega2=3.0)) == (3.0, 2.0, 1.0)
    obs = observe.Observables(0.5, -0.5, 0.25)
    assert obs._replace(p1z=0.0) == observe.Observables(0.0, -0.5, 0.25)
    for value in (system, obs):  # ValueError before Python 3.13, TypeError from 3.13 on
        with pytest.raises((TypeError, ValueError), match="unexpected field names"):
            value._replace(swapped=True)
    if hasattr(copy, "replace"):  # Python 3.13+
        assert tuple(copy.replace(system, omega2=3.0)) == (3.0, 2.0, 1.0)


def test_beta_from_tau():
    assert model._beta_from_tau(0.0) == math.inf
    assert model._beta_from_tau(0.5) == 2.0
    assert model._beta_from_tau(0.5, 4.0) == 0.5


def test_beta_from_tau_is_never_zero_for_positive_tau():
    # tau J overflows, but beta = 1/(tau J) = 2.19e-309 is a subnormal, not 0.
    beta = model._beta_from_tau(4.56, 1e308)
    assert beta == 1.0 / 4.56 / 1e308 and 0.0 < beta < sys.float_info.min


def test_check_grid():
    grid = model._check_grid([0, 0.5, 2])
    assert grid == [0.0, 0.5, 2.0] and all(type(x) is float for x in grid)
    # A list of floats is not copied point by point: the check keeps its float objects.
    floats = [0.25, 0.5]
    assert all(map(operator.is_, model._check_grid(floats), floats))

import math

import numpy as np

from spinpair import entangle, model, observe, thermo


def _random_populations(rng):
    raw = rng.uniform(0.0, 1.0, size=4)
    raw /= raw.sum()
    return tuple(raw)


def test_polarization_examples():
    assert observe.polarizations((1, 0, 0, 0), 0.4) == observe.Observables(1.0, 1.0, 1.0)
    obs = observe.polarizations((0, 0, 1, 0), 0.0)
    assert (obs.p1z, obs.p2z, obs.p1z2z) == (-1.0, 1.0, -1.0)
    obs = observe.polarizations((0.25, 0.25, 0.25, 0.25), 0.3)
    assert (obs.p1z, obs.p2z, obs.p1z2z) == (0.0, 0.0, 0.0)


def test_round_trip():
    rng = np.random.default_rng(61)
    for _ in range(500):
        p = _random_populations(rng)
        theta = rng.uniform(0.0, math.pi / 4 - 1e-3)
        if abs(math.cos(2 * theta)) < 1e-3:
            continue
        obs = observe.polarizations(p, theta)
        back = observe.reconstruct_populations(obs, theta)
        assert max(abs(a - b) for a, b in zip(back.probs, p)) <= 1e-12


def test_reconstruct_pure_state():
    pops = observe.reconstruct_populations(observe.Observables(1.0, 1.0, 1.0), math.pi / 6)
    assert pops.probs == (1.0, 0.0, 0.0, 0.0)
    # p1 = 1 + 5e-11 and p2 = -5e-11 lie within CLAMP_ATOL of [0, 1]: clamped to 1 and 0.
    pops = observe.reconstruct_populations(observe.Observables(1.0, 1.0, 1.0 + 2e-10), 0.3)
    assert pops.p1 == 1.0 and pops.p2 == 0.0


def test_concurrence_from_observables_pure_entangled():
    obs = observe.polarizations((0, 0, 1, 0), math.pi / 6)
    c = observe.concurrence_from_observables(obs, math.pi / 6)
    assert math.isclose(c, math.sin(math.radians(60.0)), rel_tol=1e-12)


def test_concurrence_from_observables_maximally_mixed():
    assert observe.concurrence_from_observables(observe.Observables(0, 0, 0), 0.3) == 0.0


def test_concurrence_route_identity():
    rng = np.random.default_rng(62)
    for _ in range(500):
        p = _random_populations(rng)
        theta = rng.uniform(0.0, math.pi / 4 - 0.05)
        obs = observe.polarizations(p, theta)
        direct = observe.concurrence_from_observables(obs, theta)
        back = observe.reconstruct_populations(obs, theta)
        via_pops = entangle.concurrence_from_populations(back, theta)
        assert abs(direct - via_pops) <= 1e-12


def test_concurrence_matches_thermal_route():
    # heteronuclear system at theta = 0.7 * (pi/4), beta J = 2
    theta = 0.7 * (math.pi / 4)
    wd = 1.0 / math.tan(2.0 * theta)
    params = model.derive_from_sigma_delta(1.2, wd, 1.0)
    assert math.isclose(params.theta, theta, rel_tol=1e-12)
    pops = thermo.populations(thermo.energies(params, 1.0), 2.0)
    obs = observe.polarizations(pops, params.theta)
    c_obs = observe.concurrence_from_observables(obs, params.theta)
    c_thermal = entangle.concurrence_for_params(params, 1.0, 2.0)
    assert abs(c_obs - c_thermal) <= 1e-12


def test_printed_radicand_disagrees():
    # the circulating variant radicand 1 + P1z2z^2 - (P1z + P2z)^2 drops
    # the 2*P1z2z cross term; with nonzero two-spin order it departs from
    # the population route while the kept form stays consistent
    theta = 0.7 * (math.pi / 4)
    wd = 1.0 / math.tan(2.0 * theta)
    params = model.derive_from_sigma_delta(1.2, wd, 1.0)
    pops = thermo.populations(thermo.energies(params, 1.0), 2.0)
    obs = observe.polarizations(pops, params.theta)
    assert abs(obs.p1z2z) > 0.1
    consistent = observe.concurrence_from_observables(obs, params.theta)
    variant_radicand = 1.0 + obs.p1z2z**2 - (obs.p1z + obs.p2z) ** 2
    variant = abs(obs.p1z - obs.p2z) * abs(math.tan(2.0 * params.theta))
    variant = 0.5 * max(variant - math.sqrt(max(variant_radicand, 0.0)), 0.0)
    route = entangle.concurrence_from_populations(pops, params.theta)
    assert abs(consistent - route) <= 1e-12
    assert abs(variant - route) > 0.1


def test_p1p4_identity():
    rng = np.random.default_rng(63)
    for _ in range(500):
        p = _random_populations(rng)
        theta = rng.uniform(0.0, math.pi / 4 - 0.01)
        obs = observe.polarizations(p, theta)
        lhs = (1.0 + obs.p1z2z) ** 2 - (obs.p1z + obs.p2z) ** 2
        assert abs(lhs - 16.0 * p[0] * p[3]) <= 1e-12
        assert lhs >= -1e-12
